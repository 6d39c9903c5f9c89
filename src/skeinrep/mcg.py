"""Projective mapping-class-group representations on spine bases.

Supported surfaces carry a hand-built curve dictionary.  Every dictionary
curve gets an exact curve operator C(gamma) (the skein operator inserting the
curve in Y x I); its Dehn-twist matrix is the polynomial in C(gamma) that
maps each encircling eigenvalue lambda_k to the twist coefficient mu_k --
both operators are diagonalized by the same curve decomposition, so one
exact Lagrange interpolation turns curve operators into twist matrices.

Curve operators come in three kinds:
  * spine-diagonal: the curve encircles one spine edge; C = diag(lambda_label)
  * parallel insertion: the curve is parallel to a spine cycle; C is the
    tridiagonal fusion operator with tetrahedral coefficients
  * conjugated: C = M (diagonal) M^{-1} for a fixed change-of-basis matrix M
    (the Hopf S-matrix on the torus; an F-move for the 4-punctured sphere
    and the genus-2 middle curve)
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import tqft
from .linalg import eye, mat_inv, mat_mul, mat_trace, zeros
from .recoupling import (encircle_eigenvalue, f_matrix, f_matrix_channels,
                         hopf_pairing, tet, theta, twist_coefficient)
from .scalars import QuantumParams, Scalar, make_params
from .skein import DomainError
from .unionfind import UnionFind


@dataclass
class RepMatrix:
    matrix: list
    r: int
    surface: str
    labels: tuple = ()

    @property
    def dim(self):
        return len(self.matrix)


@dataclass
class DetectionResult:
    r0: object  # least r where projectively nontrivial, or None
    verdicts: dict = field(default_factory=dict)  # r -> "nontrivial"|"trivial"
    witness: dict = field(default_factory=dict)  # r -> probe witness, e.g. block labels


def scan_levels(r_range, s, probe) -> DetectionResult:
    """The detection search shared by `detect` and `braids.braid_detect`:
    walk r ascending and call probe(params) at each level; the probe returns
    a witness of projective nontriviality, or None when the level is
    trivial."""
    result = DetectionResult(r0=None)
    for r in sorted(r_range):
        try:
            params = make_params(r, s)
        except ValueError as exc:
            raise DomainError(f"r={r}: {exc}") from exc
        witness = probe(params)
        if witness is None:
            result.verdicts[r] = "trivial"
            continue
        result.verdicts[r] = "nontrivial"
        result.witness[r] = witness
        if result.r0 is None:
            result.r0 = r
    return result


def is_projectively_identity(matrix) -> bool:
    """Exactly a Scalar multiple of the identity."""
    n = len(matrix)
    if n == 0:
        return True
    lam = matrix[0][0]
    for i in range(n):
        for j in range(n):
            if i == j:
                if matrix[i][j] != lam:
                    return False
            elif not matrix[i][j].is_zero():
                return False
    return not lam.is_zero()


def _support_blocks(cmat):
    """Connected components of the nonzero pattern (curve operators are
    banded or block diagonal; interpolating per block is much cheaper)."""
    n = len(cmat)
    uf = UnionFind(range(n))
    for i in range(n):
        for j in range(n):
            if i != j and not cmat[i][j].is_zero():
                uf.union(i, j)
    return uf.groups()


def _interp_twist(params: QuantumParams, cmat):
    """The twist matrix of a curve from its curve operator: the unique
    polynomial sending encircle_eigenvalue(k) -> twist_coefficient(k),
    applied to the operator blockwise by exact Lagrange interpolation."""
    blocks = _support_blocks(cmat)
    if len(blocks) > 1:
        out = zeros(params, len(cmat), len(cmat))
        for idxs in blocks:
            sub = [[cmat[i][j] for j in idxs] for i in idxs]
            tw = _interp_twist(params, sub)
            for a, i in enumerate(idxs):
                for b, j in enumerate(idxs):
                    out[i][j] = tw[a][b]
        return out
    r = params.r
    lams = [encircle_eigenvalue(params, k) for k in range(r - 1)]
    mus = [twist_coefficient(params, k) for k in range(r - 1)]
    n = len(cmat)
    out = zeros(params, n, n)
    for k in range(r - 1):
        term = eye(params, n)
        for j in range(r - 1):
            if j == k:
                continue
            step = [[cmat[a][b] - (lams[j] if a == b else params.zero())
                     for b in range(n)] for a in range(n)]
            scale = (lams[k] - lams[j]).inverse()
            term = [[x * scale for x in row] for row in mat_mul(term, step)]
        out = [[out[a][b] + mus[k] * term[a][b] for b in range(n)] for a in range(n)]
    return out


def _diag(params, values):
    n = len(values)
    m = zeros(params, n, n)
    for i, v in enumerate(values):
        m[i][i] = v
    return m


def _parallel_coeff(params, x, xp, m) -> Scalar:
    """Coefficient of |x'> in C(cycle)|x> for a 1-labeled curve parallel to a
    loop edge labeled x whose vertex is (x, x, m): fuse the curve into the
    loop and replace the triangle at the vertex by a tetrahedron."""
    num = params.d_k(xp) * tet(params, x, x, xp, xp, m, 1)
    den = theta(params, x, 1, xp) * theta(params, xp, xp, m)
    return num / den


class SurfaceModel:
    """A supported surface: a reference spine, a basis, and a curve
    dictionary mapping curve names to curve-operator constructions."""

    name = None

    def spine(self):
        raise NotImplementedError

    def curves(self):
        raise NotImplementedError

    def basis(self, params):
        return tqft.basis(params, self.spine())

    def dim(self, params):
        return len(self.basis(params))

    def closed(self):
        return not self.spine().boundary

    def curve_operator(self, params, curve) -> RepMatrix:
        if curve not in self.curves():
            raise DomainError(f"unknown curve {curve!r} on {self.name}")
        return RepMatrix(self._curve_operator(params, curve), params.r,
                         self.name, self._label_context())

    def twist_matrix(self, params, curve, power=1) -> RepMatrix:
        if curve not in self.curves():
            raise DomainError(f"unknown curve {curve!r} on {self.name}")
        # a model is fixed by its name and boundary labels, so its twist
        # bases are shared by every model built alike at this root
        key = (self.name, self._label_context(), curve)
        m = params.cached(("twist",) + key, lambda: self._twist_base(params, curve))
        if power < 0:
            m = params.cached(("twist_inv",) + key, lambda: mat_inv(params, m))
            power = -power
        out = eye(params, len(m))
        for _ in range(power):
            out = mat_mul(out, m)
        return RepMatrix(out, params.r, self.name, self._label_context())

    def _twist_base(self, params, curve):
        return _interp_twist(params, self._curve_operator(params, curve))

    def represent(self, params, word) -> RepMatrix:
        """word: sequence of (curve name, exponent)."""
        out = eye(params, self.dim(params))
        for curve, exp in word:
            out = mat_mul(out, self.twist_matrix(params, curve, exp).matrix)
        return RepMatrix(out, params.r, self.name, self._label_context())

    def _label_context(self):
        return ()


class Torus(SurfaceModel):
    """Closed torus: basis b_0..b_{r-2} (core projectors of the solid torus).
    Curve 'a' is the meridian (bounds a disk in the handlebody; its twist
    extends over the solid torus as a framing change, so it is diagonal);
    'b' is the longitude, conjugate to 'a' by the Hopf S-matrix; 'c' and 'd'
    are the (1,1) and (1,-1) curves, images of b under the meridian twist."""

    name = "torus"

    def spine(self):
        return tqft.torus_spine()

    def curves(self):
        return ("a", "b", "c", "d")

    def s_matrix(self, params):
        r = params.r
        return [[hopf_pairing(params, j, k) for k in range(r - 1)] for j in range(r - 1)]

    def _curve_operator(self, params, curve):
        r = params.r
        lam = _diag(params, [encircle_eigenvalue(params, k) for k in range(r - 1)])
        if curve == "a":
            return lam
        s = self.s_matrix(params)
        s_inv = mat_inv(params, s)
        cb = mat_mul(s, mat_mul(lam, s_inv))
        if curve == "b":
            return cb
        va = self.twist_matrix(params, "a", 1 if curve == "c" else -1).matrix
        va_inv = self.twist_matrix(params, "a", -1 if curve == "c" else 1).matrix
        return mat_mul(va, mat_mul(cb, va_inv))


class PuncturedTorus(SurfaceModel):
    """Once-punctured torus with boundary label l: basis = loop labels x with
    (x, x, l) admissible.  Curve 'a' = meridian (diagonal), 'b' = longitude
    (parallel insertion along the loop)."""

    name = "punctured_torus"

    def __init__(self, boundary_label):
        self.boundary_label = boundary_label

    def spine(self):
        return tqft.Spine(edges=["x"], vertices=[["x", "x", "p"]],
                          boundary={"p": self.boundary_label})

    def curves(self):
        return ("a", "b")

    def _label_context(self):
        return (self.boundary_label,)

    def _curve_operator(self, params, curve):
        bas = self.basis(params)
        xs = [b["x"] for b in bas]
        if curve == "a":
            return _diag(params, [encircle_eigenvalue(params, x) for x in xs])
        n = len(xs)
        idx = {x: i for i, x in enumerate(xs)}
        out = zeros(params, n, n)
        l = self.boundary_label
        for i, x in enumerate(xs):
            for xp in (x - 1, x + 1):
                if xp in idx:
                    out[idx[xp]][i] = _parallel_coeff(params, x, xp, l)
        return out


class FourPuncturedSphere(SurfaceModel):
    """4-punctured sphere with boundary labels (l1,l2,l3,l4): basis = middle
    labels of the horizontal channel.  Curve 'g12' surrounds punctures 1,2
    (diagonal); 'g23' surrounds 2,3 (diagonal in the vertical channel,
    conjugated back by the F-matrix); 'g34' surrounds 3,4 (diagonal)."""

    name = "four_punctured_sphere"

    def __init__(self, labels):
        self.labels = tuple(labels)

    def spine(self):
        return tqft.four_punctured_sphere_spine(self.labels, "h")

    def curves(self):
        return ("g12", "g23", "g34")

    def _label_context(self):
        return self.labels

    def _curve_operator(self, params, curve):
        l1, l2, l3, l4 = self.labels
        es, fs = f_matrix_channels(params, l1, l2, l3, l4)
        if curve in ("g12", "g34"):
            return _diag(params, [encircle_eigenvalue(params, e) for e in es])
        if len(es) != len(fs):
            raise DomainError("channel bases have different dimensions")
        f = f_matrix(params, l1, l2, l3, l4)
        # coordinates transform covariantly: w_f = sum_e six_j(.., e, f) v_e
        k = [[f[ei][fi] for ei in range(len(es))] for fi in range(len(fs))]
        k_inv = mat_inv(params, k)
        lam = _diag(params, [encircle_eigenvalue(params, x) for x in fs])
        return mat_mul(k_inv, mat_mul(lam, k))


class GenusTwo(SurfaceModel):
    """Closed genus-2 surface, dumbbell spine with loop labels x, y and bar
    label m; basis ordered lexicographically on (x, m, y).  The chain curves:
    b1, b3 are the handle meridians (diagonal); b0, b4 are the handle
    longitudes (parallel insertion); b2 runs through both handles and is
    computed in the theta-spine coordinates reached by one F-move on the bar.
    """

    name = "genus2"

    def spine(self):
        return tqft.dumbbell_spine()

    def curves(self):
        return ("b0", "b1", "b2", "b3", "b4")

    def _curve_operator(self, params, curve):
        bas = self.basis(params)
        tup = [(b["x"], b["m"], b["y"]) for b in bas]
        idx = {t: i for i, t in enumerate(tup)}
        n = len(tup)
        if curve == "b1":
            return _diag(params, [encircle_eigenvalue(params, x) for x, m, y in tup])
        if curve == "b3":
            return _diag(params, [encircle_eigenvalue(params, y) for x, m, y in tup])
        if curve in ("b0", "b4"):
            out = zeros(params, n, n)
            for i, (x, m, y) in enumerate(tup):
                z = x if curve == "b0" else y
                for zp in (z - 1, z + 1):
                    t2 = (zp, m, y) if curve == "b0" else (x, m, zp)
                    if t2 in idx:
                        out[idx[t2]][i] = _parallel_coeff(params, z, zp, m)
            return out
        # b2: change to theta coordinates by the F-move on the bar, apply the
        # double parallel insertion, change back
        k = self._theta_change(params, tup, idx)
        k_inv = mat_inv(params, k)
        ct = self._theta_parallel(params)
        return mat_mul(k_inv, mat_mul(ct, k))

    def _twist_base(self, params, curve):
        if curve != "b2":
            return super()._twist_base(params, curve)
        # interpolate in theta coordinates, where the operator is block
        # diagonal over the middle label, then conjugate back
        bas = self.basis(params)
        tup = [(b["x"], b["m"], b["y"]) for b in bas]
        idx = {t: i for i, t in enumerate(tup)}
        k = self._theta_change(params, tup, idx)
        k_inv = mat_inv(params, k)
        tw = _interp_twist(params, self._theta_parallel(params))
        return mat_mul(k_inv, mat_mul(tw, k))

    def theta_basis(self, params):
        return [(b["x"], b["y"], b["z"])
                for b in tqft.basis(params, tqft.theta_spine())]

    def _theta_change(self, params, tup, idx):
        """Matrix K with |x,m,y>_dumbbell = sum_f K[(x,y,f),(x,m,y)]
        |x,y,f>_theta: one F-move on the bar edge."""
        tb = self.theta_basis(params)
        tidx = {t: i for i, t in enumerate(tb)}
        k = zeros(params, len(tb), len(tup))
        for j, (x, m, y) in enumerate(tup):
            es, fs = f_matrix_channels(params, x, x, y, y)
            f = f_matrix(params, x, x, y, y)
            ei = es.index(m)
            for fi, fv in enumerate(fs):
                t2 = (x, y, fv)
                if t2 in tidx:
                    k[tidx[t2]][j] = f[ei][fi]
        return k

    def _theta_parallel(self, params):
        """C(b2) in theta coordinates: the curve parallel to the cycle
        through edges x and y; fusion changes both by +-1, with one
        tetrahedral vertex replacement at each theta vertex."""
        tb = self.theta_basis(params)
        tidx = {t: i for i, t in enumerate(tb)}
        out = zeros(params, len(tb), len(tb))
        for i, (x, y, f) in enumerate(tb):
            for xp in (x - 1, x + 1):
                for yp in (y - 1, y + 1):
                    if (xp, yp, f) not in tidx:
                        continue
                    t = tet(params, x, y, xp, yp, f, 1)
                    num = params.d_k(xp) * params.d_k(yp) * t * t
                    den = (theta(params, x, 1, xp) * theta(params, y, 1, yp)
                           * theta(params, xp, yp, f) ** 2)
                    out[tidx[(xp, yp, f)]][i] = num / den
        return out


def surface_model(name, labels=()) -> SurfaceModel:
    if name == "torus":
        return Torus()
    if name == "punctured_torus":
        if len(labels) != 1:
            raise DomainError("punctured_torus needs one boundary label")
        return PuncturedTorus(labels[0])
    if name == "four_punctured_sphere":
        if len(labels) != 4:
            raise DomainError("four_punctured_sphere needs four boundary labels")
        return FourPuncturedSphere(labels)
    if name == "genus2":
        return GenusTwo()
    raise DomainError(f"unsupported surface {name!r}")


def _boundary_contexts(name, r):
    """All boundary-label choices of a surface at level r."""
    if name in ("torus", "genus2"):
        return [()]
    if name == "punctured_torus":
        return [(l,) for l in range(0, r - 1, 2)]
    if name == "four_punctured_sphere":
        out = []
        for l1 in range(r - 1):
            for l2 in range(r - 1):
                for l3 in range(r - 1):
                    for l4 in range(r - 1):
                        if (l1 + l2 + l3 + l4) % 2 == 0:
                            out.append((l1, l2, l3, l4))
        return out
    raise DomainError(f"unsupported surface {name!r}")


def detect(name, word, r_range, s=1) -> DetectionResult:
    """Scan r ascending; at each r, examine every boundary-label block of the
    surface and report 'nontrivial' when some block's matrix is not a Scalar
    multiple of the identity (the witness is that block's labels)."""

    def probe(params):
        for ctx in _boundary_contexts(name, params.r):
            model = surface_model(name, ctx)
            if model.dim(params) == 0:
                continue
            if not is_projectively_identity(model.represent(params, word).matrix):
                return ctx
        return None

    return scan_levels(r_range, s, probe)


def mapping_torus_trace(model: SurfaceModel, params: QuantumParams, word) -> Scalar:
    """Trace of the monodromy representation: the invariant of the mapping
    torus (well-defined up to the root-of-unity phase of represent)."""
    if not model.closed():
        raise DomainError("mapping torus trace needs a closed surface")
    return mat_trace(model.represent(params, word).matrix)


def parse_word(text):
    """'b0 b1 -b2' -> [('b0', 1), ('b1', 1), ('b2', -1)]."""
    out = []
    for token in text.split():
        if token.startswith("-"):
            out.append((token[1:], -1))
        elif token.startswith("+"):
            out.append((token[1:], 1))
        else:
            out.append((token, 1))
    return out
