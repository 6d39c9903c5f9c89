"""Projective mapping-class-group representations on spine bases.

Supported surfaces carry a hand-built curve dictionary, and a model gives
each curve once, by its frame (left, core, right).  core is the labels of
the spine edge the curve encircles, one per basis vector, or the matrix of
the curve's parallel insertion (a fusion operator with tetrahedral
coefficients).  left and right are a change of basis and its inverse in
closed form -- the Hopf S-matrix with S^{-1} = S/D, or an F-move with
F(a,b,c,d)^{-1} = F(b,c,d,a) -- or None.  `SurfaceModel` turns a frame into
the curve operator left . C(core) . right and the twist pair
left . f(core) . right, where f(lambda_k) = mu_k^{+-1}: read off a label core,
and one exact Lagrange pass shared by both signs on a matrix core.  No
matrix is inverted by elimination.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import prod

from . import tqft
from .linalg import eye, mat_mul, mat_trace, zeros
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


def _interp_pair(params: QuantumParams, cmat):
    """The twist matrix of a curve and its inverse from its curve operator
    C: the polynomials sending encircle_eigenvalue(k) to
    twist_coefficient(k)^{+-1}, applied blockwise.  One exact Lagrange pass
    builds each term prod_{j != k} (C - lambda_j) once and weights it by
    mu_k^{+-1} / prod_{j != k} (lambda_k - lambda_j) for both signs."""
    labels = range(params.r - 1)
    lams = [encircle_eigenvalue(params, k) for k in labels]
    weights = []
    for k in labels:
        inv = prod((lams[k] - lams[j] for j in labels if j != k), start=params.one()).inverse()
        weights.append([twist_coefficient(params, k, e) * inv for e in (1, -1)])
    n = len(cmat)
    pair = (zeros(params, n, n), zeros(params, n, n))
    for idxs in _support_blocks(cmat):
        steps = [[[cmat[a][b] - (lam if a == b else params.zero()) for b in idxs]
                  for a in idxs] for lam in lams]
        for k in labels:
            term = reduce(mat_mul, [steps[j] for j in labels if j != k])
            for out, w in zip(pair, weights[k]):
                for a, i in enumerate(idxs):
                    for b, j in enumerate(idxs):
                        out[i][j] = out[i][j] + w * term[a][b]
    return pair


def _is_labels(core):
    """A frame core is a label list or a matrix (a list of rows)."""
    return all(isinstance(k, int) for k in core)


def _conjugate(left, core, right):
    return core if left is None else mat_mul(left, mat_mul(core, right))


def _diag(params, values):
    n = len(values)
    m = zeros(params, n, n)
    for i, v in enumerate(values):
        m[i][i] = v
    return m


def _loop_insertion(params, tup, pos):
    """C of a 1-labeled curve parallel to a loop edge, on basis tuples that
    hold the loop's label at `pos` and the third label at its vertex at 1:
    fuse the curve into the loop and replace the triangle at the vertex by a
    tetrahedron."""
    idx = {t: i for i, t in enumerate(tup)}
    out = zeros(params, len(tup), len(tup))
    for i, t in enumerate(tup):
        x, m = t[pos], t[1]
        for xp in (x - 1, x + 1):
            t2 = t[:pos] + (xp,) + t[pos + 1:]
            if t2 in idx:
                num = params.d_k(xp) * tet(params, x, x, xp, xp, m, 1)
                out[idx[t2]][i] = num / (theta(params, x, 1, xp) * theta(params, xp, xp, m))
    return out


class SurfaceModel:
    """A supported surface: a reference spine, a basis, and a curve
    dictionary; `_frame` describes each curve, and this class alone turns a
    frame into its curve operator and twist matrices."""

    name = None

    def spine(self):
        raise NotImplementedError

    def curves(self):
        raise NotImplementedError

    def _frame(self, params, curve):
        """(left, core, right) of a dictionary curve, as the module
        docstring describes."""
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
        left, core, right = self._frame(params, curve)
        if _is_labels(core):
            core = _diag(params, [encircle_eigenvalue(params, k) for k in core])
        return RepMatrix(_conjugate(left, core, right), params.r, self.name,
                         self._label_context())

    def _twist_pair(self, params, curve):
        """(T, T^{-1}) for a curve, both conjugated from its frame's core."""
        left, core, right = self._frame(params, curve)
        if _is_labels(core):
            pair = [_diag(params, [twist_coefficient(params, k, e) for k in core])
                    for e in (1, -1)]
        else:
            pair = _interp_pair(params, core)
        return tuple(_conjugate(left, m, right) for m in pair)

    def _twists(self, params, curve):
        # a model is fixed by its name and boundary labels, so its twist
        # pairs are shared by every model built alike at this level
        key = ("twist", self.name, self._label_context(), curve)
        return params.cached(key, lambda: self._twist_pair(params, curve))

    def twist_matrix(self, params, curve, power=1) -> RepMatrix:
        if curve not in self.curves():
            raise DomainError(f"unknown curve {curve!r} on {self.name}")
        m = self._twists(params, curve)[0 if power >= 0 else 1]
        if power == 0:
            out = eye(params, len(m))
        else:
            # a row copy: the memoized twist never leaves in a RepMatrix
            out = [list(row) for row in m]
            for _ in range(abs(power) - 1):
                out = mat_mul(out, m)
        return RepMatrix(out, params.r, self.name, self._label_context())

    def represent(self, params, word) -> RepMatrix:
        """word: sequence of (curve name, exponent)."""
        out = None
        for curve, exp in word:
            t = self.twist_matrix(params, curve, exp).matrix
            out = t if out is None else mat_mul(out, t)
        if out is None:
            out = eye(params, self.dim(params))
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

    def _frame(self, params, curve):
        labels = list(range(params.r - 1))
        if curve == "a":
            return None, labels, None
        s = self.s_matrix(params)
        inv_d = params.inverse_total_d_squared()  # S S = D I
        s_inv = [[x * inv_d for x in row] for row in s]
        if curve == "b":
            return s, labels, s_inv
        va, va_inv = self._twists(params, "a")
        if curve == "d":
            va, va_inv = va_inv, va
        return mat_mul(va, s), labels, mat_mul(s_inv, va_inv)


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

    def _frame(self, params, curve):
        tup = [(b["x"], self.boundary_label) for b in self.basis(params)]
        if curve == "a":
            return None, [x for x, l in tup], None
        return None, _loop_insertion(params, tup, 0), None


class FourPuncturedSphere(SurfaceModel):
    """4-punctured sphere with boundary labels (l1,l2,l3,l4): basis = middle
    labels of the horizontal channel.  Curve 'g12' surrounds punctures 1,2
    (diagonal); 'g23' surrounds 2,3 (diagonal in the vertical channel,
    reached by the F-matrix); 'g34' surrounds 3,4 (diagonal)."""

    name = "four_punctured_sphere"

    def __init__(self, labels):
        self.labels = tuple(labels)

    def spine(self):
        return tqft.four_punctured_sphere_spine(self.labels, "h")

    def curves(self):
        return ("g12", "g23", "g34")

    def _label_context(self):
        return self.labels

    def _frame(self, params, curve):
        es = [b["m"] for b in self.basis(params)]
        if curve in ("g12", "g34"):
            return None, es, None
        l1, l2, l3, l4 = self.labels
        _, fs = f_matrix_channels(params, l1, l2, l3, l4)
        if len(es) != len(fs):
            raise DomainError("channel bases have different dimensions")
        # coordinates transform covariantly, w_f = sum_e six_j(.., e, f) v_e,
        # so K = F^T, and F(l1,l2,l3,l4) F(l2,l3,l4,l1) = I inverts it
        k = [list(col) for col in zip(*f_matrix(params, l1, l2, l3, l4))]
        k_inv = [list(col) for col in zip(*f_matrix(params, l2, l3, l4, l1))]
        return k_inv, fs, k


class GenusTwo(SurfaceModel):
    """Closed genus-2 surface, dumbbell spine with loop labels x, y and bar
    label m; basis ordered lexicographically on (x, m, y).  The chain curves:
    b1, b3 are the handle meridians (diagonal); b0, b4 are the handle
    longitudes (parallel insertion); b2 runs through both handles and is a
    parallel insertion in the theta-spine coordinates reached by one F-move
    on the bar.
    """

    name = "genus2"

    def spine(self):
        return tqft.dumbbell_spine()

    def curves(self):
        return ("b0", "b1", "b2", "b3", "b4")

    def _frame(self, params, curve):
        tup = [(b["x"], b["m"], b["y"]) for b in self.basis(params)]
        if curve == "b1":
            return None, [x for x, m, y in tup], None
        if curve == "b3":
            return None, [y for x, m, y in tup], None
        if curve == "b2":
            k, k_inv = self._theta_change(params, tup)
            return k_inv, self._theta_parallel(params), k
        return None, _loop_insertion(params, tup, 0 if curve == "b0" else 2), None

    def theta_basis(self, params):
        return [(b["x"], b["y"], b["z"])
                for b in tqft.basis(params, tqft.theta_spine())]

    def _theta_change(self, params, tup):
        """K with |x,m,y>_dumbbell = sum_f K[(x,y,f),(x,m,y)] |x,y,f>_theta,
        one F-move on the bar edge, and its inverse: blockwise over (x, y),
        K is F(x,x,y,y)^T and K^{-1} is F(x,y,y,x)^T."""
        tidx = {t: i for i, t in enumerate(self.theta_basis(params))}
        k = zeros(params, len(tidx), len(tup))
        k_inv = zeros(params, len(tup), len(tidx))
        blocks = {}
        for j, (x, m, y) in enumerate(tup):
            if (x, y) not in blocks:
                blocks[x, y] = (f_matrix_channels(params, x, x, y, y),
                                f_matrix(params, x, x, y, y), f_matrix(params, x, y, y, x))
            (es, fs), f, f_rot = blocks[x, y]
            ei = es.index(m)
            for fi, fv in enumerate(fs):
                i = tidx[x, y, fv]
                k[i][j] = f[ei][fi]
                k_inv[j][i] = f_rot[fi][ei]
        return k, k_inv

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
