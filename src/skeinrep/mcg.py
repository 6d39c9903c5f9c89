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
and one exact Newton prefix pass shared by both signs on a matrix core.  No
matrix is inverted by elimination.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from . import tqft
from .linalg import eye, mat_mul, mat_trace, zeros
from .recoupling import (encircle_eigenvalue, f_matrix, f_matrix_channels,
                         hopf_pairing, tet, theta, twist_coefficient)
from .scalars import QuantumParams, Scalar, make_params
from .skein import DomainError


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


def _newton_coefficients(params: QuantumParams):
    """The nodes lambda_k = encircle_eigenvalue(k) and, for each sign, the
    divided differences of lambda_k -> twist_coefficient(k)^{+-1}, the
    coefficients of the Newton form; each inverse of a node difference
    serves both signs."""
    n = params.r - 1
    lams = [encircle_eigenvalue(params, k) for k in range(n)]
    tables = [[twist_coefficient(params, k, e) for k in range(n)] for e in (1, -1)]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            inv = (lams[i] - lams[i - j]).inverse()
            for d in tables:
                d[i] = (d[i] - d[i - 1]) * inv
    return lams, tables


def _interp_pair(params: QuantumParams, cmat):
    """The twist matrix of a curve and its inverse from its curve operator
    C: the polynomials sending encircle_eigenvalue(k) to
    twist_coefficient(k)^{+-1}, in Newton form
    f(C) = sum_k c_k prod_{j<k} (C - lambda_j).  The coefficients come from
    the level memo, and each prefix product is built once, by the
    zero-skipping mat_mul, for both signs."""
    lams, coeffs = params.cached(("newton",), lambda: _newton_coefficients(params))
    n = len(cmat)
    pair = tuple(_diag(params, [c[0]] * n) for c in coeffs)
    prefix = None
    for k in range(1, len(lams)):
        step = [list(row) for row in cmat]
        for a in range(n):
            step[a][a] = step[a][a] - lams[k - 1]
        prefix = step if prefix is None else mat_mul(prefix, step)
        for out, c in zip(pair, coeffs):
            for a, row in enumerate(prefix):
                for b, x in enumerate(row):
                    if not x.is_zero():
                        out[a][b] = out[a][b] + c[k] * x
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


def _parallel_insertion(params, tuples, vertices):
    """C of a 1-labeled curve parallel to a cycle of the spine, on basis
    tuples of edge labels.  vertices lists each spine vertex the cycle
    passes as the tuple positions (a, b, c) of its two cycle edges and its
    third edge.  Fusing the curve into the cycle moves each cycle edge e to
    e' = e +- 1, weighted d_{e'} / theta(e, 1, e'), and replaces the triangle
    at each vertex by a tetrahedron, weighted
    tet(a, b, a', b', c, 1) / theta(a', b', c) (Kauffman-Lins)."""
    idx = {t: i for i, t in enumerate(tuples)}
    cycle = sorted({p for a, b, _ in vertices for p in (a, b)})
    out = zeros(params, len(tuples), len(tuples))
    for i, t in enumerate(tuples):
        for moved in product(*[(t[p] - 1, t[p] + 1) for p in cycle]):
            t2 = list(t)
            for p, v in zip(cycle, moved):
                t2[p] = v
            j = idx.get(tuple(t2))
            if j is None:
                continue
            num = den = params.one()
            for p in cycle:
                num = num * params.d_k(t2[p])
                den = den * theta(params, t[p], 1, t2[p])
            # a vertex listed twice (the theta cycle's pair) is computed once
            corners = {(a, b, c): (tet(params, t[a], t[b], t2[a], t2[b], t[c], 1),
                                   theta(params, t2[a], t2[b], t[c]))
                       for a, b, c in set(vertices)}
            for v in vertices:
                num = num * corners[v][0]
                den = den * corners[v][1]
            out[j][i] = num / den
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
        return None, _parallel_insertion(params, tup, [(0, 0, 1)]), None


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
    longitudes (parallel insertion along a loop edge); b2 runs through both
    handles and is a parallel insertion along the cycle of edges x, y in the
    theta-spine coordinates reached by one F-move on the bar, passing both
    theta vertices (x, y, f).
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
            return k_inv, _parallel_insertion(params, self.theta_basis(params), [(0, 1, 2)] * 2), k
        pos = 0 if curve == "b0" else 2
        return None, _parallel_insertion(params, tup, [(pos, pos, 1)]), None

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


def _boundary_count(name):
    """The number of boundary labels a supported surface takes."""
    counts = {"torus": 0, "punctured_torus": 1, "four_punctured_sphere": 4, "genus2": 0}
    if name not in counts:
        raise DomainError(f"unsupported surface {name!r}")
    return counts[name]


def surface_model(name, labels=()) -> SurfaceModel:
    count = _boundary_count(name)
    if len(labels) != count:
        raise DomainError(f"{name} takes {count} boundary label(s), got {len(labels)}")
    if name == "punctured_torus":
        return PuncturedTorus(labels[0])
    if name == "four_punctured_sphere":
        return FourPuncturedSphere(labels)
    return Torus() if name == "torus" else GenusTwo()


def _boundary_contexts(name, r):
    """All boundary-label choices of a surface at level r, lexicographic:
    labels 0..r-2 with even sum, the parity every admissible basis needs."""
    return [ls for ls in product(range(r - 1), repeat=_boundary_count(name)) if sum(ls) % 2 == 0]


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
    """'b0 b1 -b2' -> [('b0', 1), ('b1', 1), ('b2', -1)]; raises ValueError
    on a token that is a bare sign."""
    out = []
    for token in text.split():
        curve = token[1:] if token[0] in "+-" else token
        if not curve:
            raise ValueError(f"bad twist word {text!r}: {token!r} names no curve")
        out.append((curve, -1 if token[0] == "-" else 1))
    return out
