"""Projective mapping-class-group representations on spine bases.

Each supported surface is one entry of a table (`_surface`): its number of
boundary labels, a reference spine from `tqft`, and each curve as (moves,
target).  The target is the spine edge the curve encircles, whose labels are
a diagonal core, or a cycle of spine edges, whose core is the curve's
parallel insertion (a fusion operator with tetrahedral coefficients).  The
moves, a word in the changes of spine basis (Moore-Seiberg), give the frame
(left, core, right) around the core, each move a pair (K^{-1}, K) of column
forms (`linalg.columns`) with left = [K_1^{-1}, K_2^{-1}, ...] and
right = [..., K_2, K_1]:
- a spine edge: the F-move `_f_move`, blockwise K = F(a,b,c,d)^T with
  K^{-1} = F(b,c,d,a)^T, read off the same F-matrix by 6j orthogonality;
- "S": the Hopf S-matrix, K^{-1} = S and K = S/D;
- "+c" / "-c": the twist of curve c of the same surface, K^{-1} = T_c^{+-1},
  so the frame of a curve moved by a twist V is V . frame . V^{-1}.
`SurfaceModel` turns a frame into the curve operator left . C(core) . right
and the twist pair left . f(core) . right, where f(lambda_k) = mu_k^{+-1}:
read off a label core, and one exact Newton prefix pass shared by both signs
on a matrix core, each the packed product of the frame (`linalg`'s matrix
format).  No matrix is inverted by elimination.

`detect` finds the least level at which a word acts projectively
nontrivially on some boundary-label block, reading only the blocks of
dimension >= 2: on a block of dimension 1 every word is a nonzero scalar.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from operator import mul

from . import tqft
from .linalg import columns, mat_product, mat_trace, rows, scalar_of
from .recoupling import (encircle_eigenvalue, f_matrix, s_matrix, tet, theta,
                         theta_inverse, twist_coefficient)
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
    """The twist matrix of a curve and its inverse, as {row: Scalar}
    columns, from its curve operator C: the polynomials sending
    encircle_eigenvalue(k) to twist_coefficient(k)^{+-1}, in Newton form
    f(C) = sum_k c_k prod_{j<k} (C - lambda_j).  The coefficients come from
    the level memo.  Column j applies the prefix products to e_j as a
    sparse vector, which stays in the block of C that holds j, and each
    prefix serves both signs."""
    lams, coeffs = params.cached(("newton",), lambda: _newton_coefficients(params))
    zero = params.zero()
    pair = ([], [])
    for j in range(len(cmat)):
        vec, outs = {j: params.one()}, [{j: c[0]} for c in coeffs]
        for k in range(1, len(lams)):
            step = {}
            for t, x in vec.items():
                for i, y in cmat[t].items():
                    step[i] = step.get(i, zero) + y * x
                step[t] = step.get(t, zero) - lams[k - 1] * x
            vec = {i: x for i, x in step.items() if not x.is_zero()}
            for out, c in zip(outs, coeffs):
                for i, x in vec.items():
                    out[i] = out.get(i, zero) + c[k] * x
        for cols, out in zip(pair, outs):
            cols.append(out)
    return pair


def _is_labels(core):
    """A frame core is a label list or a matrix (a list of columns)."""
    return all(isinstance(k, int) for k in core)


def _framed(params, left, core, right):
    """left . core . right, as {row: Scalar} columns: the packed product of
    the frame's column forms, or the core itself in a frame with no moves."""
    if not left:
        return core
    return mat_product(params, left + [columns(core)] + right, len(core))


def _parallel_insertion(params, tuples, vertices):
    """C of a 1-labeled curve parallel to a cycle of the spine, on basis
    tuples of edge labels.  vertices lists each spine vertex the cycle
    passes as the tuple positions (a, b, c) of its two cycle edges and its
    third edge.  Fusing the curve into the cycle moves each cycle edge e to
    e' = e +- 1, weighted d_{e'} / theta(e, 1, e'), and replaces the triangle
    at each vertex by a tetrahedron, weighted
    tet(a, b, a', b', c, 1) / theta(a', b', c) (Kauffman-Lins).  Each weight
    is a product with a memoized theta inverse, and an entry the product of
    its weights.  Returns {row: Scalar} columns."""
    idx = {t: i for i, t in enumerate(tuples)}
    cycle = sorted({p for a, b, _ in vertices for p in (a, b)})
    out = [{} for _ in tuples]
    for i, t in enumerate(tuples):
        for moved in product(*[(t[p] - 1, t[p] + 1) for p in cycle]):
            t2 = list(t)
            for p, v in zip(cycle, moved):
                t2[p] = v
            j = idx.get(tuple(t2))
            if j is None:
                continue
            # a vertex listed twice (the theta cycle's pair) is computed once
            corners = {(a, b, c): tet(params, t[a], t[b], t2[a], t2[b], t[c], 1)
                       * theta_inverse(params, t2[a], t2[b], t[c])
                       for a, b, c in set(vertices)}
            out[i][j] = reduce(mul, [params.d_k(t2[p]) * theta_inverse(params, t[p], 1, t2[p])
                                     for p in cycle] + [corners[v] for v in vertices])
    return out


def _surface(name):
    """(boundary-label count, spine builder, curves) of a supported surface.
    The builder takes the boundary labels.  Each curve is (moves, target) as
    the module docstring describes: the moves applied in order, the target
    an encircled edge name or a tuple of the cycle's edges."""
    table = {
        # the meridian a bounds a disk in the solid torus; S takes it to the
        # longitude b, and the meridian twist V_a^{+-1} takes b to the
        # (1, +-1) curves c, d
        "torus": (0, lambda ls: tqft.torus_spine(),
                  {"a": ((), "a"), "b": (("S",), "a"), "c": (("+a", "S"), "a"),
                   "d": (("-a", "S"), "a")}),
        # the meridian a encircles the loop x, the longitude b runs along it
        "punctured_torus": (1, lambda ls: tqft.Spine(edges=["x"], vertices=[["x", "x", "p"]],
                                                     boundary={"p": ls[0]}),
                            {"a": ((), "x"), "b": ((), ("x",))}),
        # g_ij surrounds punctures i, j: the comb's middle edge for g12 and
        # g34, and after its F-move (pairing legs (2,3)(4,1)) for g23
        "four_punctured_sphere": (4, tqft.comb_spine,
                                  {"g12": ((), "m1"), "g23": (("m1",), "m1"),
                                   "g34": ((), "m1")}),
        # the chain: handle longitudes b0, b4 and meridians b1, b3 on the
        # dumbbell; b2 runs through both handles, the x, y cycle of the
        # theta spine that the bar's F-move reaches
        "genus2": (0, lambda ls: tqft.dumbbell_spine(),
                   {"b0": ((), ("x",)), "b1": ((), "x"), "b2": (("m",), ("x", "y")),
                    "b3": ((), "y"), "b4": ((), ("y",))}),
    }
    if name not in table:
        raise DomainError(f"unsupported surface {name!r}")
    return table[name]


def _check_curve(name, curves, curve):
    """Raise unless curve is one of a surface's curves (`_surface`)."""
    if curve not in curves:
        raise DomainError(f"unknown curve {curve!r} on {name}")


def _f_move(params, names, vertices, tuples, edge):
    """One F-move on the internal edge that joins the vertices (a, b, edge)
    and (c, d, edge).  tuples are basis vectors as labels of `names`.
    Returns the new vertices (b, c, edge) and (d, a, edge), the new basis
    tuples (blocks of the labels the move keeps in first-seen order, the new
    edge label ascending in each), and K = F(a,b,c,d)^T, which takes old
    coordinates to new, with K^{-1} = F(b,c,d,a)^T, both as {row: Scalar}
    columns.  K^{-1} is read off the
    same F-matrix by 6j orthogonality (Kauffman-Lins):
      F(b,c,d,a)[f][e] = F(a,b,c,d)[e][f] d_e theta(b,c,f) theta(a,d,f)
                         / (d_f theta(a,b,e) theta(c,d,e)),
    a row factor in e times a column factor in f."""
    at = [v for v in vertices if edge in v]
    (a, b), (c, d) = [[x for x in v if x != edge] for v in at]
    moved = [v for v in vertices if edge not in v] + [[b, c, edge], [d, a, edge]]
    pos = [names.index(x) for x in (a, b, c, d)]
    pe = names.index(edge)
    blocks = {}
    for j, t in enumerate(tuples):
        blocks.setdefault(t[:pe] + t[pe + 1:], []).append(j)
    new = []
    k, k_inv = [{} for _ in tuples], [{} for _ in tuples]
    for js in blocks.values():
        t = tuples[js[0]]
        la, lb, lc, ld = (t[p] for p in pos)
        # coordinates transform covariantly, w_f = sum_e six_j(.., e, f) v_e
        es, fs, f = f_matrix(params, la, lb, lc, ld)
        if len(es) != len(fs):
            raise DomainError("channel bases have different dimensions")
        row = [params.d_k(e) * theta_inverse(params, la, lb, e) * theta_inverse(params, lc, ld, e)
               for e in es]
        col = [theta(params, lb, lc, fv) * theta(params, la, ld, fv) * params.inverse_d_k(fv)
               for fv in fs]
        for fi, fv in enumerate(fs):
            i = len(new)
            new.append(t[:pe] + (fv,) + t[pe + 1:])
            for j in js:
                ei = es.index(tuples[j][pe])
                k[j][i] = f[ei][fi]
                k_inv[i][j] = f[ei][fi] * row[ei] * col[fi]
    return moved, new, k, k_inv


def _cycle_vertices(names, vertices, cycle):
    """The (a, b, c) tuple positions `_parallel_insertion` takes for each
    vertex a cycle of edges passes: a <= b its two cycle edges, c the third."""
    out = []
    for v in vertices:
        ends = sorted(names.index(x) for x in v if x in cycle)
        if len(ends) == 2:
            (third,) = [names.index(x) for x in v if x not in cycle]
            out.append((ends[0], ends[1], third))
    return out


class SurfaceModel:
    """A supported surface with its boundary labels, read from `_surface`:
    a reference spine, its basis, and the curves.  `_frame` turns a curve's
    table entry into its frame, and this class turns a frame into the curve
    operator and the twist matrices."""

    def __init__(self, name, labels=()):
        count, spine, curves = _surface(name)
        if len(labels) != count:
            raise DomainError(f"{name} takes {count} boundary label(s), got {len(labels)}")
        self.name, self.labels = name, tuple(labels)
        self.spine = spine(self.labels)
        self._curves = curves

    def basis(self, params):
        """The spine basis, memoized in the level memo: a model is fixed by
        its name and boundary labels."""
        return params.cached(("basis", self.name, self.labels),
                             lambda: tqft.basis(params, self.spine))

    def dim(self, params):
        return len(self.basis(params))

    def _frame(self, params, curve):
        """(left, core, right) of a curve, as the module docstring describes:
        the table's moves give left and right, lists of column forms, and
        its target the core.  S and the twists keep the basis; an F-move
        changes it."""
        moves, target = self._curves[curve]
        names = list(self.spine.edges) + list(self.spine.boundary)
        vertices = self.spine.vertices
        tuples = [tuple(b[x] for x in self.spine.edges) + tuple(self.spine.boundary.values())
                  for b in self.basis(params)]
        left, right = [], []
        for move in moves:
            if move[0] in "+-":
                sign = 1 if move[0] == "+" else -1
                k_inv, k = (self.twist_columns(params, move[1:], e) for e in (sign, -sign))
            else:
                if move == "S":
                    k_inv = [dict(enumerate(col)) for col in zip(*s_matrix(params))]
                    inv_d = params.inverse_total_d_squared()
                    k = [{i: x * inv_d for i, x in col.items()} for col in k_inv]
                else:
                    vertices, tuples, k, k_inv = _f_move(params, names, vertices, tuples, move)
                k_inv, k = columns(k_inv), columns(k)
            left.append(k_inv)
            right.insert(0, k)
        if isinstance(target, str):
            pos = names.index(target)
            core = [t[pos] for t in tuples]
        else:
            core = _parallel_insertion(params, tuples, _cycle_vertices(names, vertices, target))
        return left, core, right

    def curve_operator(self, params, curve) -> RepMatrix:
        _check_curve(self.name, self._curves, curve)
        left, core, right = self._frame(params, curve)
        if _is_labels(core):
            core = [{i: encircle_eigenvalue(params, k)} for i, k in enumerate(core)]
        return RepMatrix(rows(params, _framed(params, left, core, right)), params.r,
                         self.name, self._label_context())

    def _twist_pair(self, params, curve):
        """(T, T^{-1}) for a curve in column form, each framed from its
        frame's core."""
        left, core, right = self._frame(params, curve)
        if _is_labels(core):
            pair = [[{i: twist_coefficient(params, k, e)} for i, k in enumerate(core)]
                    for e in (1, -1)]
        else:
            pair = _interp_pair(params, core)
        return tuple(columns(_framed(params, left, m, right)) for m in pair)

    def twist_columns(self, params, curve, sign):
        """The column form (`linalg.columns`) of T_curve^sign, sign +-1, from
        the level memo's one entry per curve, the pair (T, T^{-1}), which
        every model of the same name and boundary labels shares."""
        _check_curve(self.name, self._curves, curve)
        key = ("twist", self.name, self._label_context(), curve)
        return params.cached(key, lambda: self._twist_pair(params, curve))[0 if sign > 0 else 1]

    def twist_matrix(self, params, curve, power=1) -> RepMatrix:
        """T_curve^power, the product of one word letter (`represent`)."""
        return self.represent(params, [(curve, power)])

    def factors(self, params, word):
        """The column forms (`twist_columns`) whose product represents a
        word, a sequence of (curve name, exponent), leftmost first: the
        twist of sign +-1 repeated |exponent| times.  Each term reads its
        twist, so an unknown curve raises even under exponent 0."""
        out = []
        for curve, exp in word:
            out += [self.twist_columns(params, curve, -1 if exp < 0 else 1)] * abs(exp)
        return out

    def represent(self, params, word) -> RepMatrix:
        """The product of the word's factors (`linalg.mat_product`), the
        chain that detection probes column by column."""
        out = mat_product(params, self.factors(params, word), self.dim(params))
        return RepMatrix(rows(params, out), params.r, self.name, self._label_context())

    def _label_context(self):
        return self.labels


def surface_model(name, labels=()) -> SurfaceModel:
    return SurfaceModel(name, labels)


def _boundary_contexts(name, r):
    """All boundary-label choices of a surface at level r, lexicographic:
    labels 0..r-2 with even sum, the parity every admissible basis needs."""
    return [ls for ls in product(range(r - 1), repeat=_surface(name)[0]) if sum(ls) % 2 == 0]


def _live_blocks(params, name):
    """The boundary-label blocks of a surface that can witness at a level,
    in scan order, as (labels, model, dim): those of dimension >= 2.  A
    twist is invertible, so on a block of dimension 1 every word is a
    nonzero scalar."""
    out = []
    for ctx in _boundary_contexts(name, params.r):
        model = surface_model(name, ctx)
        n = model.dim(params)
        if n >= 2:
            out.append((ctx, model, n))
    return out


def detect(name, word, r_range, s=1) -> DetectionResult:
    """Scan r ascending; at each r, examine the surface's boundary-label
    blocks of dimension >= 2 (`_live_blocks`, one level-memo entry per
    surface, so no other block has its twists built) and report
    'nontrivial' when some block's matrix is not a nonzero Scalar multiple
    of the identity (the witness is that block's labels).  The word's
    curves are checked first, so an unknown curve raises even at a level
    with no block left or under exponent 0.  Each block is probed column
    by column on the column forms of the word's twists (`linalg.scalar_of`),
    so a nontrivial block is usually decided by its first column."""

    def probe(params):
        curves = _surface(name)[2]
        for curve, _ in word:
            _check_curve(name, curves, curve)
        for ctx, model, n in params.cached(("blocks", name), lambda: _live_blocks(params, name)):
            lam = scalar_of(params, model.factors(params, word), n)
            if lam is None or lam.is_zero():
                return ctx
        return None

    return scan_levels(r_range, s, probe)


def mapping_torus_trace(model: SurfaceModel, params: QuantumParams, word) -> Scalar:
    """Trace of the monodromy representation: the invariant of the mapping
    torus (well-defined up to the root-of-unity phase of represent)."""
    if model.spine.boundary:
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
