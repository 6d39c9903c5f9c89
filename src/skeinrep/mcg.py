"""Projective mapping-class-group representations on spine bases.

Each supported surface is one entry of a table (`_surface`): its number of
boundary labels, a reference spine from `tqft`, and each curve as (moves,
target).  Every curve is a meridian: after its moves, a word in the changes
of spine basis (Moore-Seiberg), it encircles the target spine edge, whose
labels are a diagonal core.  The moves give the frame (left, core, right)
around the core, each move a pair (K^{-1}, K) of column forms
(`linalg.columns`) with left = [K_1^{-1}, K_2^{-1}, ...] and
right = [..., K_2, K_1]:
- a spine edge: the F-move `_f_move`, blockwise K = F(a,b,c,d)^T with
  K^{-1} = F(b,c,d,a)^T, read off the same F-matrix by 6j orthogonality;
- "S" and a loop edge: the S-move `_s_move`, blockwise K^{-1} = S(c) and
  K = S(c)/D, the one-holed torus S-matrix (`recoupling.punctured_s`) of the
  third label c at the loop's vertex (0 on a free circle): the frame holds
  the one column form S(c) on both sides, and its core carries the factor
  D^-n for the frame's n S-moves;
- "+c" / "-c": the twist of curve c of the same surface, K^{-1} = T_c^{+-1},
  so the frame of a curve moved by a twist V is V . frame . V^{-1}.
`SurfaceModel` turns a frame into the curve operator left . C(core) . right
and the twist pair left . f(core) . right, where C(k) = lambda_k D^-n and
f(k) = mu_k^{+-1} D^-n, each the packed product of the frame (`linalg`'s
matrix format).  No matrix is inverted by elimination.

`detect` finds the least level at which a word acts projectively
nontrivially on some boundary-label block, reading only the blocks of
dimension >= 2: on a block of dimension 1 every word is a nonzero scalar.
"""
from __future__ import annotations

from itertools import product

from . import tqft
from .errors import DomainError
from .linalg import columns, mat_product, mat_trace, rows, scalar_of
from .recoupling import (encircle_eigenvalue, f_matrix, punctured_s, theta, theta_inverse,
                         twist_coefficient)
from .scalars import QuantumParams, Scalar, make_params


class RepMatrix:
    """A representation matrix as dense rows, with its level r, the surface
    it acts on and that surface's boundary labels."""
    __slots__ = ("matrix", "r", "surface", "labels")

    def __init__(self, matrix, r, surface, labels=()):
        self.matrix, self.r, self.surface, self.labels = matrix, r, surface, labels

    @property
    def dim(self):
        return len(self.matrix)


class DetectionResult:
    """The outcome of a level scan (`scan_levels`)."""
    __slots__ = ("r0", "verdicts", "witness")

    def __init__(self, r0, verdicts=None, witness=None):
        self.r0 = r0  # least r where projectively nontrivial, or None
        self.verdicts = {} if verdicts is None else verdicts  # r -> "nontrivial"|"trivial"
        self.witness = {} if witness is None else witness  # r -> probe witness, e.g. block labels


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


def _framed(params, left, diagonal, right):
    """left . diag(diagonal) . right, as {row: Scalar} columns: the packed
    product of the frame's column forms, or the diagonal itself in a frame
    with no moves."""
    core = [{i: x} for i, x in enumerate(diagonal)]
    if not left:
        return core
    return mat_product(params, left + [columns(core)] + right, len(core))


def _surface(name):
    """(boundary-label count, spine builder, curves) of a supported surface.
    The builder takes the boundary labels.  Each curve is (moves, target) as
    the module docstring describes: the moves applied in order, the target
    the edge name the curve encircles after them."""
    table = {
        # the meridian a bounds a disk in the solid torus; S takes it to the
        # longitude b, and the meridian twist V_a^{+-1} takes b to the
        # (1, +-1) curves c, d
        "torus": (0, lambda ls: tqft.torus_spine(),
                  {"a": ((), "a"), "b": (("Sa",), "a"), "c": (("+a", "Sa"), "a"),
                   "d": (("-a", "Sa"), "a")}),
        # the meridian a encircles the loop x; S on the loop takes it to the
        # longitude b, which runs along x
        "punctured_torus": (1, lambda ls: tqft.Spine(edges=["x"], vertices=[["x", "x", "p"]],
                                                     boundary={"p": ls[0]}),
                            {"a": ((), "x"), "b": (("Sx",), "x")}),
        # g_ij surrounds punctures i, j: the comb's middle edge for g12 and
        # g34, and after its F-move (pairing legs (2,3)(4,1)) for g23
        "four_punctured_sphere": (4, tqft.comb_spine,
                                  {"g12": ((), "m1"), "g23": (("m1",), "m1"),
                                   "g34": ((), "m1")}),
        # the chain: meridians b1, b3 of the loops x, y of the dumbbell, and
        # handle longitudes b0, b4, meridians after S on their loop; b2 runs
        # through both handles, and in the handlebody where b0 and b4 bound
        # disks (S on both loops) it is the bar's meridian after its F-move
        "genus2": (0, lambda ls: tqft.dumbbell_spine(),
                   {"b0": (("Sx",), "x"), "b1": ((), "x"), "b2": (("Sx", "Sy", "m"), "m"),
                    "b3": ((), "y"), "b4": (("Sy",), "y")}),
    }
    if name not in table:
        raise DomainError(f"unsupported surface {name!r}")
    return table[name]


def _check_curve(name, curves, curve):
    """Raise unless curve is one of a surface's curves (`_surface`)."""
    if curve not in curves:
        raise DomainError(f"unknown curve {curve!r} on {name}")


def _blocks(tuples, pos):
    """The indices of the basis tuples that agree off position pos, one
    list per block, in first-seen order: the blocks of a move on the edge
    at pos."""
    blocks = {}
    for j, t in enumerate(tuples):
        blocks.setdefault(t[:pos] + t[pos + 1:], []).append(j)
    return blocks.values()


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
    new = []
    k, k_inv = [{} for _ in tuples], [{} for _ in tuples]
    for js in _blocks(tuples, pe):
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


def _s_move(params, names, vertices, tuples, edge):
    """The S-move on a loop edge: blockwise S(c) (`recoupling.punctured_s`),
    where c is the third label at the loop's vertex, or 0 on a free circle,
    as {row: Scalar} columns.  It is K^{-1}, and K = S/D: the frame uses S
    on both sides and carries the 1/D into its core.  The basis is kept."""
    pe = names.index(edge)
    third = [names.index(x) for v in vertices if v.count(edge) == 2 for x in v if x != edge]
    out = [{} for _ in tuples]
    for js in _blocks(tuples, pe):
        s = punctured_s(params, tuples[js[0]][third[0]] if third else 0)
        for j in js:
            for i in js:
                out[j][i] = s[tuples[i][pe], tuples[j][pe]]
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
        self._first_curve = {row: c for c, row in reversed(curves.items())}

    def basis(self, params):
        """The spine basis, memoized in the level memo: a model is fixed by
        its name and boundary labels."""
        return params.cached(("basis", self.name, self.labels),
                             lambda: tqft.basis(params, self.spine))

    def dim(self, params):
        return len(self.basis(params))

    def _frame(self, params, curve):
        """(left, core, factor, right) of a curve, as the module docstring
        describes: the table's moves give left and right, lists of column
        forms, its target's labels the core, and its n S-moves the core
        factor D^-n.  S and the twists keep the basis; an F-move changes
        it.  Each F- and S-move's column forms are built once per level and
        block, in the level memo under the surface, its labels, the F-moves
        before the move and the move, so every curve whose frame reads a
        move shares its forms and their packed columns."""
        moves, target = self._curves[curve]
        names = list(self.spine.edges) + list(self.spine.boundary)
        vertices = self.spine.vertices
        tuples = [tuple(b[x] for x in self.spine.edges) + tuple(self.spine.boundary.values())
                  for b in self.basis(params)]
        left, right, f_moves, s_moves = [], [], (), 0
        for move in moves:
            key = ("move", self.name, self.labels, f_moves, move)
            if move[0] in "+-":
                sign = 1 if move[0] == "+" else -1
                k_inv, k = (self.twist_columns(params, move[1:], e) for e in (sign, -sign))
            elif move[0] == "S":
                k_inv = k = params.cached(key, lambda: columns(
                    _s_move(params, names, vertices, tuples, move[1:])))
                s_moves += 1
            else:
                def f_columns():
                    moved, new, k, k_inv = _f_move(params, names, vertices, tuples, move)
                    return moved, new, columns(k), columns(k_inv)
                vertices, tuples, k, k_inv = params.cached(key, f_columns)
                f_moves += (move,)
            left.append(k_inv)
            right.insert(0, k)
        pos = names.index(target)
        factor = params.inverse_total_d_squared() ** s_moves if s_moves else params.one()
        return left, [t[pos] for t in tuples], factor, right

    def curve_operator(self, params, curve) -> RepMatrix:
        _check_curve(self.name, self._curves, curve)
        left, core, factor, right = self._frame(params, curve)
        diagonal = [encircle_eigenvalue(params, k) * factor for k in core]
        return RepMatrix(rows(params, _framed(params, left, diagonal, right)), params.r,
                         self.name, self._label_context())

    def _twist_pair(self, params, curve):
        """(T, T^{-1}) for a curve in column form, each framed from its
        frame's core: mu_k^{+-1} times the frame's factor D^-n on each
        label k."""
        left, core, factor, right = self._frame(params, curve)
        return tuple(columns(_framed(params, left, [twist_coefficient(params, k, e) * factor
                                                    for k in core], right)) for e in (1, -1))

    def twist_columns(self, params, curve, sign):
        """The column form (`linalg.columns`) of T_curve^sign, sign +-1, from
        the level memo's one entry per row of the surface's table, the pair
        (T, T^{-1}), which every model of the same name and boundary labels
        shares.  Curves with the same row (the sphere's g12 and g34) are the
        same twist, so the entry is keyed by the first curve with the row."""
        _check_curve(self.name, self._curves, curve)
        first = self._first_curve[self._curves[curve]]
        key = ("twist", self.name, self._label_context(), first)
        return params.cached(key, lambda: self._twist_pair(params, first))[0 if sign > 0 else 1]

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
    nonzero scalar.  Every block's dimension is counted in one pass over
    the reference spine with its legs free (`tqft.block_dims`); a model is
    made only for the blocks kept, and a block's basis is built when its
    twists are (`SurfaceModel.basis`)."""
    count, spine, _ = _surface(name)
    dims = tqft.block_dims(params, spine((0,) * count))
    return [(ctx, SurfaceModel(name, ctx), dims[ctx])
            for ctx in _boundary_contexts(name, params.r) if dims[ctx] >= 2]


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
