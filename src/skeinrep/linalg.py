"""Small exact linear algebra over the cyclotomic Scalars.

A matrix is the list of its columns, each a {row: Scalar} dict (a missing
row is zero), put in column form by `columns`.  `product_columns` runs a
product of linear maps in column form on packed residues, one column at a
time, on any hashable keys: matrix rows for the probe `scalar_of`, which
stops at the first column that is not lambda e_j, and for `mat_product`,
which decodes every column, and TL diagrams for every `tl` product.
`rows` writes the dense rows a `mcg.RepMatrix` leaves in, which
`mat_trace` reads; the rest serve the benchmark's checker.

A factor owns its packed columns and the product keeps none: a factor
hands out one holder per ring (`BoundedMemo`), which builds a column the
first time a product reads it in that ring and keeps it as long as the
factor lives (`Columns` for a matrix, `tl._Times` on diagram keys).  The
forms the level memo holds (twist pairs, sector generators, braid
letters) therefore pack each column once per width for the life of the
level, and a form made for one product dies with it.  The holder has one
mode: it builds a missing value from its key and keeps it, bounded; the
level's skein sweep values are such a holder too, each value swept from
its key, the diagram.  A product finds its first segment once for all its
columns, since every column starts at a unit vector.  `next_segment`
alone cuts every packed chain, these products and the skein sweep, into
segments and picks each one's ring: it decodes the values at the end of a
segment and packs them again in the ring of the next.
"""
from __future__ import annotations

from math import prod

from .scalars import QuantumParams, common_denominator


def zeros(params: QuantumParams, n: int, m: int):
    """An n x m matrix of zeros, every entry the one zero: a Scalar is
    immutable."""
    zero = params.zero()
    return [[zero] * m for _ in range(n)]


def eye(params: QuantumParams, n: int):
    out = zeros(params, n, n)
    for i in range(n):
        out[i][i] = params.one()
    return out


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    if a and len(a[0]) != k:
        raise ValueError("shape mismatch")
    zero = a[0][0].params.zero() if n and m else None
    out = []
    for i in range(n):
        row_a = a[i]
        # exact matrices are often banded or block-structured: skip zeros
        live = [t for t in range(k) if not row_a[t].is_zero()]
        row = []
        for j in range(m):
            acc = None
            for t in live:
                bt = b[t][j]
                if bt.is_zero():
                    continue
                term = row_a[t] * bt
                acc = term if acc is None else acc + term
            row.append(acc if acc is not None else zero)
        out.append(row)
    return out


def columns(matrix):
    """The column form (L, c, cols) of a square matrix of c-free Scalars
    (a list of {row: Scalar} columns): cols.cols[j] lists the nonzero
    entries (i, numerators) of column j over L, the lcm of the entry
    denominators, and c is the largest l1 mass of a column of these
    numerators, the growth of a product by the matrix (CONVENTIONS.md,
    residue rule)."""
    live = [(i, j, x) for j, col in enumerate(matrix) for i, x in col.items() if not x.is_zero()]
    den, nums = common_denominator(x for _, _, x in live)
    cols = [[] for _ in matrix]
    for (i, j, _), v in zip(live, nums):
        cols[j].append((i, v))
    return den, max((sum(sum(map(abs, v)) for _, v in col) for col in cols), default=0), Columns(cols)


class Columns:
    """The columns of a matrix column form, cols[j] the entries
    (i, numerators) of column j.  ``packed(ring)`` is the mapping from j to
    column j packed in ring (`BoundedMemo`): one copy per ring, and the
    level holds one ring per width."""

    __slots__ = ("cols", "_rings")

    def __init__(self, cols):
        self.cols = cols
        self._rings = {}

    def packed(self, ring):
        got = self._rings.get(ring)
        if got is None:
            cols, pack = self.cols, ring.pack
            got = self._rings[ring] = BoundedMemo(lambda j: [(i, pack(v)) for i, v in cols[j]],
                                                  len(cols))
        return got


class BoundedMemo(dict):
    """A memo that builds a missing key's value by build(t) and keeps it,
    emptied when it holds limit entries, before it keeps the next, so a
    memo on an unbounded key set stays bounded: a factor's packed columns
    in one ring, and the level's sweep values (``skein._sweeps``), whose
    key is the diagram swept."""

    __slots__ = ("build", "limit")

    def __init__(self, build, limit):
        self.build, self.limit = build, limit

    def __missing__(self, t):
        value = self.build(t)
        if len(self) >= self.limit:
            self.clear()
        self[t] = value
        return value


def product_columns(params: QuantumParams, factors, starts):
    """The columns of the product F_1 ... F_L of linear maps on hashable
    keys (leftmost first), one per start: for each key j of starts,
    (col, ring, den) with col the sparse {key: residue} map of
    F_1(F_2(...(F_L e_j))), whose live entries decode as
    ring.decode(residue, den); no factors give e_j.  A factor is a column
    form (L, c, cols): cols.packed(ring)[t] lists the entries (key,
    residue) of column t over L packed in ring (`Columns` for a matrix,
    `tl._Times` on diagram keys), and c bounds the l1 mass of their
    numerators.  Column t is read only at the keys t that a column
    reaches, so it may be built lazily.  A consumer that stops early reads
    no more columns.

    A factor multiplies the total l1 mass of the column by at most its
    column mass c, so a segment that starts at total mass M0 has
    B = mu * M0 * prod c and decodes over the product of the factors' L
    (`next_segment`; CONVENTIONS.md, the column rule); a factor costs one
    integer multiply-add per nonzero entry it reads and one reduction per
    live key.  Under the bound an entry is zero exactly when its residue
    is, and every live entry is decoded at the end of each segment but the
    last.  Every start is a unit vector of mass 1, so the first segment
    (its ring, the packed unit and the factors' packed maps) is found once
    for all starts.  The factors own their packed columns: the product
    keeps none."""
    chain = factors[::-1]
    growths = [c for _, c, _ in chain]

    def segment(pos, k, ring):
        """(packed maps, product of the L) of the k factors from pos, a
        segment run in ring."""
        part = chain[pos:pos + k]
        return [cols.packed(ring) for _, _, cols in part], prod(den for den, _, _ in part)

    k, ring0, _, (unit,) = next_segment(params, growths)
    first, den0 = segment(0, k, ring0)
    for j in starts:
        state, ring, maps, den, pos = {j: unit}, ring0, first, den0, 0
        while True:
            mod = ring.n
            for col_at in maps:
                out = {}
                for t, z in state.items():
                    for i, v in col_at[t]:
                        out[i] = out.get(i, 0) + v * z
                state = {i: y for i, x in out.items() if (y := x % mod)}
            pos += len(maps)
            if pos == len(chain):
                break
            k, ring, den, residues = next_segment(params, growths[pos:],
                                                  (ring, den, state.values()))
            maps, factor_dens = segment(pos, k, ring)
            den *= factor_dens
            state = dict(zip(state, residues))
        yield state, ring, den


def next_segment(params: QuantumParams, growths, values=None):
    """The next segment of a packed chain whose steps multiply the l1 mass
    by at most growths[0], growths[1], ...: (k, ring, den, residues), the
    segment's k steps run in ring on the residues over den (CONVENTIONS.md,
    the column rule).  k is the most steps whose bound
    mu * mass * prod growths[:k] stays below 2^62, the widest digit one
    Struct call packs, and the ring holds that mass; a first step beyond it
    is a segment of its own, packed wider, and no steps give k = 0.  values
    is (ring, den, residues) at the end of the previous segment: each
    residue is decoded over den and packed again over their lcm
    denominator, and the segment starts from their actual mass, so the
    width does not grow with the chain.  None starts at the unit 1, of
    mass 1, whose residue is 1 in every ring, with no decode."""
    mass, den, nums = 1, 1, None
    if values is not None:
        ring, den, residues = values
        den, nums = common_denominator([ring.decode(z, den) for z in residues])
        mass = sum(sum(map(abs, v)) for v in nums)
    k = 0
    for g in growths:
        if k and params._mu * mass * g >= 1 << 62:
            break
        mass *= g
        k += 1
    ring = params.ring(mass)
    return k, ring, den, [1] if nums is None else [ring.pack(v) for v in nums]


def scalar_of(params: QuantumParams, factors, n: int):
    """lambda when the product of the n x n factors (leftmost first, each in
    column form, `columns`) is exactly lambda * I, else None.  The scan of
    `product_columns` stops at the first column that is not lambda e_j for
    the lambda of column 0; so a product that is not scalar is usually
    decided by its first column.  The off-diagonal test reads residues, and
    only the diagonal entry is decoded.  An empty product is I, and n = 0
    gives one, as an empty matrix is."""
    lam = params.one()
    for j, (col, ring, den) in enumerate(product_columns(params, factors, range(n))):
        if any(i != j for i in col):
            return None
        diag = ring.decode(col.get(j, 0), den)
        if j == 0:
            lam = diag
        elif diag != lam:
            return None
    return lam


def mat_product(params: QuantumParams, factors, n: int):
    """The n x n product of factors in column form (leftmost first), as
    {row: Scalar} columns, every live entry of each `product_columns`
    column decoded; an empty product is I."""
    return [{i: ring.decode(z, den) for i, z in col.items()}
            for col, ring, den in product_columns(params, factors, range(n))]


def rows(params: QuantumParams, matrix):
    """The dense rows of a matrix given as {row: Scalar} columns."""
    out = zeros(params, len(matrix), len(matrix))
    for j, col in enumerate(matrix):
        for i, x in col.items():
            out[i][j] = x
    return out


def mat_trace(a):
    acc = a[0][0]
    for i in range(1, len(a)):
        acc = acc + a[i][i]
    return acc


def mat_inv(params: QuantumParams, a):
    """Gauss-Jordan inverse; raises ValueError on a singular matrix."""
    n = len(a)
    aug = [[a[i][j] for j in range(n)] + [params.one() if i == j else params.zero() for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def is_identity(params: QuantumParams, a):
    n = len(a)
    for i in range(n):
        for j in range(n):
            if i == j:
                if not a[i][j].is_one():
                    return False
            elif not a[i][j].is_zero():
                return False
    return True
