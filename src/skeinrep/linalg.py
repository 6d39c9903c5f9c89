"""Small exact linear algebra over the cyclotomic Scalars.

A matrix is the list of its columns, each a {row: Scalar} dict (a missing
row is zero), put in column form by `columns`.  `product_columns` runs a
product of linear maps in column form on packed residues, one column at a
time, on any hashable keys: matrix rows for the probe `scalar_of`, which
stops at the first column that is not lambda e_j, and for `mat_product`,
which decodes every column, and TL diagrams for every `tl` product.
`rows` writes the dense rows a `mcg.RepMatrix` leaves in, which
`mat_trace` reads; the rest serve the benchmark's checker.

A factor owns its packed columns and the product keeps none: a matrix
form (`Columns`) packs a column the first time a product reads it in a
ring and keeps it as long as the form lives, one copy per ring.  The forms
the level memo holds (twist pairs, sector generators) therefore pack once
per width for the life of the level, and a form made for one product dies
with it.
"""
from __future__ import annotations

from .scalars import PackedRing, QuantumParams, common_denominator


def zeros(params: QuantumParams, n: int, m: int):
    return [[params.zero() for _ in range(m)] for _ in range(n)]


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
    column j packed in ring, each column packed when a product first reads
    it and kept as long as the form lives: one copy per ring, and the level
    holds one ring per width."""

    __slots__ = ("cols", "_rings")

    def __init__(self, cols):
        self.cols = cols
        self._rings = {}

    def packed(self, ring):
        got = self._rings.get(ring)
        if got is None:
            got = self._rings[ring] = _Packed(self.cols, ring)
        return got


class _Packed(dict):
    """Packed columns of one ring, filled as they are read."""

    __slots__ = ("cols", "ring")

    def __init__(self, cols, ring):
        self.cols, self.ring = cols, ring

    def __missing__(self, j):
        pack = self.ring.pack
        col = self[j] = [(i, pack(v)) for i, v in self.cols[j]]
        return col


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
    (`PackedRing.segment`; CONVENTIONS.md, the column rule); a factor costs
    one integer multiply-add per nonzero entry it reads and one reduction
    per live key.  Under the bound an entry is zero exactly when its residue
    is, and every live entry is decoded at the end of each segment but the
    last.  The factors own their packed columns: the product keeps none."""
    chain = factors[::-1]
    for j in starts:
        vec, pos = {j: params.one()}, 0
        while True:
            den, nums = common_denominator(vec.values())
            k, ring = PackedRing.segment(params, sum(sum(map(abs, v)) for v in nums),
                                         (c for _, c, _ in chain[pos:]))
            mod = ring.n
            state = {i: ring.pack(v) for i, v in zip(vec, nums)}
            for factor_den, _, cols in chain[pos:pos + k]:
                col_at = cols.packed(ring)
                out = {}
                for t, z in state.items():
                    for i, v in col_at[t]:
                        out[i] = out.get(i, 0) + v * z
                state = {i: y for i, x in out.items() if (y := x % mod)}
                den *= factor_den
            pos += k
            if pos == len(chain):
                break
            vec = {i: ring.decode(z, den) for i, z in state.items()}
        yield state, ring, den


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


def sum_scalars(vals):
    acc = vals[0]
    for v in vals[1:]:
        acc = acc + v
    return acc


def mat_trace(a):
    return sum_scalars([a[i][i] for i in range(len(a))])


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
