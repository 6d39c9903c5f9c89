"""Small exact linear algebra over the cyclotomic Scalars.

Matrices are lists of lists of Scalar.  A product of generator matrices
reads them in column form and runs as packed residues, one column at a
time (`product_columns`): the detection probe `scalar_of` stops at the
first column that is not lambda e_j, and `mat_product` decodes every
column.  Everything is exact; no pivoting heuristics beyond picking the
first nonzero entry.
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
    """The column form (L, c, cols) of a square matrix of c-free Scalars:
    cols[j] lists the nonzero entries (i, numerators) of column j over L,
    the lcm of the entry denominators, and c is the largest l1 mass of a
    column of these numerators, the growth of a product by the matrix
    (CONVENTIONS.md, residue rule).  cols is a dict, which
    `QuantumParams.cached` shares between the roots of a level instead of
    walking it."""
    live = [(i, j) for i, row in enumerate(matrix) for j, x in enumerate(row) if not x.is_zero()]
    den, nums = common_denominator(matrix[i][j] for i, j in live)
    cols = {j: [] for j in range(len(matrix))}
    for (i, j), v in zip(live, nums):
        cols[j].append((i, v))
    return den, max((sum(sum(map(abs, v)) for _, v in col) for col in cols.values()),
                    default=0), cols


def product_columns(params: QuantumParams, factors, n: int):
    """The columns of the product F_1 ... F_L of n x n factors (leftmost
    first, each in column form, `columns`; at least one), one at a time:
    for each j, (col, ring, den) with col the sparse {row: residue} map of
    column j, F_1(F_2(...(F_L e_j))), whose live entries decode as
    ring.decode(residue, den).  A consumer that stops early reads no more
    columns.

    A factor multiplies the total l1 mass of the column by at most its
    column mass c, so a segment that starts at total mass M0 has
    B = mu * M0 * prod c and decodes over the product of the factors' L
    (`PackedRing.segment`; CONVENTIONS.md, the column rule); a factor costs
    one integer multiply-add per nonzero entry it reads and one reduction
    per live row.  Under the bound an entry is zero exactly when its residue
    is, and every live entry is decoded at the end of each segment but the
    last.  Each factor's column is packed when a column first reads it,
    once per ring width."""
    chain = factors[::-1]
    packed = {}
    for j in range(n):
        vec, pos = {j: params.one()}, 0
        while pos < len(chain):
            den, nums = common_denominator(vec.values())
            k, ring = PackedRing.segment(params, sum(sum(map(abs, v)) for v in nums),
                                         (c for _, c, _ in chain[pos:]))
            mod = ring.n
            state = {i: ring.pack(v) for i, v in zip(vec, nums)}
            for factor_den, _, cols in chain[pos:pos + k]:
                seen = packed.setdefault((id(cols), mod), {})
                out = [0] * n
                for t, z in state.items():
                    col = seen.get(t)
                    if col is None:
                        col = seen[t] = [(i, ring.pack(v)) for i, v in cols[t]]
                    for i, v in col:
                        out[i] += v * z
                state = {i: y for i, x in enumerate(out) if x and (y := x % mod)}
                den *= factor_den
            pos += k
            if pos < len(chain):
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
    if not factors:
        return lam
    for j, (col, ring, den) in enumerate(product_columns(params, factors, n)):
        if any(i != j for i in col):
            return None
        diag = ring.decode(col.get(j, 0), den)
        if j == 0:
            lam = diag
        elif diag != lam:
            return None
    return lam


def mat_product(params: QuantumParams, factors, n: int):
    """The n x n product of factors in column form (leftmost first), every
    live entry of each `product_columns` column decoded; an empty product
    is I."""
    if not factors:
        return eye(params, n)
    out = zeros(params, n, n)
    for j, (col, ring, den) in enumerate(product_columns(params, factors, n)):
        for i, z in col.items():
            out[i][j] = ring.decode(z, den)
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
