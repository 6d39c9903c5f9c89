"""Small exact linear algebra over the cyclotomic Scalars.

Matrices are lists of lists of Scalar.  Everything is exact; no pivoting
heuristics beyond picking the first nonzero entry.
"""
from __future__ import annotations

from .scalars import QuantumParams


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


def mat_vec(a, v):
    # as in mat_mul, zeros are skipped: of v once per call, of a per row
    live = [j for j, x in enumerate(v) if not x.is_zero()]
    zero = v[0].params.zero() if v else None
    out = []
    for row in a:
        acc = None
        for j in live:
            x = row[j]
            if x.is_zero():
                continue
            term = x * v[j]
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else zero)
    return out


def scalar_of(params: QuantumParams, factors, n: int):
    """lambda when the product of the n x n factors (leftmost first) is
    exactly lambda * I, else None.  Column j of the product is
    F_1(F_2(...(F_L e_j))), one mat_vec per factor, and the scan stops at
    the first column that is not lambda e_j for the lambda of column 0; so a
    product that is not scalar is usually decided by its first column.  An
    empty product is I, and n = 0 gives one, as an empty matrix is."""
    lam = params.one()
    for j in range(n):
        col = [params.zero()] * n
        col[j] = params.one()
        for f in reversed(factors):
            col = mat_vec(f, col)
        if j == 0:
            lam = col[0]
        if col[j] != lam or any(not x.is_zero() for i, x in enumerate(col) if i != j):
            return None
    return lam


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
