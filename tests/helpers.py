"""Small helpers shared by the tests: raw polynomial arithmetic, rational
constants as Scalars, projective comparison of matrices, union-find
classes, and the reference product kernel of ``tests/test_scalar_kernel.py``.
The brute-force references of the paper's objects are in ``oracles.py``.
Nothing in the package imports this module."""
from fractions import Fraction

from skeinrep.scalars import Scalar, _part


def poly_sub(u, v):
    """u - v for raw Fraction coefficient sequences (no modular reduction)."""
    n = max(len(u), len(v))
    return tuple(
        (u[i] if i < len(u) else Fraction(0)) - (v[i] if i < len(v) else Fraction(0))
        for i in range(n)
    )


def poly_mul_raw(u, v):
    """u * v for raw Fraction coefficient sequences (no modular reduction)."""
    if not u or not v:
        return ()
    out = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                if vj:
                    out[i + j] += ui * vj
    return tuple(out)


def from_rational(params, q):
    """The rational constant q as a Scalar of params, read from its JSON
    form (coefficient q on A^0)."""
    coeffs = [str(Fraction(q))] + ["0"] * (params.phi - 1)
    return Scalar.from_json(params, {"cpow": 0, "coeffs": coeffs})


def from_int(params, n: int):
    """The integer constant n as a Scalar of params."""
    return from_rational(params, n)


def scalar_multiple_of(a, b):
    """If a = s*b for a Scalar s (b nonzero), return s; else None.

    Used for exact projective comparisons of representation matrices.
    """
    s = None
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if y.is_zero():
                if not x.is_zero():
                    return None
                continue
            ratio = x / y
            if s is None:
                s = ratio
            elif s != ratio:
                return None
    return s


def groups(uf, items):
    """The classes of a UnionFind among items, as lists in first-seen order,
    ordered by their first-seen member."""
    out = {}
    for x in dict.fromkeys(items):
        out.setdefault(uf.find(x), []).append(x)
    return list(out.values())


def reduction_table(self):
    """x^k mod Phi for k = phi .. 2*phi - 2, as the nonzero (i, coefficient)
    pairs of each row, used to reduce products."""
    rows = []
    cur = [0] * (self.phi - 1) + [1]
    for _ in range(self.phi - 1):
        cur = self._times_x(cur)
        rows.append(tuple((i, t) for i, t in enumerate(cur) if t))
    return rows


def poly_mul_reference(self, u, v):
    """Product of two nonzero parts.  Each numerator vector is packed into
    one integer, as signed digits of b bits with 2^(b-1) above every
    coefficient of the product; one big-integer multiply gives the
    2*phi - 1 product coefficients, which are reduced modulo Phi.

    The product kernel of ``QuantumParams`` before it reduced in the packed
    integer, kept as the reference of ``tests/test_scalar_kernel.py``; self
    is a QuantumParams."""
    (un, ud), (vn, vd) = u, v
    phi = self.phi
    b = max(map(abs, un)).bit_length() + max(map(abs, vn)).bit_length() + phi.bit_length() + 1
    x = y = 0
    for c in reversed(un):
        x = (x << b) + c
    for c in reversed(vn):
        y = (y << b) + c
    z = x * y
    mask, half, full = (1 << b) - 1, 1 << (b - 1), 1 << b
    digits = []
    for _ in range(2 * phi - 1):
        d = z & mask
        z >>= b
        if d >= half:
            d -= full
            z += 1
        digits.append(d)
    out = digits[:phi]
    for c, row in zip(digits[phi:], reduction_table(self)):
        if c:
            for i, t in row:
                out[i] += c * t
    return _part(out, ud * vd)
