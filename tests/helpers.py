"""Helpers shared by the tests and used by nothing in the package."""
from fractions import Fraction


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
