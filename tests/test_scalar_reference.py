"""Differential test of the integer scalar core against a plain Fraction
reference: schoolbook products reduced by a table of x^k mod Phi, and
inverses by the extended Euclidean algorithm, on the coefficient vectors."""
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from helpers import poly_divmod, poly_mul_raw, poly_sub, poly_trim, scalar_from_json
from skeinrep.scalars import Scalar, make_params


class Reference:
    """Q[x]/Phi on Fraction vectors; an element c^odd * v is a pair (odd, v),
    with c^2 = 1/D."""

    def __init__(self, params):
        self.phi, self.mod = params.phi, tuple(Fraction(c) for c in params._cyclo)
        self.red, cur = [], [-c for c in self.mod[:-1]]  # x^phi mod Phi
        for _ in range(self.phi - 1):
            self.red.append(cur)
            cur = [Fraction(0)] + cur[:-1]
            cur = [a + self.red[-1][-1] * b for a, b in zip(cur, self.red[0])]
        self.d = vec(params.total_d_squared().part, self.phi)
        self.inv_d = self.inv(self.d)

    def mul(self, u, v):
        prod = list(poly_mul_raw(u, v))
        for k in range(self.phi, len(prod)):
            prod[:self.phi] = [a + prod[k] * b for a, b in zip(prod, self.red[k - self.phi])]
        return tuple(prod[:self.phi])

    def inv(self, u):
        r0, r1, t0, t1 = self.mod, u, (Fraction(0),), (Fraction(1),)
        while poly_trim(r1):
            q, rem = poly_divmod(r0, r1)
            r0, r1, t0, t1 = r1, rem, t1, poly_sub(t0, poly_mul_raw(q, t1))
        full = poly_divmod(tuple(t / poly_trim(r0)[0] for t in t0), self.mod)[1]
        return full + (Fraction(0),) * (self.phi - len(full))

    def times(self, x, y):
        (a, u), (b, v) = x, y
        uv = self.mul(u, v)
        return a ^ b, self.mul(uv, self.inv_d) if a and b else uv

    def inverse(self, x):
        odd, u = x  # (c u)^-1 = c D / u
        return odd, self.mul(self.inv(u), self.d) if odd else self.inv(u)


def add(x, y):
    """Sum of two elements of one parity."""
    assert x[0] == y[0]
    return x[0], tuple(a + b for a, b in zip(x[1], y[1]))


def neg(x):
    return x[0], tuple(-a for a in x[1])


def vec(part, phi):
    if part is None:
        return (Fraction(0),) * phi
    nums, den = part
    return tuple(Fraction(n, den) for n in nums)


def as_pair(x: Scalar):
    return x.odd, vec(x.part, x.params.phi)


def from_pair(params, pair):
    odd, v = pair
    return scalar_from_json(params, {"cpow": odd, "coeffs": [str(q) for q in v]})


def assert_canonical(x: Scalar):
    if x.part is None:
        assert x.odd == 0
    else:
        nums, den = x.part
        assert den > 0 and gcd(den, *nums) == 1 and any(nums), x.part


def random_vec(rng, phi):
    kind = rng.choice(["zero", "small", "sparse", "large"])
    if kind == "zero":
        return (Fraction(0),) * phi
    if kind == "small":
        return tuple(Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])) for _ in range(phi))
    if kind == "sparse":
        out = [Fraction(0)] * phi
        out[rng.randrange(phi)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5))
        return tuple(out)
    out = [Fraction(0)] * phi
    for i in rng.sample(range(phi), 2):
        out[i] = Fraction(rng.randint(-2 ** 64, 2 ** 64), rng.randint(1, 2 ** 40))
    return tuple(out)


def random_pair(rng, phi, odd):
    """A nonzero element of parity odd."""
    v = random_vec(rng, phi)
    return odd, v if any(v) else (Fraction(1, 3),) + v[1:]


@pytest.mark.parametrize("r", range(3, 9))
def test_core_matches_fraction_reference(r):
    """Sums and differences of two elements of one parity, products with
    either parity, and inverses of both parities."""
    rng = random.Random(7919 * r)
    for s in (1, 2 * r + 1):
        params = make_params(r, s)
        ref = Reference(params)
        for _ in range(6):
            odd = rng.randint(0, 1)
            px, py, pw = (random_pair(rng, params.phi, o) for o in (odd, odd, 1 - odd))
            x, y, w = (from_pair(params, p) for p in (px, py, pw))
            assert as_pair(x) == px and as_pair(w) == pw
            cases = [(x + y, add(px, py)),
                     (x - y, add(px, neg(py))),
                     (x * y, ref.times(px, py)),
                     (x * w, ref.times(px, pw)),
                     (x.inverse(), ref.inverse(px)),
                     (w.inverse(), ref.inverse(pw))]
            for got, (cp, v) in cases:
                assert_canonical(got)
                want = (cp if any(v) else 0, v)
                assert as_pair(got) == want
                want_json = {"cpow": want[0], "coeffs": [str(q) for q in v]}
                assert json.dumps(got.to_json()) == json.dumps(want_json)
