"""Differential test of the integer scalar core against a plain Fraction
reference: schoolbook products reduced by a table of x^k mod Phi, and
inverses by the extended Euclidean algorithm, on the coefficient vectors."""
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from helpers import poly_mul_raw, poly_sub
from skeinrep.scalars import Scalar, _poly_divmod, _poly_trim, make_params


class Reference:
    """Q[x]/Phi on Fraction vectors; an element is a pair (base, cpart)."""

    def __init__(self, params):
        self.phi, self.mod = params.phi, tuple(Fraction(c) for c in params._cyclo)
        self.red, cur = [], [-c for c in self.mod[:-1]]  # x^phi mod Phi
        for _ in range(self.phi - 1):
            self.red.append(cur)
            cur = [Fraction(0)] + cur[:-1]
            cur = [a + self.red[-1][-1] * b for a, b in zip(cur, self.red[0])]
        self.inv_d = self.inv(vec(params.total_d_squared().base, self.phi))

    def mul(self, u, v):
        prod = list(poly_mul_raw(u, v))
        for k in range(self.phi, len(prod)):
            prod[:self.phi] = [a + prod[k] * b for a, b in zip(prod, self.red[k - self.phi])]
        return tuple(prod[:self.phi])

    def inv(self, u):
        r0, r1, t0, t1 = self.mod, u, (Fraction(0),), (Fraction(1),)
        while _poly_trim(r1):
            q, rem = _poly_divmod(r0, r1)
            r0, r1, t0, t1 = r1, rem, t1, poly_sub(t0, poly_mul_raw(q, t1))
        full = _poly_divmod(tuple(t / _poly_trim(r0)[0] for t in t0), self.mod)[1]
        return full + (Fraction(0),) * (self.phi - len(full))

    def times(self, x, y):
        (a0, a1), (b0, b1) = x, y
        return (add(self.mul(a0, b0), self.mul(self.mul(a1, b1), self.inv_d)),
                add(self.mul(a0, b1), self.mul(a1, b0)))

    def inverse(self, x):
        a0, a1 = x  # (a0 + c a1)^-1 = (a0 - c a1) / (a0^2 - a1^2 / D)
        norm = add(self.mul(a0, a0), neg(self.mul(self.mul(a1, a1), self.inv_d)))
        return self.times((a0, neg(a1)), (self.inv(norm), (Fraction(0),) * self.phi))


def add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def neg(u):
    return tuple(-a for a in u)


def vec(part, phi):
    if part is None:
        return (Fraction(0),) * phi
    nums, den = part
    return tuple(Fraction(n, den) for n in nums)


def as_pair(x: Scalar):
    return vec(x.base, x.params.phi), vec(x.cpart, x.params.phi)


def from_pair(params, pair):
    base, cpart = (Scalar.from_json(params, {"cpow": cp, "coeffs": [str(q) for q in v]})
                   for cp, v in enumerate(pair))
    return base + cpart


def assert_canonical(x: Scalar):
    for part in (x.base, x.cpart):
        if part is not None:
            nums, den = part
            assert den > 0 and gcd(den, *nums) == 1 and any(nums), part


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


def random_pair(rng, phi):
    pair = (random_vec(rng, phi), random_vec(rng, phi))
    return pair if any(pair[0]) or any(pair[1]) else ((Fraction(1, 3),) + pair[0][1:], pair[1])


@pytest.mark.parametrize("r", range(3, 9))
def test_core_matches_fraction_reference(r):
    rng = random.Random(7919 * r)
    for s in (1, 2 * r + 1):
        params = make_params(r, s)
        ref = Reference(params)
        for _ in range(6):
            px, py = random_pair(rng, params.phi), random_pair(rng, params.phi)
            x, y = from_pair(params, px), from_pair(params, py)
            assert as_pair(x) == px
            cases = [(x + y, (add(px[0], py[0]), add(px[1], py[1]))),
                     (x - y, (add(px[0], neg(py[0])), add(px[1], neg(py[1])))),
                     (x * y, ref.times(px, py)),
                     (x.inverse(), ref.inverse(px))]
            for got, want in cases:
                assert_canonical(got)
                assert as_pair(got) == want
                for cp, v in enumerate(want):
                    if not any(want[1 - cp]):  # pure elements have a JSON form
                        want_json = {"cpow": cp if any(v) else 0, "coeffs": [str(q) for q in v]}
                        assert json.dumps(got.to_json()) == json.dumps(want_json)
