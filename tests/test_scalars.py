import json
import math
import random
from fractions import Fraction

import pytest

from helpers import (cyclotomic_table, from_int, from_rational, poly_divmod, poly_mul_raw,
                     poly_sub, poly_trim, scalar_from_json)
from skeinrep.scalars import QuantumParams, Scalar, _cyclotomic_coeffs, _part, make_params


RS = [3, 4, 5, 6]


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(2)
    with pytest.raises(ValueError):
        make_params(5, s=2)  # s must be odd (A primitive 4r-th root)
    with pytest.raises(ValueError):
        make_params(5, s=5)  # gcd(s, 4r) must be 1


def test_params_interned():
    p = QuantumParams(5, 1)
    assert make_params(5) is p
    assert QuantumParams(5, 3) is not p


@pytest.mark.parametrize("r, s", [(2, 1), (5, 2), (5, 5), (5, 20)])
def test_rejected_params_not_stored(r, s):
    with pytest.raises(ValueError):
        QuantumParams(r, s)
    assert (r, s) not in QuantumParams._interned


def test_cached_builds_once_per_key():
    p = make_params(5)
    builds = []

    def build():
        builds.append(1)
        return object()

    first = p.cached(("test-only", 1), build)
    assert p.cached(("test-only", 1), build) is first
    assert p.cached(("test-only", 2), build) is not first
    assert len(builds) == 2


def test_scalars_from_different_levels_do_not_mix():
    a = make_params(5, 1).a_pow(1)
    b = make_params(6, 1).a_pow(1)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a == b
    for root in (make_params(6, 1), make_params(6, 5)):
        with pytest.raises(ValueError):
            a.embed(root)
    with pytest.raises(ValueError):
        make_params(5).zero().embed(make_params(6))


def test_every_root_builds_at_its_level():
    level = make_params(5, 1)
    for s in (1, 3, 7, 9):
        p = make_params(5, s)
        assert p.level is level
        built = (p.zero(), p.one(), p.a_pow(3), p.c_symbol(), p.quantum_int(2),
                 scalar_from_json(p, p.a_pow(1).to_json()))
        assert all(x.params is level for x in built)
    assert make_params(5, 3).a_pow(1) == level.a_pow(1)


def test_c_embeds_at_its_own_root(fresh_contexts):
    # (5, 3) shares the level memo of (5, 1), which has embedded a c-odd value
    # first; c is a float of its own root, not a memoized exact value
    p1, p3 = make_params(5, 1), make_params(5, 3)
    assert p1.c_symbol().embed(p1).real > 0
    D = p3.total_d_squared().embed(p3)
    assert p3.c_symbol().embed(p3) == pytest.approx(1 / math.sqrt(D.real), rel=1e-12)


def test_poly_divmod_random():
    rng = random.Random(20260)

    def poly(deg):
        return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg)) \
            + (Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)),)

    for _ in range(200):
        u = poly(rng.randint(0, 12))
        v = poly(rng.randint(0, 6))
        q, rem = poly_divmod(u, v)
        assert len(rem) < len(v) and (not rem or rem[-1])  # deg rem < deg v
        assert poly_trim(poly_sub(u, poly_mul_raw(q, v))) == rem  # u = q*v + rem


@pytest.mark.parametrize("r", RS)
def test_root_of_unity_order(r):
    p = make_params(r)
    a = p.a_pow(1)
    assert (a ** (4 * r)).is_one()
    for k in range(1, 4 * r):
        assert not (a ** k).is_one(), f"A^{k} = 1: not primitive"


@pytest.mark.parametrize("r", RS)
def test_loop_value(r):
    p = make_params(r)
    d = p.loop_d()
    assert d == -(p.a_pow(2) + p.a_pow(-2))
    expected = -2 * math.cos(math.pi / r)
    assert abs(d.embed(p) - expected) < 1e-12


@pytest.mark.parametrize("r", RS)
def test_quantum_integers(r):
    p = make_params(r)
    for n in range(1, r):
        assert not p.quantum_int(n).is_zero()
    assert p.quantum_int(r).is_zero()
    assert p.quantum_int(1).is_one()
    # [2] = A^2 + A^{-2}
    assert p.quantum_int(2) == p.a_pow(2) + p.a_pow(-2)


@pytest.mark.parametrize("r", RS)
def test_c_symbol(r):
    p = make_params(r)
    c = p.c_symbol()
    D = p.total_d_squared()
    assert (c * c * D).is_one()
    # c and c^2 = 1/D are not one: is_one reads the parity and the part
    assert p.one().is_one() and not c.is_one() and not (c * c).is_one()
    # numerically c = 1/sqrt(D) > 0
    assert abs(c.embed(p) - 1 / math.sqrt(D.embed(p).real)) < 1e-12


@pytest.mark.parametrize("r", RS)
def test_field_ops(r):
    """Inverses, cancellation and distributivity for every pair of
    parities; a product's parity is the sum of its factors'."""
    p = make_params(r)
    c = p.c_symbol()
    x = p.a_pow(3) + from_rational(p, Fraction(2, 7))
    y = p.a_pow(-1) + from_int(p, 1)
    for u, v in ((x, y), (c * x, y), (x, c * y), (c * x, c * y)):
        for w in (u, v, u * v):
            assert (w * w.inverse()).is_one() and (w / w).is_one()
        assert (u - u).is_zero() and (u - u) == p.zero()
        assert u * (v + v) == u * v + u * v
        assert (u * v).to_json()["cpow"] == (u.to_json()["cpow"] + v.to_json()["cpow"]) % 2
    assert (c * x) * (c * y) == x * y * p.total_d_squared().inverse()


def test_pow_product_count(monkeypatch):
    """x ** e costs floor(log2 e) + popcount(e) - 1 products, x ** 0 none,
    and equals the repeated product."""
    p = make_params(5)
    x = p.a_pow(3) + from_rational(p, Fraction(2, 7))
    calls = []
    poly_mul = QuantumParams._poly_mul

    def counting(self, u, v):
        calls.append(1)
        return poly_mul(self, u, v)

    want = p.one()
    powers = []
    for e in range(9):
        powers.append(want)
        want = want * x
    monkeypatch.setattr(QuantumParams, "_poly_mul", counting)
    for e, products in ((0, 0), (1, 0), (2, 1), (3, 2), (8, 3)):
        calls.clear()
        assert x ** e == powers[e]
        assert len(calls) == products, e
    assert (x ** -3) * powers[3] == p.one()


@pytest.mark.parametrize("r", RS)
def test_json_roundtrip(r):
    p = make_params(r)
    vals = [p.zero(), p.one(), p.a_pow(5), p.c_symbol() * p.a_pow(2), p.d_k(1)]
    for v in vals:
        blob = json.dumps(v.to_json())
        assert scalar_from_json(p, json.loads(blob)) == v


def test_mixed_parity_sum_raises():
    """A sum of nonzero elements of different c-parity has no Scalar; zero
    plus an element of either parity is that element, and a difference that
    cancels is the even zero."""
    p = make_params(5)
    c = p.c_symbol()
    for even, odd in ((p.one(), c), (p.a_pow(3), c * p.a_pow(-2))):
        with pytest.raises(ValueError):
            even + odd
        with pytest.raises(ValueError):
            odd - even
        for x in (even, odd):
            assert p.zero() + x == x and x + p.zero() == x
            assert (x + p.zero()).to_json() == x.to_json()
    assert c.to_json()["cpow"] == 1 and p.one().to_json()["cpow"] == 0
    assert c - c == p.zero() and (c - c).to_json()["cpow"] == 0


@pytest.mark.parametrize("r", RS)
def test_d_k_values(r):
    p = make_params(r)
    assert p.d_k(0).is_one()
    assert p.d_k(1) == p.loop_d()
    for k in range(r - 1):
        # d_k = (-1)^k [k+1]
        expect = p.quantum_int(k + 1)
        if k % 2:
            expect = -expect
        assert p.d_k(k) == expect


def test_cyclotomic_coeffs_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in range(1, 201):
        poly = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
        assert _cyclotomic_coeffs(n) == tuple(int(v) for v in reversed(poly.all_coeffs())), n


def test_cyclotomic_coeffs_match_divisor_oracle():
    # no sympy needed: x^n - 1 divided by Phi_d over the proper divisors d
    table = cyclotomic_table(400)
    for n, want in table.items():
        got = _cyclotomic_coeffs(n)
        assert got == tuple(int(v) for v in want), n
        totient = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert len(got) == totient + 1 and got[-1] == 1, n


def seeded_scalars(rng, p):
    """Scalars of the level of p: zero, small, sparse with negative
    numerators, and 90-bit numerators over up to 40-bit denominators, each
    kind at both c-parities."""
    phi = p.phi
    out = [p.zero()]
    for odd in (0, 1):
        small = [rng.randint(-3, 3) for _ in range(phi)]
        sparse = [0] * phi
        for i in rng.sample(range(phi), min(3, phi)):
            sparse[i] = -rng.randint(1, 9)
        wide = [rng.randint(-2 ** 90, 2 ** 90) for _ in range(phi)]
        for nums, den in ((small, rng.choice([1, 2, 6])), (sparse, rng.randint(1, 50)),
                          (wide, rng.randint(1, 2 ** 40)), ([-n for n in wide], 1)):
            part = _part(nums, den)
            out.append(Scalar(p.level, part, odd if part else 0))
    return out


def fraction_horner(x: Scalar, root):
    """The float embedding of x at root computed through Fraction, c as
    the positive real root of 1/D."""
    if x.is_zero():
        return 0j
    nums, den = x.part
    angle = 2 * math.pi * root.s / root.order
    z, acc = complex(math.cos(angle), math.sin(angle)), 0j
    for n in reversed(nums):
        acc = acc * z + complex(Fraction(n, den))
    if not x.odd:
        return acc
    D = fraction_horner(root.total_d_squared(), root)
    return acc * (1.0 / math.sqrt(D.real))


@pytest.mark.parametrize("r", range(3, 13))
def test_text_and_float_forms_match_fraction(r):
    rng = random.Random(4000 + r)
    p = make_params(r)
    roots = [p] + [make_params(r, s) for s in (2 * r - 1, 4 * r - 1) if math.gcd(s, 4 * r) == 1]
    for x in seeded_scalars(rng, p):
        obj = x.to_json()
        nums, den = x.part or ((0,) * p.phi, 1)
        assert obj["coeffs"] == [str(Fraction(n, den)) for n in nums]
        assert obj["cpow"] == x.odd
        assert scalar_from_json(p, json.loads(json.dumps(obj))) == x
        for root in roots:
            # repr tells the signs of zeros apart
            assert repr(x.embed(root)) == repr(fraction_horner(x, root))


def test_from_json_reads_unreduced_ratios():
    p = make_params(3)
    coeffs = ["6/4", "-0/7", "-10/5", "3"][:p.phi]
    x = scalar_from_json(p, {"cpow": 1, "coeffs": coeffs})
    assert x.to_json() == {"cpow": 1, "coeffs": ["3/2", "0", "-2", "3"][:p.phi]}
    assert scalar_from_json(p, {"cpow": 1, "coeffs": ["0/3"] * p.phi}) == p.zero()


@pytest.mark.parametrize("bad", ["1/0", "1/-2", "x", "", "1/", "/2", "1.5", "1/2/3", 3])
def test_from_json_rejects_bad_coefficients(bad):
    p = make_params(3)
    with pytest.raises(ValueError):
        scalar_from_json(p, {"cpow": 0, "coeffs": [bad] + ["0"] * (p.phi - 1)})


@pytest.mark.parametrize("count", [0, 1, 3, 5])
def test_from_json_rejects_a_wrong_coefficient_count(count):
    p = make_params(3)  # phi = 4
    with pytest.raises(ValueError):
        scalar_from_json(p, {"cpow": 0, "coeffs": ["1"] * count})
