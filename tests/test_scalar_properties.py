"""Property tests of the scalar ring over random (r, s) and elements."""
import json
from fractions import Fraction
from math import gcd

import pytest

from helpers import scalar_from_json
from skeinrep.scalars import make_params

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
settings = hypothesis.settings(max_examples=40, deadline=None, database=None,
                               derandomize=True)

ROOTS = [(r, s) for r in range(3, 9) for s in range(1, 4 * r, 2) if gcd(s, 4 * r) == 1]

rationals = st.builds(Fraction, st.integers(-2 ** 24, 2 ** 24), st.integers(1, 2 ** 12)) \
    | st.integers(-3, 3).map(Fraction)


@st.composite
def coeffs(draw, params):
    entries = rationals | st.just(Fraction(0))
    return draw(st.lists(entries, min_size=params.phi, max_size=params.phi))


@st.composite
def context_and(draw, count):
    """A root and count elements c^odd * part of one drawn parity."""
    params = make_params(*draw(st.sampled_from(ROOTS)))
    odd = draw(st.integers(0, 1))
    return (params,) + tuple(
        scalar_from_json(params, {"cpow": odd, "coeffs": [str(q) for q in draw(coeffs(params))]})
        for _ in range(count))


@settings
@hypothesis.given(context_and(3))
def test_ring_axioms(drawn):
    """x, y and z share a parity; w = c x has the other one."""
    p, x, y, z = drawn
    w = p.c_symbol() * x
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    for u in (x, w):
        assert u * y == y * u
        assert (u * y) * z == u * (y * z)
        assert u * (y + z) == u * y + u * z
        assert u + p.zero() == u and u * p.one() == u
        assert (u - u).is_zero() and (u * p.zero()).is_zero()


@settings
@hypothesis.given(context_and(1))
def test_inverse(drawn):
    p, x = drawn
    hypothesis.assume(not x.is_zero())
    for u in (x, p.c_symbol() * x):
        assert (u * u.inverse()).is_one()


@settings
@hypothesis.given(st.sampled_from(ROOTS))
def test_c_squared_is_inverse_of_total_d(rs):
    p = make_params(*rs)
    c = p.c_symbol()
    assert (c * c * p.total_d_squared()).is_one()


@settings
@hypothesis.given(context_and(1))
def test_json_round_trip(drawn):
    p, x = drawn
    blob = json.dumps(x.to_json())
    back = scalar_from_json(p, json.loads(blob))
    assert back == x and hash(back) == hash(x)
    assert json.dumps(back.to_json()) == blob
