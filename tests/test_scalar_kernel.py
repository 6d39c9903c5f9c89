"""The packed product kernel ``QuantumParams._poly_mul`` against the kernel
it replaced (kept in ``helpers.poly_mul_reference``): operands at both sides
of every packed width's bound, wide operands, levels whose Phi_4r has
coefficients of absolute value 2, and a property over random parts."""
import random

import pytest

from helpers import poly_mul_reference
from skeinrep import scalars
from skeinrep.scalars import QuantumParams, _part

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# r = 105: Phi_420(x) = Phi_105(-x^2), whose coefficients include -2
LEVELS = (3, 4, 5, 6, 7, 8, 105)


def operands(params, top_u, top_v, rnd):
    """Parts with max|numerator| exactly top_u and top_v, random signs and
    some zero entries."""
    def vec(top):
        nums = [rnd.choice((-1, 1)) * rnd.randint(0, top) for _ in range(params.phi)]
        nums[rnd.randrange(params.phi)] = rnd.choice((-1, 1)) * top
        return nums
    return _part(vec(top_u), rnd.randint(1, 9)), _part(vec(top_v), rnd.randint(1, 9))


def packed_width(params, bound):
    """Bytes per digit of the Struct packing the kernel picks for bound, or
    None for digits wider than 8 bytes."""
    bits = bound.bit_length()
    return params._kernels[bits][0].size // params.phi if bits < 63 else None


def assert_matches_reference(params, u, v):
    got = params._poly_mul(u, v)
    assert got == poly_mul_reference(params, u, v)
    assert got == params._poly_mul(v, u)


@pytest.mark.parametrize("r", LEVELS)
@pytest.mark.parametrize("b", [8, 16, 32, 64])
def test_products_at_each_width_bound(r, b):
    """max|u| * max|v| * rho just below 2^(b-2) packs in b-bit digits, just
    above in the next width; both agree with the reference."""
    params = QuantumParams(r)
    rho, rnd = params._rho, random.Random(r * b)
    below = (2 ** (b - 2) - 1) // rho
    above = below + 1
    assert below * rho < 2 ** (b - 2) <= above * rho
    for total, width in ((below, b // 8), (above, 2 * b // 8 if b < 64 else None)):
        if not total:
            continue  # rho >= 2^(b-2): no product packs in b bits at this level
        assert packed_width(params, total * rho) == width
        split = (total, 1), (1, total), (total // 3, 3)
        for top_u, top_v in (pair for pair in split if pair[0]):
            for _ in range(4):
                assert_matches_reference(params, *operands(params, top_u, top_v, rnd))
        # every numerator at its extreme, one sign: the largest raw product
        u, v = _part([total] * params.phi, 1), _part([-1] * params.phi, 1)
        assert_matches_reference(params, u, v)


@pytest.mark.parametrize("r", LEVELS)
def test_wide_products(r):
    """200-bit numerators take the per-digit path."""
    params, rnd = QuantumParams(r), random.Random(r)
    for top_u, top_v in ((2 ** 200, 2 ** 200), (2 ** 200 - 1, 1), (3, 2 ** 200 + 5)):
        assert packed_width(params, top_u * top_v * params._rho) is None
        for _ in range(3):
            assert_matches_reference(params, *operands(params, top_u, top_v, rnd))


@st.composite
def level_and_parts(draw):
    params = QuantumParams(draw(st.sampled_from(LEVELS)))

    def part():
        top = 2 ** draw(st.integers(0, 80))
        nums = draw(st.lists(st.integers(-top, top), min_size=params.phi, max_size=params.phi))
        hypothesis.assume(any(nums))
        return _part(nums, draw(st.integers(1, 50)))
    return params, part(), part()


@hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
@hypothesis.given(level_and_parts())
def test_kernel_matches_reference(case):
    assert_matches_reference(*case)


def test_margin_is_checked_at_construction(fresh_contexts, monkeypatch):
    """A monic modulus with N = Phi(2^8) below twice the largest packed
    residue is refused when the level is built, not when it multiplies."""
    monkeypatch.setattr(scalars, "_cyclotomic_coeffs", lambda n: (0, 0, -255, 1))
    with pytest.raises(AssertionError, match="too small"):
        QuantumParams(3)
    assert QuantumParams._interned == {}


def test_packed_constants():
    params = QuantumParams(3)  # Phi_12 = x^4 - x^2 + 1
    packer, bias, n, half = params._kernels[0]
    assert packer.size == 4 and bias == sum(1 << (8 * i + 7) for i in range(4))
    assert n == 256 ** 4 - 256 ** 2 + 1 and half == n >> 1
    assert QuantumParams(3, 5)._kernels is params._kernels


def test_wide_kernels_are_kept_per_width(fresh_contexts, monkeypatch):
    """A kernel wider than 8-byte digits is built once per width and level:
    two bounds of one width get the same kernel, another root of the level
    shares its parts, and the next width builds another one."""
    params = QuantumParams(5)
    builds = []
    build = QuantumParams._kernel
    monkeypatch.setattr(QuantumParams, "_kernel",
                        lambda self, nb, code=None: builds.append(nb) or build(self, nb, code))
    kernel = params._packing(2 ** 70)
    assert kernel[0].size == 16 * params.phi
    assert params._packing(2 ** 100) is kernel
    other = QuantumParams(5, 3)._packing(2 ** 80)
    assert other == kernel and other[0] is kernel[0]
    wider = params._packing(2 ** 130)
    assert wider[0].size == 24 * params.phi
    assert builds == [16, 24]
