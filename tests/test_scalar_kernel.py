"""The packed product kernel ``QuantumParams._poly_mul`` against the kernel
it replaced (kept in ``helpers.poly_mul_reference``): operands at both sides
of every packed width's bound mu * |u|_1 * |v|_1 (the residue rule for the
product u v), wide operands, levels whose Phi_4r has coefficients of
absolute value 2, and a property over random parts."""
import random

import pytest

from helpers import poly_mul_reference, residue_mu
from skeinrep import scalars
from skeinrep.scalars import PackedRing, QuantumParams, _part

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# r = 105: Phi_420(x) = Phi_105(-x^2), whose coefficients include -2, and
# mu = 2
LEVELS = (3, 4, 5, 6, 7, 8, 105)


def operands(params, mass_u, mass_v, rnd):
    """Parts whose numerators have l1 mass exactly mass_u and mass_v, split
    over random entries with random signs."""
    def vec(mass):
        slots = rnd.sample(range(params.phi), rnd.randint(1, min(params.phi, mass)))
        cuts = sorted(rnd.randint(0, mass) for _ in slots[1:])
        nums = [0] * params.phi
        for i, lo, hi in zip(slots, [0] + cuts, cuts + [mass]):
            nums[i] = rnd.choice((-1, 1)) * (hi - lo)
        return nums
    return _part(vec(mass_u), rnd.randint(1, 9)), _part(vec(mass_v), rnd.randint(1, 9))


def packed_width(params, mass):
    """Bytes per digit of the ring the level picks for mass, or None for
    digits wider than 8 bytes."""
    nb = params.ring(mass)._packer.size // params.phi
    return nb if nb <= 8 else None


def assert_matches_reference(params, u, v):
    got = params._poly_mul(u, v)
    assert got == poly_mul_reference(params, u, v)
    assert got == params._poly_mul(v, u)


@pytest.mark.parametrize("r", LEVELS)
@pytest.mark.parametrize("b", [8, 16, 32, 64])
def test_products_at_each_width_bound(r, b):
    """mu * |u|_1 * |v|_1 just below 2^(b-2) packs in b-bit digits, just
    above in the next width; both agree with the reference."""
    params = QuantumParams(r)
    mu, rnd = residue_mu(params), random.Random(r * b)
    below = (2 ** (b - 2) - 1) // mu
    above = below + 1
    assert mu * below < 2 ** (b - 2) <= mu * above
    # the least e with a coefficient mu in A^e mod Phi; x^e is a product of
    # two numerator monomials
    top = next(e for e in range(params.order)
               if max(map(abs, params.a_pow(e).part[0])) == mu)
    assert top <= 2 * params.phi - 2
    for total, width in ((below, b // 8), (above, 2 * b // 8 if b < 64 else None)):
        assert packed_width(params, total) == width
        split = (total, 1), (1, total), (total // 3, 3)
        for mass_u, mass_v in (pair for pair in split if pair[0]):
            for _ in range(4):
                assert_matches_reference(params, *operands(params, mass_u, mass_v, rnd))
        # the whole mass on one monomial: a reduced coefficient of mu * total
        i = min(top, params.phi - 1)
        u = _part([total if k == i else 0 for k in range(params.phi)], 1)
        v = _part([-1 if k == top - i else 0 for k in range(params.phi)], 1)
        assert max(map(abs, params._poly_mul(u, v)[0])) == mu * total
        assert_matches_reference(params, u, v)


@pytest.mark.parametrize("r", LEVELS)
def test_wide_products(r):
    """Products of 200-bit l1 mass take the per-digit path."""
    params, rnd = QuantumParams(r), random.Random(r)
    for mass_u, mass_v in ((2 ** 200, 2 ** 200), (2 ** 200 - 1, 1), (3, 2 ** 200 + 5)):
        assert packed_width(params, mass_u * mass_v) is None
        for _ in range(3):
            assert_matches_reference(params, *operands(params, mass_u, mass_v, rnd))


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
    ring = params.ring(1)
    assert ring._packer.size == 4 and ring._bias == sum(1 << (8 * i + 7) for i in range(4))
    assert ring.n == 256 ** 4 - 256 ** 2 + 1 and ring._half == ring.n >> 1
    assert QuantumParams(3, 5).ring(1) is ring and ring.params is params


def test_wide_kernels_are_kept_per_width(fresh_contexts, monkeypatch):
    """A ring wider than 8-byte digits is built once per width and level:
    two masses of one width get the same ring, another root of the level
    reads it too, and the next width builds another one."""
    params = QuantumParams(5)
    builds = []
    build = PackedRing.__init__
    monkeypatch.setattr(PackedRing, "__init__",
                        lambda self, level, nb: builds.append(nb) or build(self, level, nb))
    assert residue_mu(params) == 1
    ring = params.ring(2 ** 70)
    assert ring._packer.size == 16 * params.phi
    assert params.ring(2 ** 100) is ring
    assert QuantumParams(5, 3).ring(2 ** 80) is ring
    wider = params.ring(2 ** 130)
    assert wider._packer.size == 24 * params.phi
    assert builds == [16, 24]


def test_wide_ring_first_reached_at_another_root_is_the_levels(fresh_contexts):
    """A ring wider than 8 bytes that a root other than s = 1 reaches first
    is built on the level: it decodes to Scalars of the level, which mix
    with the level's own."""
    root = QuantumParams(5, 3)
    ring = root.ring(2 ** 70)
    assert ring._packer.size > 8 * root.phi
    level = QuantumParams(5)
    assert ring.params is level and level.ring(2 ** 70) is ring
    nums = [2 ** 69 * (-1) ** i for i in range(root.phi)]
    value = ring.decode(ring.pack(nums), 1)
    assert value.params is level
    assert value * level.one() + root.one() == value + level.one()
