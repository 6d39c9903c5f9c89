"""The congruence kernel of the torus representation.

The projective SL2(Z) representation of a modular category factors through
SL2(Z/N), N the order of T (Ng-Schauenburg, "Congruence subgroups and
generalized Frobenius-Schur indicators", Comm. Math. Phys. 300, 2010).  At
level r that order divides 4r, so every torus word whose matrix lies in
+-Gamma(4r) is projectively trivial at r.  That does not follow from
T^{4r} = 1 alone: the normal closure of T^N has infinite index for N >= 6.

Words are in the twists a, b with a -> [[1, 1], [0, 1]] and
b -> [[1, 0], [-1, 1]] (they satisfy aba = bab); another convention differs
by an automorphism of SL2(Z), which keeps Gamma(N)."""
import random
from math import gcd

import pytest

from skeinrep import mcg

GENERATORS = {"a": ((1, 1), (0, 1)), "b": ((1, 0), (-1, 1))}
MAX_LETTERS = 200


def mat2_mul(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def word_matrix(word):
    """The SL2(Z) matrix of a twist word, leftmost letter leftmost."""
    out = ((1, 0), (0, 1))
    for curve, exp in word:
        (p, q), (r, s) = GENERATORS[curve]
        step = ((p, q), (r, s)) if exp > 0 else ((s, -q), (-r, p))
        for _ in range(abs(exp)):
            out = mat2_mul(out, step)
    return out


def letters(word):
    return sum(abs(exp) for _, exp in word)


def sl2_word(m, cap=MAX_LETTERS):
    """A twist word whose matrix is m or -m, by a Euclid walk on the first
    column (p, r): a^k adds k r to p, b^k subtracts k p from r, and the walk
    stops at r = 0, where what is left is +-a^n.  The b step is taken only
    when p is nonzero and |r| >= |p|; otherwise the a step reduces p, and at
    p = 0 it moves p to r, so every step shrinks the column.  Raises
    ValueError when the word would pass cap letters."""
    (p, q), (r, s) = m
    word = []  # inverses of the letters applied on the left, in order
    while r:
        if p and abs(r) >= abs(p):
            k = r // p
            r, s = r - k * p, s - k * q
            word.append(("b", -k))
        else:
            k = -(p // r) or 1
            p, q = p + k * r, q + k * s
            word.append(("a", -k))
        if letters(word) > cap:
            raise ValueError(f"{m} needs more than {cap} letters")
    # p = s = +-1 and the rest is p * a^{p q}
    if q:
        word.append(("a", p * q))
    if letters(word) > cap:
        raise ValueError(f"{m} needs more than {cap} letters")
    return word


def _bezout(a, b):
    """(g, x, y) with a x + b y = g = gcd(a, b) up to sign."""
    if b == 0:
        return a, 1, 0
    g, x, y = _bezout(b, a % b)
    return g, y, x - (a // b) * y


def gamma_element(rng, n):
    """A seeded element of +-Gamma(n) off the upper triangle: first row
    (1 + n x, n y) with x, y nonzero and coprime entries, completed to
    determinant 1 with the second row = (0, 1) mod n, then a random sign."""
    while True:
        p, q = 1 + n * rng.choice((-2, -1, 1, 2)), n * rng.choice((-2, -1, 1, 2))
        if gcd(p, q) == 1:
            break
    g, x, y = _bezout(p, q)
    s0, r0 = x * g, -y * g  # p s0 - q r0 = 1
    t = -r0 % n             # p = 1 mod n, so r0 + t p = 0 mod n
    sign = rng.choice((1, -1))
    return ((sign * p, sign * q), (sign * (r0 + t * p), sign * (s0 + t * q)))


def test_sl2_word_reproduces_its_matrix():
    rng = random.Random(0)
    cases = [((0, 1), (-1, 0)), ((0, -1), (1, 0)), ((-1, 0), (0, -1)), ((1, 0), (0, 1)),
             ((2, 1), (1, 1)), ((1, 0), (-5, 1))]
    for _ in range(20):
        cases.append(word_matrix([(rng.choice("ab"), rng.choice((-2, -1, 1, 2)))
                                  for _ in range(rng.randint(1, 8))]))
    for m in cases:
        got = word_matrix(sl2_word(m))
        assert got in (m, tuple(tuple(-x for x in row) for row in m)), (m, got)


def test_sl2_word_is_capped():
    with pytest.raises(ValueError):
        sl2_word(((1, 0), (-(MAX_LETTERS + 1), 1)))
    with pytest.raises(ValueError):
        sl2_word(((1, MAX_LETTERS + 1), (0, 1)))


@pytest.mark.parametrize("r", range(3, 9))
def test_congruence_kernel_is_trivial(r):
    rng = random.Random(f"gamma:{r}")
    n = 4 * r
    for _ in range(3):
        m = gamma_element(rng, n)
        sign = 1 if m[0][0] % n == 1 else -1
        assert all((m[i][j] - sign * (i == j)) % n == 0 for i in (0, 1) for j in (0, 1)), m
        word = sl2_word(m)
        res = mcg.detect("torus", word, [r])
        assert res.verdicts == {r: "trivial"}, (m, word)


@pytest.mark.parametrize("r", range(3, 9))
def test_half_period_twist_is_nontrivial(r):
    # a^{2r} lies in Gamma(2r) but not in +-Gamma(4r)
    assert mcg.detect("torus", [("a", 2 * r)], [r]).verdicts == {r: "nontrivial"}


@pytest.mark.parametrize("r", range(3, 9))
def test_equal_residues_give_equal_verdicts(r):
    # the representation factors through SL2(Z/4r): a word and the word of
    # its matrix times an element of Gamma(4r) get the same verdict
    rng = random.Random(f"residue:{r}")
    verdicts = set()
    for _ in range(3):
        word = [(rng.choice("ab"), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(2, 5))]
        other = sl2_word(mat2_mul(word_matrix(word), gamma_element(rng, 4 * r)))
        verdict = mcg.detect("torus", word, [r]).verdicts
        assert mcg.detect("torus", other, [r]).verdicts == verdict, (word, other)
        verdicts.add(verdict[r])
    assert "nontrivial" in verdicts


# the central words (ab)^3, (aba)^2 and (ab)^6, whose matrices are -I, -I, I
CENTRAL = ((("a", 1), ("b", 1)) * 3, (("a", 1), ("b", 1), ("a", 1)) * 2,
           (("a", 1), ("b", 1)) * 6)


def random_torus_word(rng, most):
    return [(rng.choice("ab"), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(1, most))]


def test_detection_is_trivial_exactly_on_the_center():
    # the torus side of the theorem in both directions: a word goes
    # undetected at every r in 3..8 exactly when its matrix is +-I
    rng = random.Random("center")
    words = [random_torus_word(rng, 8) for _ in range(150)]
    for _ in range(30):
        g = random_torus_word(rng, 4)
        words.append(g + list(rng.choice(CENTRAL)) + [(c, -e) for c, e in reversed(g)])
    central = 0
    for word in words:
        m = word_matrix(word)
        on_center = m in (((1, 0), (0, 1)), ((-1, 0), (0, -1)))
        central += on_center
        assert (mcg.detect("torus", word, range(3, 9)).r0 is None) == on_center, word
    assert central >= 30
