"""Braid sector representations, cabling, full twist, and detection."""
import itertools
import random

import pytest

from helpers import (assert_narrowest_ring, coefficients_within, column_masses, from_int,
                     masses_over_lcm, random_word, record_segments, residue_mu)
from oracles import (bigelow_braid, free_reduce, full_twist_scalar, full_twist_word, mat_vec,
                     permutation, sector_generators, sector_rep_fold, tl_basis, writhe)
from skeinrep import braids, tl, tqft
from skeinrep.braids import (BraidWord, Cabling, braid_detect, cable,
                             jones_sector_rep, path_basis, sector_labels)
from skeinrep.linalg import eye, mat_inv, mat_mul, mat_trace
from skeinrep.scalars import make_params
from skeinrep.skein import DomainError


@pytest.fixture(params=[3, 4, 5, 6])
def params(request):
    return make_params(request.param)


# ------------------------------------------------------------ word type

def test_braid_word_validation():
    with pytest.raises(DomainError):
        BraidWord(2, (2,))
    with pytest.raises(DomainError):
        BraidWord(1, (1,))
    with pytest.raises(DomainError):
        BraidWord(3, (0,))


def test_braid_word_inverse_and_reduce():
    b = BraidWord(3, (1, -2, 1))
    assert free_reduce(b * b.inverse()).word == ()
    assert writhe(b) == 1


def test_permutation():
    assert permutation(BraidWord(3, (1,))) == (1, 0, 2)
    assert permutation(BraidWord(3, (1, 2))) == (2, 0, 1)
    assert permutation(BraidWord(3, ())) == (0, 1, 2)


# ----------------------------------------------------------- path bases

def test_path_basis_small(params):
    assert path_basis(params, 2, 0) == [(0, 1, 0)]
    if params.r >= 4:
        assert path_basis(params, 2, 2) == [(0, 1, 2)]
    else:
        assert path_basis(params, 2, 2) == []


def reference_path_basis(params, n, m):
    """The +-1 recurrence that built path bases before the comb spine."""
    top = params.r - 2
    if not 0 <= m <= top:
        return []
    paths = [(0,)]
    for i in range(1, n + 1):
        nxt = []
        for p in paths:
            for step in (-1, 1):
                v = p[-1] + step
                if 0 <= v <= top and abs(m - v) <= n - i:
                    nxt.append(p + (v,))
        paths = nxt
    return [p for p in paths if p[-1] == m]


def test_path_basis_matches_the_recurrence():
    cases = 0
    for r in range(3, 10):
        p = make_params(r)
        for n in range(1, 11):
            for m in range(-1, n + 2):
                assert path_basis(p, n, m) == reference_path_basis(p, n, m), (r, n, m)
                cases += 1
    assert cases == 595


def test_path_basis_is_memoized_and_needs_a_strand():
    p = make_params(6)
    assert path_basis(p, 1, 1) == [(0, 1)]
    assert path_basis(p, 1, 0) == []
    paths = [(0, 1, 0, 1, 2), (0, 1, 2, 1, 2), (0, 1, 2, 3, 2)]
    assert path_basis(p, 4, 2) == paths
    assert p.cached(("paths", 4, 2), None) == tuple(paths)
    with pytest.raises(DomainError):
        path_basis(p, 0, 0)


def test_sector_dims_match_punctured_sphere(params):
    # 3 strands: V_{1,1,1,m} is the 4-punctured sphere space (1,1,1,m)
    for m in sector_labels(params, 3):
        spine = tqft.comb_spine((1, 1, 1, m))
        assert len(path_basis(params, 3, m)) == len(tqft.basis(params, spine))


def test_sector_dims_sum_to_catalan_below_truncation():
    # below the truncation the sector dims square-sum to dim TL_n
    params = make_params(7)
    for n in (2, 3, 4):
        total = sum(len(path_basis(params, n, m)) ** 2
                    for m in sector_labels(params, n))
        assert total == len(tl_basis(n))


# ------------------------------------------------------------ sector rep

def test_sigma1_sector_scalars(params):
    b = BraidWord(2, (1,))
    m0 = jones_sector_rep(params, b, 0).matrix
    assert m0 == [[-params.a_pow(-3)]]
    if params.r >= 4:
        m2 = jones_sector_rep(params, b, 2).matrix
        assert m2 == [[params.a_pow(1)]]


def test_identity_braid_is_identity(params):
    for n in (2, 3, 4):
        for m in sector_labels(params, n):
            rep = jones_sector_rep(params, BraidWord(n, ()), m).matrix
            assert rep == eye(params, len(rep))


def test_empty_sector_rejected(params):
    with pytest.raises(DomainError):
        jones_sector_rep(params, BraidWord(2, ()), 1)  # parity
    with pytest.raises(DomainError):
        jones_sector_rep(params, BraidWord(2, ()), params.r)


def test_braid_relations_in_sector_rep(params):
    for m in sector_labels(params, 3):
        r1 = jones_sector_rep(params, BraidWord(3, (1, 2, 1)), m).matrix
        r2 = jones_sector_rep(params, BraidWord(3, (2, 1, 2)), m).matrix
        assert r1 == r2
    for m in sector_labels(params, 4):
        r1 = jones_sector_rep(params, BraidWord(4, (1, 3)), m).matrix
        r2 = jones_sector_rep(params, BraidWord(4, (3, 1)), m).matrix
        assert r1 == r2


def test_homomorphism_and_inverses(params):
    rng = random.Random(100 + params.r)
    for n in (2, 3):
        for _ in range(3):
            w1 = BraidWord(n, random_word(rng, n, 4))
            w2 = BraidWord(n, random_word(rng, n, 4))
            for m in sector_labels(params, n):
                r1 = jones_sector_rep(params, w1, m).matrix
                r2 = jones_sector_rep(params, w2, m).matrix
                r12 = jones_sector_rep(params, w1 * w2, m).matrix
                assert r12 == mat_mul(r1, r2)
                rinv = jones_sector_rep(params, w1.inverse(), m).matrix
                assert rinv == mat_inv(params, r1)


def test_markov_trace_consistency(params):
    # closure value of the TL image = sum over sectors of d_m * matrix trace
    rng = random.Random(200 + params.r)
    for n in (2, 3, 4):
        word = random_word(rng, n, 6)
        lhs = tl.resolve_braid(params, word, n).markov_trace()
        rhs = params.zero()
        for m in sector_labels(params, n):
            rep = jones_sector_rep(params, BraidWord(n, word), m).matrix
            rhs = rhs + params.d_k(m) * mat_trace(rep)
        assert (lhs - rhs).is_zero()


# --------------------------------------------------------------- cabling

def test_cabling_validation():
    with pytest.raises(DomainError):
        Cabling((0, 1))
    with pytest.raises(DomainError):
        cable(BraidWord(2, (1,)), Cabling((1, 1, 1)))


def test_trivial_cabling_is_identity_map():
    b = BraidWord(3, (1, -2, 1))
    assert cable(b, Cabling((1, 1, 1))).word == b.word


def test_two_cable_of_sigma1():
    cw = cable(BraidWord(2, (1,)), Cabling((2, 1)))
    assert cw.n == 3
    assert cw.word == (2, 1)
    assert permutation(cw) == (1, 2, 0)


def test_cabled_permutation_is_cabled(params):
    rng = random.Random(7)
    for _ in range(5):
        n = rng.choice((2, 3))
        b = BraidWord(n, random_word(rng, n, 5))
        c = Cabling(tuple(rng.choice((1, 2, 3)) for _ in range(n)))
        perm = permutation(b)
        cperm = permutation(cable(b, c))
        # block starts at the bottom and at the top
        starts = [sum(c.multiplicities[:i]) for i in range(n)]
        widths_top = [0] * n
        for i in range(n):
            widths_top[perm[i]] = c.multiplicities[i]
        tops = [sum(widths_top[:i]) for i in range(n)]
        for i in range(n):
            for k in range(c.multiplicities[i]):
                assert cperm[starts[i] + k] == tops[perm[i]] + k


def test_cabling_functoriality():
    rng = random.Random(17)
    for _ in range(5):
        n = rng.choice((2, 3))
        w1 = BraidWord(n, random_word(rng, n, 4))
        w2 = BraidWord(n, random_word(rng, n, 4))
        c = Cabling(tuple(rng.choice((1, 2)) for _ in range(n)))
        whole = cable(w1 * w2, c)
        # the second factor is cabled with the permuted multiplicities
        mult2 = [0] * n
        for i in range(n):
            mult2[permutation(w1)[i]] = c.multiplicities[i]
        parts = cable(w1, c).word + cable(w2, Cabling(tuple(mult2))).word
        assert whole.word == parts


def test_cable_inverse_cancels(params):
    b = BraidWord(2, (1,))
    c = Cabling((2, 2))
    cw = cable(b * b.inverse(), c)
    for m in sector_labels(params, 4):
        rep = jones_sector_rep(params, cw, m).matrix
        assert rep == eye(params, len(rep))


# ------------------------------------------------------------ full twist

def test_full_twist_word():
    assert full_twist_word(2).word == (1, 1)
    assert full_twist_word(3).word == (1, 2) * 3


def test_full_twist_scalar_closed_form(params):
    for n in (2, 3):
        for m in sector_labels(params, n):
            v = full_twist_scalar(params, n, m)
            expect = params.a_pow(m * (m + 2) - 3 * n)
            if (m + n) % 2:
                expect = -expect
            assert v == expect


def test_full_twist_on_top_sector(params):
    # m = n: the full twist acts on the P_n line by A^(writhe) = A^(n(n-1))
    for n in (2, 3):
        if n > params.r - 2:
            continue
        assert full_twist_scalar(params, n, n) == params.a_pow(n * (n - 1))


def test_full_twist_separates_sectors():
    # distinct sectors get distinct scalars for suitable r (central detection)
    params = make_params(7)
    vals = [full_twist_scalar(params, 4, m) for m in sector_labels(params, 4)]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            assert vals[i] != vals[j]


# -------------------------------------------------------------- detection

def test_detect_identity_braid():
    res = braid_detect(BraidWord(3, ()), range(3, 7), cabling_bound=2)
    assert res.r0 is None
    assert all(v == "trivial" for v in res.verdicts.values())


def test_detect_sigma1():
    res = braid_detect(BraidWord(2, (1,)), range(3, 7))
    assert res.r0 == 3
    assert res.witness[3] == ((1, 1), 0)


def test_detect_full_twist_central():
    # central element: no sector matrix is non-scalar, but sector scalars
    # separate, so some sector is exactly non-identity
    res = braid_detect(full_twist_word(2), range(3, 7))
    assert res.r0 == 3


def test_detect_bad_level_is_domain_error():
    with pytest.raises(DomainError, match="r=3"):
        braid_detect(BraidWord(3, (1, 2)), range(3, 5), s=3)


def test_detect_needs_a_cabling():
    with pytest.raises(DomainError):
        braid_detect(BraidWord(2, (1,)), range(3, 5), cabling_bound=0)


def test_cablings_ascend_by_total_then_lex():
    """The scan's cablings in the order of the sorted product, built one at
    a time: the first of a vast grid comes at once."""
    for n in range(1, 5):
        for bound in range(1, 4):
            grid = sorted(itertools.product(range(1, bound + 1), repeat=n),
                          key=lambda c: (sum(c), c))
            assert [c.multiplicities for c in braids._cablings(n, bound)] == grid
    cablings = braids._cablings(6, 10 ** 6)
    assert [next(cablings).multiplicities for _ in range(3)] == [
        (1,) * 6, (1, 1, 1, 1, 1, 2), (1, 1, 1, 1, 2, 1)]


def test_detect_cables_only_what_the_scan_reaches(monkeypatch):
    built = []

    def counted(braid, cabling):
        built.append(cabling.multiplicities)
        return cable(braid, cabling)

    monkeypatch.setattr(braids, "cable", counted)
    # sigma_1 is detected by the first cabling at every level
    res = braid_detect(BraidWord(2, (1,)), range(3, 7), cabling_bound=3)
    assert res.witness == {r: ((1, 1), 0) for r in range(3, 7)}
    assert built == [(1, 1)]
    # the identity braid reaches every cabling once, however many levels
    built.clear()
    braid_detect(BraidWord(2, ()), range(3, 6), cabling_bound=2)
    assert built == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_detect_with_cabling():
    # a commutator word: nontrivial braid detected within the search grid
    b = BraidWord(3, (1, 2, -1, -2))
    res = braid_detect(b, range(3, 6), cabling_bound=2)
    assert res.r0 is not None
    cab, m = res.witness[res.r0]
    cabled = cable(b, Cabling(cab))
    rep = jones_sector_rep(make_params(res.r0), cabled, m).matrix
    assert rep != eye(make_params(res.r0), len(rep))


# ------------------------------------------- the packed residue chain

def test_sector_rep_matches_the_fold():
    """The packed residue chain against the `mat_mul` fold of the generator
    matrices: seeded words on 2..6 strands at r = 3..8, every sector, cabled
    words, and the Bigelow braid at r = 5..8, which takes several
    segments."""
    rng = random.Random(9)
    for r in range(3, 9):
        p = make_params(r, 4 * r - 1)
        words = [BraidWord(n, random_word(rng, n, rng.randint(0, 14)))
                 for n in range(2, 7) for _ in range(2)]
        words += [cable(BraidWord(len(cab), random_word(rng, len(cab), 3)), Cabling(cab))
                  for cab in ((2, 1), (1, 3), (2, 2, 1), (3, 3))]
        if r >= 5:
            words.append(bigelow_braid())
        for b in words:
            for m in sector_labels(p, b.n):
                assert jones_sector_rep(p, b, m).matrix == sector_rep_fold(p, b, m), (r, b, m)


def check_sector_width(params, braid, m, seen):
    """Each segment of `jones_sector_rep` is as long as the bound allows,
    column by column: the most letters (at least one) with
    B = mu * M0 * prod c < 2^62, for M0 the total l1 mass of the column
    where the segment starts and c each letter's largest column mass
    (`column_masses`), the letters read right to left.  Its ring is the
    level's ring for B / mu, the narrowest whose digits of b bits hold B
    (B < 2^(b-2)), B < 2^62 unless it is one letter, and every entry of
    the column at its end has numerators at most B over the start
    denominator times the letters' L.  The columns are the dense
    mat-vec's, and the value is the fold's.  Every column starts at e_j,
    of mass 1, so the product finds the first segment once, for all
    columns, and each column's first segment is that one.
    Returns (k, B) per segment of each column."""
    seen.clear()
    value = jones_sector_rep(params, braid, m).matrix
    mu = residue_mu(params)
    chain = sector_generators(params, braid, m)[::-1]
    dens, growths = zip(*map(column_masses, chain)) if chain else ((), ())
    n, out, segments = len(value), [], iter(seen[1:])
    for j in range(n):
        states = [[params.one() if i == j else params.zero() for i in range(n)]]
        for g in chain:
            states.append(mat_vec(g, states[-1]))
        pos = 0
        while pos < len(chain):
            # every column starts at e_j, of mass 1: its first segment is the
            # one the product found once, for all columns
            k, ring = seen[0] if pos == 0 else next(segments)
            den, masses = masses_over_lcm(states[pos])
            bound, want = mu * sum(masses) * growths[pos], 1
            while pos + want < len(chain) and bound * growths[pos + want] < 2 ** 62:
                bound *= growths[pos + want]
                want += 1
            assert k == want
            assert_narrowest_ring(params, ring, bound // mu)
            assert bound < 2 ** 62 or k == 1
            for d in dens[pos:pos + k]:
                den *= d
            assert coefficients_within(states[pos + k], den, bound)
            out.append((k, bound))
            pos += k
        assert [row[j] for row in value] == states[-1]
    assert next(segments, None) is None
    assert value == sector_rep_fold(params, braid, m)
    return out


def test_sector_rep_segments_hold_their_bound(monkeypatch):
    """Bigelow's braid at r = 5..8, a pseudo-Anosov word at r = 5, which
    ends in wide single letters, cabled words, seeded words at r = 105,
    the least level with mu = 2, and powers of sigma_2 at r = 4, whose
    column mass is 4, with bounds of 7, 15 and 31 bits, the first that need
    the next width."""
    seen = record_segments(monkeypatch)
    segments = []
    for r in range(5, 9):
        p = make_params(r)
        for m in sector_labels(p, 5):
            segments += check_sector_width(p, bigelow_braid(), m, seen)
    segments += check_sector_width(make_params(5), BraidWord(3, (1, -2) * 60), 1, seen)
    rng = random.Random(4)
    cabled = cable(BraidWord(3, random_word(rng, 3, 6)), Cabling((2, 2, 1)))
    for m in sector_labels(make_params(6), cabled.n):
        segments += check_sector_width(make_params(6), cabled, m, seen)
    p = make_params(105)
    assert residue_mu(p) == 2
    for n in (3, 4):
        b = BraidWord(n, random_word(rng, n, 60))
        for m in sector_labels(p, n):
            segments += check_sector_width(p, b, m, seen)
    assert max(k for k, _ in segments) > 30
    assert any(k == 1 and bound >= 2 ** 62 for k, bound in segments)
    p = make_params(4)
    for k, bits in ((3, 7), (7, 15), (15, 31)):
        widths = check_sector_width(p, BraidWord(3, (2,) * k), 1, seen)
        assert {bound.bit_length() for _, bound in widths} == {bits}


def test_one_generator_rep_does_not_alias_the_memo():
    """A one-letter sector matrix starts from the memoized generator; writing
    into it leaves the next call's result as it was."""
    p, b = make_params(5), BraidWord(3, (1,))
    first = jones_sector_rep(p, b, 1).matrix
    expected = [list(row) for row in first]
    first[0][0] = from_int(p, 7)
    assert jones_sector_rep(p, b, 1).matrix == expected
    assert jones_sector_rep(p, BraidWord(3, ()), 1).matrix == eye(p, len(expected))


# ------------------------------------------- Bigelow's Burau-kernel braid
#
# S. Bigelow, "The Burau representation is not faithful for n = 5",
# Geom. Topol. 3 (1999): the commutator [a, b] = a^-1 b^-1 a b of
# a = psi1^-1 s4 psi1 and b = psi2^-1 s4 s3 s2 s1^2 s2 s3 s4 psi2 is a
# nontrivial braid that the Burau representation sends to the identity
# (the word is `oracles.bigelow_braid`).

def _laurent_add(u, v):
    out = dict(u)
    for k, x in v.items():
        out[k] = out.get(k, 0) + x
    return {k: x for k, x in out.items() if x}


def _laurent_mul(u, v):
    out = {}
    for i, x in u.items():
        for j, y in v.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: x for k, x in out.items() if x}


def burau(braid):
    """The unreduced Burau matrix over Z[t, 1/t], entries {exponent:
    coefficient}: s_i acts as [[1 - t, t], [1, 0]] on rows and columns
    i, i + 1, and s_i^-1 as its inverse [[0, 1], [1/t, 1 - 1/t]]."""
    out = [[{0: 1} if i == j else {} for j in range(braid.n)] for i in range(braid.n)]
    for g in braid.word:
        i = abs(g) - 1
        block = ([[{0: 1, 1: -1}, {1: 1}], [{0: 1}, {}]] if g > 0
                 else [[{}, {0: 1}], [{-1: 1}, {0: 1, -1: -1}]])
        for row in out:
            x, y = row[i], row[i + 1]
            row[i] = _laurent_add(_laurent_mul(x, block[0][0]), _laurent_mul(y, block[1][0]))
            row[i + 1] = _laurent_add(_laurent_mul(x, block[0][1]), _laurent_mul(y, block[1][1]))
    return out


def burau_trace(params, braid, power):
    """tr Burau(braid) at t = A^power."""
    out = params.zero()
    for i, row in enumerate(burau(braid)):
        for k, c in row[i].items():
            out = out + from_int(params, c) * params.a_pow(power * k)
    return out


def burau_identity_holds(params, braid, power):
    """tr rho_{n-2}(braid) = A^writhe (tr Burau(braid)|_{t = A^power} - 1)."""
    lhs = mat_trace(jones_sector_rep(params, braid, braid.n - 2).matrix)
    return lhs == params.a_pow(writhe(braid)) * (burau_trace(params, braid, power) - params.one())


def seeded_words(r, n):
    rng = random.Random(f"burau:{r}:{n}")
    return [BraidWord(n, random_word(rng, n, rng.randint(1, 10))) for _ in range(15)]


@pytest.mark.parametrize("r", [4, 5, 6, 7, 8])
def test_sector_n_minus_2_is_reduced_burau_below_truncation(r):
    # below truncation the m = n - 2 sector is A * reduced Burau at t = A^-4
    # (the reduced trace is the unreduced one less 1); t = A^4 is not it
    params = make_params(r)
    for n in range(2, min(5, r - 1) + 1):
        words = seeded_words(r, n)
        assert all(burau_identity_holds(params, b, -4) for b in words), n
        assert not all(burau_identity_holds(params, b, 4) for b in words), n


@pytest.mark.parametrize("r", [4, 5])
def test_sector_n_minus_2_is_not_burau_when_truncated(r):
    # at n = r the top sector m = r - 2 is truncated and the identity fails
    params = make_params(r)
    assert not any(burau_identity_holds(params, b, -4) for b in seeded_words(r, r))


def test_bigelow_word_is_in_the_burau_kernel():
    # checks the transcription: 118 letters after free reduction, and an
    # exact Burau product equal to the identity
    c = bigelow_braid()
    assert len(c.word) == 118
    identity = [[{0: 1} if i == j else {} for j in range(5)] for i in range(5)]
    assert burau(c) == identity
    assert burau(BraidWord(5, c.word[:-1])) != identity


def test_bigelow_braid_uncabled_verdicts():
    res = braid_detect(bigelow_braid(), range(3, 12))
    assert res.r0 == 5
    nontrivial = (5, 7, 8, 9, 11)
    assert res.verdicts == {r: "nontrivial" if r in nontrivial else "trivial"
                            for r in range(3, 12)}
    assert res.witness == {r: ((1, 1, 1, 1, 1), 1) for r in nontrivial}


def test_bigelow_braid_cabling_detects_where_uncabled_fails():
    # the paper's cabling theorem at r = 6, where every uncabled sector
    # matrix is the identity
    res = braid_detect(bigelow_braid(), range(6, 7), cabling_bound=2)
    assert res.r0 == 6
    assert res.witness == {6: ((1, 1, 1, 1, 2), 2)}
