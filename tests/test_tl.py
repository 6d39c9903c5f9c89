import json
import random

import pytest

from helpers import (coefficients_within, masses_over_lcm, random_word, record_segments,
                     residue_mu)
from oracles import (bigelow_braid, braid_absorption_check, encircle_element, flip,
                     identity_coefficient, is_planar, markov_trace_fold, resolve_braid_fold,
                     rotate180, sector_projectors, tl_basis)
from skeinrep import tl
from skeinrep.braids import BraidWord, Cabling, cable
from skeinrep.recoupling import encircle_eigenvalue
from skeinrep.scalars import make_params
from skeinrep.tl import TLDiagram, TLElement, jones_wenzl, resolve_braid


RS = [3, 4, 5, 6]


def test_basis_sizes():
    assert [len(tl_basis(n)) for n in range(6)] == [1, 1, 2, 5, 14, 42]


def test_basis_canonical_order():
    # identity diagram (fully nested parens) sorts first
    for n in (2, 3, 4):
        assert tl_basis(n)[0] == TLDiagram.identity(n)
        strings = [d.parens() for d in tl_basis(n)]
        assert strings == sorted(strings)


def test_planarity_and_parens_roundtrip():
    for n in (2, 3, 4):
        for d in tl_basis(n):
            assert is_planar(d)
            assert TLDiagram.from_parens(n, n, d.parens()) == d


def test_nonplanar_detected():
    # bottom0-top1 with bottom1-top0 cross each other
    assert not is_planar(TLDiagram(2, 2, [(0, 3), (1, 2)]))
    # identity is planar
    assert is_planar(TLDiagram(2, 2, [(0, 2), (1, 3)]))
    # crossing caps on 4 bottom points
    assert not is_planar(TLDiagram(4, 0, [(0, 2), (1, 3)]))


@pytest.mark.parametrize("r", RS)
def test_tl_mul_relations(r):
    p = make_params(r)
    d = p.loop_d()
    e1 = TLElement.e(p, 3, 1)
    e2 = TLElement.e(p, 3, 2)
    assert e1 * e1 == e1.scale(d)
    assert e1 * e2 * e1 == e1
    ident = TLElement.identity(p, 3)
    assert ident * e1 == e1 and e1 * ident == e1


@pytest.mark.parametrize("r", RS)
def test_jones_wenzl(r):
    p = make_params(r)
    d = p.loop_d()
    assert jones_wenzl(p, 1) == TLElement.identity(p, 1)
    if r >= 4:
        p2 = jones_wenzl(p, 2)
        assert p2 == TLElement.identity(p, 2) - TLElement.e(p, 2, 1).scale(d.inverse())
    for k in range(r - 1):
        pk = jones_wenzl(p, k)
        assert (pk * pk - pk).is_zero()
        assert identity_coefficient(pk).is_one() or k == 0
        for i in range(1, k):
            assert (TLElement.e(p, k, i) * pk).is_zero()
            assert (pk * TLElement.e(p, k, i)).is_zero()
        assert (rotate180(pk) - pk).is_zero()
        assert (flip(pk) - pk).is_zero()
    with pytest.raises(ValueError):
        jones_wenzl(p, r - 1)


def test_jones_wenzl_per_root():
    # P_2 = 1 - e_1/d has the same coefficients as a polynomial in A at every
    # root, so every root of the level reads one projector; d = -A^2 - A^{-2}
    # takes a different value at s = 1 and s = 3, and so does its 1/d
    p1, p3 = make_params(5, 1), make_params(5, 3)
    proj = jones_wenzl(p1, 2)
    assert jones_wenzl(p3, 2) is proj
    assert proj.params is p1
    assert all(c.params is p1 for c in proj.terms.values())
    [diag] = TLElement.e(p3, 2, 1).terms
    assert abs(proj.terms[diag].embed(p1) - proj.terms[diag].embed(p3)) > 0.1


@pytest.mark.parametrize("r", RS)
def test_resolve_braid(r):
    p = make_params(r)
    sigma = resolve_braid(p, [1], 2)
    expect = TLElement.identity(p, 2).scale(p.a_pow(1)) + TLElement.e(p, 2, 1).scale(p.a_pow(-1))
    assert (sigma - expect).is_zero()
    assert resolve_braid(p, [], 3) == TLElement.identity(p, 3)
    assert (resolve_braid(p, [1, -1], 3) - TLElement.identity(p, 3)).is_zero()
    # braid relations
    assert (resolve_braid(p, [1, 2, 1], 3) - resolve_braid(p, [2, 1, 2], 3)).is_zero()
    assert (resolve_braid(p, [1, 3], 4) - resolve_braid(p, [3, 1], 4)).is_zero()
    with pytest.raises(ValueError):
        resolve_braid(p, [3], 3)


def test_resolve_braid_matches_the_fold():
    """The packed residue chain against the letter-by-letter `TLElement`
    fold: seeded words on 2..6 strands at r = 3..8, cabled words, and the
    Bigelow braid, whose 118 letters take several segments."""
    rng = random.Random(5)
    for r in range(3, 9):
        p = make_params(r, 4 * r - 1)
        for n in range(2, 7):
            for _ in range(3):
                word = random_word(rng, n, rng.randint(0, 12))
                assert resolve_braid(p, word, n) == resolve_braid_fold(p, word, n), (r, n, word)
        for cab in ((2, 1), (1, 3), (2, 2, 1)):
            word = cable(BraidWord(len(cab), random_word(rng, len(cab), 3)), Cabling(cab))
            assert resolve_braid(p, word.word, word.n) == \
                resolve_braid_fold(p, word.word, word.n), (r, cab)
    bigelow = bigelow_braid()
    for r in range(5, 9):
        p = make_params(r)
        assert resolve_braid(p, bigelow.word, 5) == resolve_braid_fold(p, bigelow.word, 5)


def check_resolve_width(params, word, n, seen):
    """Each segment of `resolve_braid` is as long as the bound allows: the
    most letters k (at least one) with B = mu * M0 * 3^k < 2^62, for M0
    the total l1 mass of the fold's value where it starts.  Its ring's
    bound is that B, B < 2^62 unless k = 1, every coefficient at its end is
    at most B over the start denominator, and the value is the fold's."""
    seen.clear()
    value = resolve_braid(params, word, n)
    mu = residue_mu(params)
    states = [TLElement.identity(params, n)]
    for g in word:
        states.append(states[-1] * resolve_braid_fold(params, [g], n))
    pos = 0
    for k, ring in seen:
        den, masses = masses_over_lcm(states[pos].terms.values())
        want = 1
        while pos + want < len(word) and mu * sum(masses) * 3 ** (want + 1) < 2 ** 62:
            want += 1
        assert k == want
        assert ring.bound == mu * sum(masses) * 3 ** k
        assert ring.bound < 2 ** 62 or k == 1
        assert coefficients_within(states[pos + k].terms.values(), den, ring.bound)
        pos += k
    assert pos == len(word) and value == states[-1]
    return [(k, ring.bound) for k, ring in seen]


def test_resolve_braid_segments_hold_their_bound(monkeypatch):
    """Bigelow's braid at r = 5..8 and a pseudo-Anosov word at r = 5 take
    several segments, the latter down to wide single letters; r = 105 is
    the least level with mu = 2."""
    seen = record_segments(monkeypatch)
    segments = []
    for r in range(5, 9):
        segments += check_resolve_width(make_params(r), bigelow_braid().word, 5, seen)
    segments += check_resolve_width(make_params(5), (1, -2) * 60, 3, seen)
    rng = random.Random(3)
    for _ in range(3):
        segments += check_resolve_width(make_params(105), random_word(rng, 3, 90), 3, seen)
    assert residue_mu(make_params(105)) == 2
    assert max(k for k, _ in segments) > 30
    assert any(k == 1 and bound >= 2 ** 62 for k, bound in segments)


def test_compose_cache_stays_bounded(monkeypatch, fresh_contexts):
    """With the composition memo's limit set small, `resolve_braid` gives
    what it gives under the default limit, which these words do not reach,
    and the memo never holds more than the limit: it is emptied when
    full."""
    rng = random.Random(8)
    words = [(n, random_word(rng, n, 14)) for n in (3, 4, 5, 6) for _ in range(2)]
    words.append((5, bigelow_braid().word))
    p = make_params(6)
    monkeypatch.setattr(tl, "_COMPOSE_CACHE", {})
    expected = [resolve_braid(p, word, n).to_json() for n, word in words]
    assert len(tl._COMPOSE_CACHE) > 50
    sizes = []
    compose = tl._compose_diagrams

    def recorded(lo, hi):
        out = compose(lo, hi)
        sizes.append(len(tl._COMPOSE_CACHE))
        return out

    fresh_contexts()
    p = make_params(6)
    monkeypatch.setattr(tl, "_COMPOSE_CACHE", {})
    monkeypatch.setattr(tl, "_COMPOSE_CACHE_LIMIT", 7)
    monkeypatch.setattr(tl, "_compose_diagrams", recorded)
    assert [resolve_braid(p, word, n).to_json() for n, word in words] == expected
    assert max(sizes) == 7 and sizes.count(1) > 1


@pytest.mark.parametrize("r", [4, 5, 6])
def test_braid_absorption(r):
    p = make_params(r)
    assert braid_absorption_check(p, [1], 2) == p.a_pow(1)
    assert braid_absorption_check(p, [], 2).is_one()
    if r >= 5:
        assert braid_absorption_check(p, [1, 2, 1], 3) == p.a_pow(3)
    rng = random.Random(20260826)
    for _ in range(10):
        k = rng.randint(2, min(4, r - 2))
        word = [rng.choice([1, -1]) * rng.randint(1, k - 1) for _ in range(rng.randint(1, 8))]
        writhe = sum(1 if g > 0 else -1 for g in word)
        assert braid_absorption_check(p, word, k) == p.a_pow(writhe)


@pytest.mark.parametrize("r", RS)
def test_sector_projectors(r):
    p = make_params(r)
    for n in range(5):
        zs = sector_projectors(p, n)
        total = TLElement.zero(p, n, n)
        for z in zs:
            total = total + z
        assert (total - TLElement.identity(p, n)).is_zero()
        for i, zi in enumerate(zs):
            for j, zj in enumerate(zs):
                prod = zi * zj
                if i == j:
                    assert (prod - zi).is_zero()
                else:
                    assert prod.is_zero()
        if n <= r - 2:
            assert identity_coefficient(zs[-1]).is_one()


def test_sector_projectors_n2_example():
    p = make_params(5)
    z0, z2 = sector_projectors(p, 2)
    assert z0 == TLElement.e(p, 2, 1).scale(p.loop_d().inverse())
    assert (z2 - jones_wenzl(p, 2)).is_zero()


@pytest.mark.parametrize("r", RS)
def test_encircle_eigenvalues(r):
    p = make_params(r)
    for k in range(min(4, r - 1)):
        pk = jones_wenzl(p, k)
        E = encircle_element(p, k, 1)
        lam = encircle_eigenvalue(p, k)
        assert (pk * E * pk - pk.scale(lam)).is_zero()


@pytest.mark.parametrize("r", RS)
def test_markov_trace(r):
    p = make_params(r)
    d = p.loop_d()
    assert TLElement.identity(p, 1).markov_trace() == d
    assert TLElement.identity(p, 0).markov_trace().is_one()
    if r >= 4:
        assert jones_wenzl(p, 2).markov_trace() == d * d - p.one()
    for k in range(r - 1):
        assert jones_wenzl(p, k).markov_trace() == p.d_k(k)
    # trace property on random elements
    rng = random.Random(7)
    basis = tl_basis(3)
    for _ in range(5):
        x = TLElement(p, 3, 3, {basis[rng.randrange(len(basis))]: p.a_pow(rng.randrange(8))})
        y = TLElement(p, 3, 3, {basis[rng.randrange(len(basis))]: p.a_pow(rng.randrange(8))})
        assert (x * y).markov_trace() == (y * x).markov_trace()


def test_markov_trace_matches_the_fold():
    """The trace summed per loop count against the per-term fold, as JSON:
    seeded braid words on 2..6 strands at r = 3..8, Bigelow's braid and
    the Jones-Wenzl projectors."""
    rng = random.Random(12)
    bigelow = bigelow_braid()
    for r in range(3, 9):
        p = make_params(r)
        elements = [resolve_braid(p, random_word(rng, n, rng.randint(0, 15)), n)
                    for n in range(2, 7) for _ in range(3)]
        elements.append(resolve_braid(p, bigelow.word, bigelow.n))
        elements += [jones_wenzl(p, k) for k in range(r - 1)]
        for x in elements:
            assert x.markov_trace().to_json() == markov_trace_fold(x).to_json(), (r, x)


def test_serialization_roundtrip():
    p = make_params(5)
    x = jones_wenzl(p, 3)
    blob = json.dumps(x.to_json())
    back = TLElement.from_json(p, json.loads(blob))
    assert (back - x).is_zero()
