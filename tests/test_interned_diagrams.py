"""TL diagrams are interned: equal matchings are one object while any of
them lives, however they are built, so a dict keyed by diagrams hashes by
identity.  The table is weak-valued, and a letter's packed-column holder is
bounded by the composition memo's limit; with that limit set small, every
product still equals a cold run and the `Scalar` folds of
`tests/oracles.py`, and no element holds two equal matchings."""
import gc
import random
import weakref

from helpers import diagram_from_parens, random_word
from oracles import hom_basis, resolve_braid_fold, then_fold, tl_basis, wenzl_fold
from skeinrep import tl
from skeinrep.scalars import make_params
from skeinrep.tl import TLDiagram, _compose_diagrams, jones_wenzl, resolve_braid


def test_equal_matchings_are_one_object():
    for n in range(1, 6):
        for d in tl_basis(n):
            assert diagram_from_parens(n, n, d.parens()) is d
            # pairs in any order, each pair either way round
            assert TLDiagram(n, n, [(b, a) for a, b in reversed(d.pairs)]) is d
    for nb, nt in ((0, 4), (4, 0), (3, 1), (2, 4)):
        for d in hom_basis(nb, nt):
            assert diagram_from_parens(nb, nt, d.parens()) is d
    assert TLDiagram.identity(4) is TLDiagram(4, 4, [(i, 4 + i) for i in range(4)])
    assert TLDiagram.e_gen(4, 2) is TLDiagram.e_gen(4, 2)


def test_compositions_return_the_live_object(monkeypatch):
    """A composition, computed afresh after the memo is emptied, returns
    the object that construction returns for its matching."""
    basis = tl_basis(4)
    for lo in basis:
        for hi in basis:
            monkeypatch.setattr(tl, "_COMPOSE_CACHE", {})
            stacked, _ = _compose_diagrams(lo, hi)
            assert TLDiagram(4, 4, stacked.pairs) is stacked
            assert any(stacked is d for d in basis)


def test_unreferenced_diagram_leaves_the_table():
    pairs = [(0, 17), (1, 2), (3, 16)] + [(4 + i, 15 - i) for i in range(6)]
    key = (9, 9, TLDiagram(9, 9, pairs).pairs)
    diag = TLDiagram(9, 9, pairs)
    ref = weakref.ref(diag)
    assert TLDiagram._interned[key] is diag
    del diag
    gc.collect()
    assert ref() is None
    assert key not in TLDiagram._interned
    # a later construction builds the one live object again
    assert TLDiagram(9, 9, pairs) is TLDiagram._interned[key]


def distinct_matchings(x):
    """The terms of x hold distinct matchings, each the live object."""
    assert len({d.pairs for d in x.terms}) == len(x.terms)
    assert all(TLDiagram(d.nb, d.nt, d.pairs) is d for d in x.terms)


def test_products_under_a_small_limit(monkeypatch, fresh_contexts):
    """With the composition memo's limit (and so each holder's) at 7,
    letters, Jones-Wenzl projectors and `then` products equal a cold run
    under the default limit and the folds."""
    rng = random.Random(31)
    words = [(n, random_word(rng, n, 12)) for n in (3, 4, 5, 6)]

    def run(p):
        out = [resolve_braid(p, word, n) for n, word in words]
        out += [jones_wenzl(p, k) for k in range(p.r - 1)]
        out.append(out[1].then(out[8].then(out[1])))
        return out

    r = 6
    cold = [x.to_json() for x in run(make_params(r))]
    fresh_contexts()
    monkeypatch.setattr(tl, "_COMPOSE_CACHE", {})
    monkeypatch.setattr(tl, "_COMPOSE_CACHE_LIMIT", 7)
    p = make_params(r)
    # twice: the second run reads the letters and projectors warm
    for _ in range(2):
        got = run(p)
        assert [x.to_json() for x in got] == cold
        for x in got:
            distinct_matchings(x)
    folds = [resolve_braid_fold(p, word, n) for n, word in words]
    folds += wenzl_fold(p, r - 2)
    folds.append(then_fold(folds[1], then_fold(folds[8], folds[1])))
    assert [x.to_json() for x in folds] == cold


def test_letter_holders_stay_within_the_limit(monkeypatch, fresh_contexts):
    """A seeded word on 8 strands reads more diagrams than the limit; every
    holder of a letter's packed columns empties when full and never holds
    more than the limit, and the product equals the fold."""
    sizes = []

    class Recorded(tl.BoundedMemo):
        __slots__ = ()

        def __setitem__(self, t, col):
            super().__setitem__(t, col)
            sizes.append(len(self))

    monkeypatch.setattr(tl, "BoundedMemo", Recorded)
    monkeypatch.setattr(tl, "_COMPOSE_CACHE_LIMIT", 7)
    word = random_word(random.Random(8), 8, 16)
    p = make_params(5)
    got = resolve_braid(p, word, 8)
    assert max(sizes) == 7 and sizes.count(1) > len(set(word))
    for g in set(word):
        for holder in p._memo[("letter", 8, g)][2]._rings.values():
            assert len(holder) <= 7
    distinct_matchings(got)
    assert got.to_json() == resolve_braid_fold(p, word, 8).to_json()
