"""Factors own their packed columns, one copy per ring, for as long as they
live.  A factor first read in one ring width and then, warm, in another
gives what a cold run gives and what the `Scalar` folds of
`tests/oracles.py` give (`resolve_braid_fold` over `then_fold`, and the
dense `mat_mul` fold `sector_rep_fold`); a factor made for one product dies
with it, and the level memo keeps nothing of it."""
import weakref

from oracles import bigelow_braid, dense_scalar, resolve_braid_fold, sector_rep_fold
from skeinrep import tl
from skeinrep.braids import BraidWord, _generator_columns, jones_sector_rep, sector_labels
from skeinrep.linalg import scalar_of
from skeinrep.scalars import make_params
from skeinrep.tl import resolve_braid


def matrix_json(rows):
    return [[x.to_json() for x in row] for row in rows]


def rings_read(factor):
    """The rings a factor (L, c, cols) has packed its columns in."""
    return set(factor[2]._rings)


def test_letters_warm_in_two_ring_widths(fresh_contexts):
    """(1, -2)^60 on 3 strands at r = 5 and Bigelow's braid at r = 5..8
    take several segments in wide rings; a two-letter prefix then reads the
    same letters, warm, in a narrower ring.  Both agree with cold runs and
    with the fold."""
    bigelow = bigelow_braid()
    cases = [(5, (1, -2) * 60, 3)] + [(r, bigelow.word, bigelow.n) for r in range(5, 9)]
    for r, word, n in cases:
        words = (word, word[:2])
        p = make_params(r)
        warm = [resolve_braid(p, w, n).to_json() for w in words]
        for g in set(word[:2]):
            assert len(rings_read(p._memo[("letter", n, g)])) >= 2, (r, g)
        cold = []
        for w in words:
            fresh_contexts()
            cold.append(resolve_braid(make_params(r), w, n).to_json())
        assert warm == cold, r
        assert warm == [resolve_braid_fold(make_params(r), w, n).to_json() for w in words], r


def test_generator_columns_warm_in_two_ring_widths(fresh_contexts):
    """Bigelow's braid at r = 5..8 reads its sector generators through
    `jones_sector_rep` in several segments; the probe `scalar_of` then reads
    the same column forms, warm, for w w^-1 and the full twist of a short
    prefix w.  Every result agrees with a cold run and with the dense
    fold."""
    bigelow = bigelow_braid()
    prefix = BraidWord(bigelow.n, bigelow.word[:2])
    probes = [prefix * prefix.inverse(), BraidWord(bigelow.n, tuple(range(1, bigelow.n)) * bigelow.n)]

    def run(p, m):
        rep = matrix_json(jones_sector_rep(p, bigelow, m).matrix)
        lams = []
        for w in probes:
            gens = [_generator_columns(p, w.n, m, g) for g in w.word]
            lams.append(scalar_of(p, gens, len(rep)).to_json())
        return rep, lams

    for r in range(5, 9):
        labels = sector_labels(make_params(r), bigelow.n)
        p = make_params(r)
        warm = [run(p, m) for m in labels]
        widths = set()
        for m in labels:
            for g in set(bigelow.word[:2]):
                widths.add(len(rings_read(_generator_columns(p, bigelow.n, m, g))))
        assert max(widths) >= 2, r
        cold = []
        for m in labels:
            fresh_contexts()
            cold.append(run(make_params(r), m))
        assert warm == cold, r
        p = make_params(r)
        folds = [(matrix_json(sector_rep_fold(p, bigelow, m)),
                  [dense_scalar(sector_rep_fold(p, w, m)).to_json() for w in probes])
                 for m in labels]
        assert warm == folds, r


def test_then_factors_die_with_the_call(monkeypatch):
    """The right multiplications that `then` makes, and their packed twins,
    are gone once it returns; 100 products leave the level memo as they
    found it."""
    made = []

    class Traced(tl._Times):
        __slots__ = ("__weakref__",)

        def __init__(self, terms):
            super().__init__(terms)
            made.append(weakref.ref(self))

    monkeypatch.setattr(tl, "_Times", Traced)
    p = make_params(6)
    x = resolve_braid(p, (1, -2, 3, 1), 4)
    y = resolve_braid(p, (-3, 2, 2), 4)
    made.clear()
    first = x.then(y)
    # two factors, each packed in at least one ring; no cycle holds them,
    # so they are freed as the call returns
    assert len(made) >= 4
    assert all(ref() is None for ref in made)
    size = len(p._memo)
    for _ in range(100):
        assert x.then(y) == first
    assert len(p._memo) == size
