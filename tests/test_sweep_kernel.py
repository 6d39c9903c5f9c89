"""The kernel of `skein._sweep`: integer ports, one join table per local
pattern of a node, and a ring sized per segment, against the plain
`Scalar` reference sweep of `tests/test_skein_sweep.py`.

Seeded closed braids at r = 3..7, at two roots of each level, with bare
circles, label 0, labels up to r - 2 and omega, are swept on the cabled
diagram of every integer labeling, drawn blackboard-framed and with their
framings drawn as kinks, whose crossings join ports of one node to each
other (static self-pairings); both sweeps' values must have identical
`to_json` bytes.  The join tables live in the level memo: both roots
read the one table object of each pattern, and a second pass over the same
links adds no table.  One sweep runs across at least three segments."""
import random

import pytest

from oracles import cabled_reference, swept
from skeinrep import skein as sk
from skeinrep.scalars import make_params
from skeinrep.skein import closed_braid_link
from test_skein_sweep import as_bytes, kinked_link, labelings, reference_sweep

ROOTS = {3: (1, 5), 4: (1, 3), 5: (1, 3), 6: (1, 5), 7: (1, 3)}


def random_link(rng, r):
    """A closed braid on 1-4 strands whose word may leave the last strands
    bare circles, labelled 0..r-2 or omega (at most one omega), framed
    -2..2, with a cabled size, kinks drawn, small enough for the
    reference."""
    while True:
        n = rng.randint(1, 4)
        top = rng.randint(1, n - 1) if n > 1 else 0
        length = rng.randint(0, 5) if top else 0
        word = [rng.choice([1, -1]) * rng.randint(1, top) for _ in range(length)]
        count = len(closed_braid_link(word, n).components)
        labels = [rng.choice(list(range(r - 1)) + [sk.OMEGA]) for _ in range(count)]
        framings = [rng.randint(-2, 2) for _ in range(count)]
        # a k-labelled kink draws k^2 crossings
        heavy = [(r - 2 if k == sk.OMEGA else k) ** 2 * (1 + abs(f))
                 for k, f in zip(labels, framings)]
        if labels.count(sk.OMEGA) <= 1 and sum(heavy) * max(1, len(word)) <= 60:
            return closed_braid_link(word, n, labels=labels, framings=framings)


def diagrams(params, link):
    """The whole cabled diagram (kinds, pairing, loops_upfront) of every
    integer labeling of `link` (``oracles.cabled_reference``),
    blackboard-framed and with the framings drawn as kinks."""
    for labels in labelings(params, link):
        yield cabled_reference(params, link, labels)
        yield cabled_reference(params, kinked_link(link, labels), labels)


def join_tables(params):
    """The join tables in the level memo, by key."""
    return {key: table for key, table in params._memo.items() if key[0] == "sweep_join"}


def sweep_all(params, links, want):
    """Sweep every diagram of `links` and check it against the reference's
    bytes in `want`, filled on the first pass: a value is bound to its
    level, whichever root built it."""
    for i, link in enumerate(links):
        for j, diagram in enumerate(diagrams(params, link)):
            if (i, j) not in want:
                want[i, j] = as_bytes(reference_sweep(params, *diagram))
            assert as_bytes(swept(params, *diagram)) == want[i, j], (link.to_json(), j)


@pytest.mark.parametrize("r", sorted(ROOTS))
def test_kernel_matches_reference(fresh_contexts, r):
    rng = random.Random(31 * r)
    links = [random_link(rng, r) for _ in range(12)]
    labels = [c.label for link in links for c in link.components]
    assert 0 in labels and {r - 2, sk.OMEGA} & set(labels)
    assert any(not c.arcs for link in links for c in link.components)
    first, want = make_params(r, ROOTS[r][0]), {}
    # some node has two ports joined to each other
    assert any(x == y for link in links for _, pairing, _ in diagrams(first, link)
               for (x, _), (y, _) in pairing.items())
    sweep_all(first, links, want)
    tables = join_tables(first)
    assert tables
    sweep_all(first, links, want)
    assert join_tables(first) == tables
    # the other root reads the same tables: no new key, the same objects
    sweep_all(make_params(r, ROOTS[r][1]), links, want)
    again = join_tables(make_params(r, ROOTS[r][1]))
    assert again.keys() == tables.keys()
    assert all(again[key] is table for key, table in tables.items())


@pytest.mark.parametrize("s", [1, 5])
def test_sweep_across_three_segments(monkeypatch, s):
    """The Hopf link labelled (4, 4) at r = 6 crosses at least three
    segments, each one decoding every state at its end."""
    params = make_params(6, s)
    hopf = closed_braid_link([1, 1], 2)
    calls = []
    segment = sk.next_segment

    def recorded(*args):
        calls.append(args)
        return segment(*args)
    monkeypatch.setattr(sk, "next_segment", recorded)
    kinds, pairing, loops_upfront = cabled_reference(params, hopf, [4, 4])
    got = swept(params, kinds, pairing, loops_upfront)
    assert len(calls) >= 3
    assert as_bytes(got) == as_bytes(reference_sweep(params, kinds, pairing, loops_upfront))
