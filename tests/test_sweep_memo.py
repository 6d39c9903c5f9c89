"""The level's sweep values (`skein._sweeps`) and the closed form of an
unlinked labeling in `skein._evaluate_labeled`.

A sweep is a function of the level and the cabled diagram alone, so each
distinct diagram is swept once per level and read at every root; d^loops
and the framing monomials multiply after the read.  A component of nonzero
label that no kept crossing joins to a nonzero strand is a split unknot,
its closed form `skein._circle`, and is not cabled.

- Differential: `evaluate` and `z_invariant` against
  `oracles.unfolded_evaluate`, which sweeps the whole unreduced diagram of
  every labeling afresh, byte for byte, on seeded closed braids at
  r = 3..8 and two roots each, and on three closures whose diagrams have
  the same node kinds; every link is evaluated twice, in two orders, from
  an emptied map.
- Counts: a link and the same link with its arcs renamed are swept once
  per level, at both roots; so are a link and the same link with its
  components listed in the opposite order, since the key is the cabled
  diagram, which does not see the component order of label-1
  components.
- Bound: a map that holds its limit empties before it builds the next
  entry, and values read after it empties are unchanged.
- Closed form: `_evaluate_labeled` against one sweep of the whole cabled
  diagram (`oracles.swept_labeled`) on labelings that leave components
  as boxes closed on themselves.
"""
import random

import pytest

from helpers import renamed_arcs
from oracles import signature_fraction, swept_labeled, unfolded_evaluate
from skeinrep import skein as sk
from skeinrep.scalars import make_params
from skeinrep.skein import closed_braid_link
from test_label_fold import second_root
from test_reduction import cabled_weight
from test_skein_sweep import as_bytes


def seeded_closure(rng, r, cap, omegas=1):
    """A closed braid on 2-4 strands, labels 0..r-2 or omega (at most
    `omegas`), framings -3..3, whose unfolded sweeps, (r-1) per omega
    component, weigh at most `cap` (``test_reduction.cabled_weight``)."""
    while True:
        n = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 4))]
        comps = len(closed_braid_link(word, n).components)
        labels = [rng.choice([*range(r - 1), sk.OMEGA]) for _ in range(comps)]
        if labels.count(sk.OMEGA) > omegas:
            continue
        link = closed_braid_link(word, n, labels, [rng.randint(-3, 3) for _ in range(comps)])
        if cabled_weight(link, labels, r) * (r - 1) ** labels.count(sk.OMEGA) <= cap:
            return link


def surgery_closure(rng, r, cap):
    """A seeded closure whose all-omega labeling, the one `z_invariant`
    evaluates, unfolds within `cap`."""
    while True:
        link = seeded_closure(rng, r, 10 ** 6, omegas=3)
        comps = len(link.components)
        if cabled_weight(link, [sk.OMEGA] * comps, r) * (r - 1) ** comps <= cap:
            return link


def values(params, links, surgeries):
    """The to_json bytes of `evaluate` on each link and of `z_invariant`'s
    value on each surgery link, with its signature."""
    return ([as_bytes(sk.evaluate(params, link)) for link in links]
            + [(as_bytes(value), sig) for value, sig in
               (sk.z_invariant(params, link) for link in surgeries)])


# closures on 3 strands labelled 1 whose cabled diagrams have the same
# node kinds and port count, four crossings each, but different pairings
SAME_KINDS = [closed_braid_link(word, 3) for word in ([1, 2, 1, 2], [1, 1, 2, 2], [1, -2, 1, -2])]


@pytest.mark.parametrize("r", range(3, 9))
def test_memoized_values_match_fresh_sweeps(r):
    rng = random.Random(f"memo:{r}")
    links = SAME_KINDS + [seeded_closure(rng, r, 160) for _ in range(6)]
    surgeries = [surgery_closure(rng, r, 400) for _ in range(2)]
    sk._sweeps(make_params(r)).clear()
    for s in (1, second_root(r)):
        params = make_params(r, s)
        want = [as_bytes(unfolded_evaluate(params, link)) for link in links]
        want += [(as_bytes(unfolded_evaluate(params, sk.kirby_color_link(link))),
                  signature_fraction(sk.linking_matrix(link))) for link in surgeries]
        first = values(params, links, surgeries)
        again = values(params, links[::-1], surgeries[::-1])
        assert first == want
        assert again == want[:len(links)][::-1] + want[len(links):][::-1]


def counted_sweeps(monkeypatch):
    """The level and diagram of each `skein._sweep` call."""
    calls = []
    sweep = sk._sweep

    def counted(params, kinds, partner):
        calls.append((params.r, tuple(kinds), tuple(partner)))
        return sweep(params, kinds, partner)

    monkeypatch.setattr(sk, "_sweep", counted)
    return calls


@pytest.mark.parametrize("r, word, n, labels", [
    (6, [1, 1, 1], 2, [2]),
    (7, [1, 1, -2, 1, 1, -2], 3, [2, 1, sk.OMEGA]),
    (5, [1, 1, 1, 1], 2, [sk.OMEGA, 1]),
])
def test_renamed_arcs_share_one_sweep_per_level(monkeypatch, r, word, n, labels):
    """A link and its arcs renamed reduce to one diagram: each diagram is
    swept once for both links and both roots of the level, as often as
    for the link alone at one root."""
    calls = counted_sweeps(monkeypatch)
    link = closed_braid_link(word, n, labels, [1] * len(labels))
    renamed = renamed_arcs(link, random.Random(f"rename:{r}"))
    assert sorted(map(tuple, renamed.crossings)) != sorted(map(tuple, link.crossings))
    sk._sweeps(make_params(r)).clear()
    got = [as_bytes(sk.evaluate(make_params(r, s), x))
           for s in (1, second_root(r)) for x in (link, renamed)]
    assert len(set(got)) == 1
    first = len(calls)
    assert first == len(set(calls)) >= 1
    sk._sweeps(make_params(r)).clear()
    assert as_bytes(sk.evaluate(make_params(r), link)) == got[0]
    assert len(calls) == 2 * first


@pytest.mark.parametrize("r", [4, 5, 7])
def test_component_order_shares_one_sweep_per_level(monkeypatch, r):
    """The closure of sigma1^4 has two label-1 components; listed in
    opposite orders, its two links cable to one diagram, swept once for
    both links and both roots of the level.  A key that saw the component
    order, or the orientation of a crossing of label-1 strands, would
    sweep it twice."""
    calls = counted_sweeps(monkeypatch)
    link = closed_braid_link([1, 1, 1, 1], 2, [1, 1], [1, -1])
    reverse = sk.LabeledLink(link.components[::-1], link.crossings)
    sk._sweeps(make_params(r)).clear()
    got = [as_bytes(sk.evaluate(make_params(r, s), x))
           for s in (1, second_root(r)) for x in (link, reverse)]
    assert len(set(got)) == 1 and len(calls) == 1


def test_sweep_values_empty_at_their_limit(monkeypatch):
    """The map is built with the module's limit.  With the limit at 3, it
    never holds more than 3 diagrams, it empties and sweeps again, and
    every value read after it empties is the one read before: eight torus
    closures T(2, k) labelled 1 or 2 at r = 6, each its own diagram."""
    params = make_params(6)
    calls = counted_sweeps(monkeypatch)
    memo = sk._sweeps(params)
    assert memo.limit == sk._SWEEP_MEMO_LIMIT
    monkeypatch.setattr(memo, "limit", 3)
    memo.clear()
    links = [closed_braid_link([1] * k, 2, [label] * (2 - k % 2))
             for k in (2, 3, 4, 5) for label in (1, 2)]
    first = []
    for link in links:
        first.append(as_bytes(sk.evaluate(params, link)))
        assert len(memo) <= 3
    assert len(calls) == len(set(calls)) == len(links)
    again = [as_bytes(sk.evaluate(params, link)) for link in links]
    assert again == first
    assert len(calls) == 2 * len(links) and len(memo) <= 3
    assert first == [as_bytes(unfolded_evaluate(params, link)) for link in links]


@pytest.mark.parametrize("r", range(4, 8))
def test_unlinked_components_match_the_sweep(r):
    """Labelings that leave a nonzero component with no kept crossing
    joining it to a nonzero strand: alone (no sweep at all) or beside a
    linked part, labels up to r - 2, so boxes closed on themselves; each
    is valued as one sweep of the whole cabled diagram."""
    params = make_params(r, second_root(r))
    rng = random.Random(f"unlinked:{r}")
    seen = {False: 0, True: 0}  # labelings without and with a linked part
    while min(seen.values()) < 3:
        n = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 5))]
        comps = len(closed_braid_link(word, n).components)
        labels = [rng.choice((0, 0, 1, rng.randint(2, r - 2))) for _ in range(comps)]
        link = closed_braid_link(word, n, labels, [rng.randint(-3, 3) for _ in range(comps)])
        reduced = sk._reduction(link)
        dropped, framings, comp_of = reduced.dropped, reduced.framings, link.comp_of
        linked = {comp_of[x] for t, (a, b, _, _) in enumerate(link.crossings) for x in (a, b)
                  if t not in dropped and labels[comp_of[a]] and labels[comp_of[b]]}
        boxes = [i for i, k in enumerate(labels) if k >= 2 and i not in linked]
        if not boxes or cabled_weight(link, labels, r) > 40:
            continue
        seen[bool(linked)] += 1
        got = sk._evaluate_labeled(params, reduced, labels)
        assert as_bytes(got) == as_bytes(swept_labeled(params, link, labels, dropped, framings)), \
            (link.to_json(), labels)
