"""`skein._reduction`: the Reidemeister I kinks and II bigons that
`skein.evaluate` runs straight through, once per link, before it sweeps any
labeling.

- Local identities of the label-1 state sum: each kink slot pair that
  `skein._removal` accepts is mu_1^e times the strand run through it, e its
  sign; and of the two-crossing tangles joined by two arcs at adjacent
  slots in opposite cyclic orders, it accepts exactly those equal to
  their two strands run through (not a clasp, whose strand is under at
  one end and over at the other), and none with the same order at both.
- Differential: `evaluate` against `oracles.unfolded_evaluate`, which
  sweeps the whole diagram of every labeling, byte for byte, on seeded
  closed braids with inserted sigma sigma^-1 pairs and kinks from end
  generators, and on the outputs of all four moves; and every labeling's
  reduced sweep against its unreduced one.
- Irreducible diagrams drop nothing.
"""
import itertools
import random

import pytest

from oracles import swept, unfolded_evaluate, unreduced_labeled
from skeinrep import skein as sk
from skeinrep.recoupling import twist_coefficient
from skeinrep.scalars import make_params
from skeinrep.skein import (BalancedStabilization, CircumcisionPair, HandleSlide,
                            LinkFormatError, apply_move, closed_braid_link, split_union,
                            unknot_link)
from test_label_fold import second_root
from test_link_walk import rotated_trefoil
from test_skein_sweep import as_bytes, labelings

LEVELS = [(r, s) for r in range(3, 9) for s in (1, second_root(r))]


# ----- local identities -----


def run_through(pairing, gone):
    """(pairing, loops) of the diagram whose crossings `pairing` joins, with
    the crossings in `gone` run straight through (slot s to s + 2) and the
    others renumbered in order: their ports' new partners, and the closed
    loops that pass through no other crossing."""
    kept = sorted({x for x, _ in pairing} - set(gone))
    index = {x: i for i, x in enumerate(kept)}
    out, passed = {}, set()
    for x, s in pairing:
        if x in gone:
            continue
        y, t = pairing[(x, s)]
        while y in gone:
            passed |= {(y, t), (y, (t + 2) % 4)}
            y, t = pairing[(y, (t + 2) % 4)]
        out[(index[x], s)] = (index[y], t)
    loops = 0
    for start in pairing:
        if start[0] in gone and start not in passed:
            loops += 1
            y, t = start
            while (y, t) not in passed:
                passed |= {(y, t), (y, (t + 2) % 4)}
                y, t = pairing[(y, (t + 2) % 4)]
    return out, loops


def sweep(params, pairing, loops=0):
    return swept(params, ["X"] * len({x for x, _ in pairing}), pairing, loops)


def drop_holds(params, pairing, gone, sign):
    """Whether the diagram of `pairing` evaluates to mu_1^sign times the
    diagram with the crossings `gone` run straight through."""
    value = sweep(params, *run_through(pairing, gone)) * twist_coefficient(params, 1, sign)
    return as_bytes(sweep(params, pairing)) == as_bytes(value)


def pairing_of(arcs):
    """The symmetric pairing of the (port, port) list `arcs`, and its
    `partner` list: partner[4x + s] is the port 4y + t that (x, s) is
    joined to."""
    pairing = {}
    for u, v in arcs:
        pairing[u], pairing[v] = v, u
    partner = [0] * len(pairing)
    for (x, s), (y, t) in pairing.items():
        partner[4 * x + s] = 4 * y + t
    return pairing, partner


@pytest.mark.parametrize("r,s", [(3, 1), (5, 3), (7, 1), (8, 5)])
def test_each_kink_is_mu_times_the_strand(r, s):
    """The arc at slots q, q + 1 of crossing 0, its two other ends joined
    through crossing 1 at opposite slots, so that no other move is there: a
    kink of sign +1 for q odd and -1 for q even, and the diagram is mu_1 to
    that sign times the strand run through it (a tangle with two ends is
    one pairing, so one closure decides)."""
    params = make_params(r, s)
    for q in range(4):
        pairing, partner = pairing_of([((0, q), (0, (q + 1) % 4)), ((0, (q + 2) % 4), (1, 0)),
                                       ((0, (q + 3) % 4), (1, 2)), ((1, 1), (1, 3))])
        move = sk._removal(partner, 0)
        assert move == ((0,), 1 if q % 2 else -1), q
        assert drop_holds(params, pairing, *move), q


def bigon_tangles():
    """(arcs, ends): two arcs from slots q, q + 1 of crossing 0 to adjacent
    slots of crossing 1, in either cyclic order there, and the four open
    ports, crossing 0's then crossing 1's, for every q and slot pair."""
    for q, j in itertools.product(range(4), repeat=2):
        for a, b in (((j + 1) % 4, j), (j, (j + 1) % 4)):
            arcs = [((0, q), (1, a)), ((0, (q + 1) % 4), (1, b))]
            ends = [(0, (q + 2) % 4), (0, (q + 3) % 4)]
            ends += [(1, t) for t in range(4) if t not in (a, b)]
            yield arcs, ends


@pytest.mark.parametrize("r,s", [(3, 1), (5, 3), (7, 1), (8, 5)])
def test_bigons_are_dropped_exactly_when_they_run_through(r, s):
    """A tangle holds when it equals its two strands run through at all
    three closures of its open ports (the three pairings of four ends are
    independent while d is not 0, 1 or -2).  `_removal` reads the tangle
    with its ends joined to a third crossing at slots that form no other
    move at crossing 0.  Of the 16 tangles whose arcs sit in opposite
    cyclic orders, it accepts exactly the 8 that hold, those with one
    strand under at both ends; the 8 others are clasps.  It accepts none
    of the 16 whose arcs sit in the same order at both crossings, which no
    planar diagram has (8 of them hold too)."""
    params = make_params(r, s)
    accepted = 0
    for arcs, ends in bigon_tangles():
        holds = all(drop_holds(params, pairing_of(arcs + close)[0], (0, 1), 0)
                    for close in ([(ends[0], ends[1]), (ends[2], ends[3])],
                                  [(ends[0], ends[2]), (ends[1], ends[3])],
                                  [(ends[0], ends[3]), (ends[1], ends[2])]))
        embedded = arcs + list(zip(ends, [(2, 0), (2, 2), (2, 1), (2, 3)]))
        move = sk._removal(pairing_of(embedded)[1], 0)
        (_, (_, a)), (_, (_, b)) = arcs
        if (a - b) % 4 == 1:
            assert (move is not None) == holds, arcs
        assert move in (None, ((0, 1), 0)) and (move is None or holds), arcs
        accepted += move is not None
    assert accepted == 8


# ----- differential -----


def cabled_weight(link, labels, r):
    """Nodes of the unreduced cabled diagram at the top of the omega range."""
    top = [r - 2 if k == sk.OMEGA else k for k in labels]
    comp_of = link.arc_component()
    return sum(top[comp_of[a]] * top[comp_of[b]] for a, b, _, _ in link.crossings) + max(top)


def reducible_closure(rng, r, cap=32):
    """A closed braid on 2-5 strands with sigma sigma^-1 pairs inserted and
    kinks from end generators (a new last strand crossed once by the end
    generator), labels 0..(r-2)/2 or omega (at most one), framings -2..2,
    of cabled weight at most `cap`."""
    while True:
        n = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 5))]
        for _ in range(rng.randint(0, 2)):
            g, at = rng.choice((1, -1)) * rng.randint(1, n - 1), rng.randint(0, len(word))
            word[at:at] = [g, -g]
        for _ in range(rng.randint(0, 2)):
            word.insert(rng.randint(0, len(word)), rng.choice((1, -1)) * n)
            n += 1
        comps = len(closed_braid_link(word, n).components)
        labels = [rng.choice(list(range((r - 2) // 2 + 1)) + [sk.OMEGA]) for _ in range(comps)]
        if labels.count(sk.OMEGA) > 1:
            continue
        link = closed_braid_link(word, n, labels, [rng.randint(-2, 2) for _ in range(comps)])
        if cabled_weight(link, labels, r) <= cap:
            return link


def move_outputs(rng, link):
    """The outputs of the four moves on `link`: a balanced stabilization, a
    circumcision pair split and around a component, and a slide over a
    split omega circle."""
    i = rng.randrange(len(link.components))
    circle = split_union(link, unknot_link(sk.OMEGA, rng.choice((-1, 1))))
    return [apply_move(link, BalancedStabilization()), apply_move(link, CircumcisionPair(None)),
            apply_move(link, CircumcisionPair(i)),
            apply_move(circle, HandleSlide(i, len(circle.components) - 1))]


@pytest.mark.parametrize("r,s", LEVELS)
def test_evaluate_matches_the_whole_diagram(r, s):
    params = make_params(r, s)
    rng = random.Random(f"reduction:{r}:{s}")
    dropped = []
    for _ in range(10):
        link = reducible_closure(rng, r)
        dropped.append((len(sk._reduction(link).dropped), len(link.crossings)))
        assert as_bytes(sk.evaluate(params, link)) == as_bytes(unfolded_evaluate(params, link)), \
            link.to_json()
        for labels in labelings(params, link):
            got = sk._evaluate_labeled(params, sk._reduction(link), labels)
            assert as_bytes(got) == as_bytes(unreduced_labeled(params, link, labels)), \
                (link.to_json(), labels)
    # diagrams reduced in part, and reduced to circles
    assert any(0 < k < n for k, n in dropped) and any(0 < k == n for k, n in dropped)


@pytest.mark.parametrize("r,s", LEVELS)
def test_move_outputs_match_the_whole_diagram(r, s):
    """Every labeling that `evaluate` sweeps, labels 0..(r-2)/2 (omega
    folds onto them), reduced against unreduced; and up to r = 6, where
    the unfolded omega sums stay small, `evaluate` against the whole
    diagram."""
    params = make_params(r, s)
    rng = random.Random(f"reduction-moves:{r}:{s}")
    for _ in range(2):
        for out in move_outputs(rng, reducible_closure(rng, r, cap=8)):
            reduced = sk._reduction(out)
            choices = [range((r - 2) // 2 + 1) if c.label == sk.OMEGA else [c.label]
                       for c in out.components]
            for labels in itertools.product(*choices):
                got = sk._evaluate_labeled(params, reduced, labels)
                assert as_bytes(got) == as_bytes(unreduced_labeled(params, out, labels)), \
                    (out.to_json(), labels)
            if r <= 6:
                assert as_bytes(sk.evaluate(params, out)) == \
                    as_bytes(unfolded_evaluate(params, out)), out.to_json()


def test_kink_signs_become_framings():
    """A stabilized trefoil drops its two kinks and keeps its clasps: the
    signs of the kinks move into the framing, so framing plus self-writhe
    is unchanged."""
    link = closed_braid_link([1, 1, 2, 1, -3], 4, framings=[2])
    reduced = sk._reduction(link)
    assert reduced.dropped == {2, 4} and reduced.framings == [2 + 1 - 1]
    unkinked = closed_braid_link([1, 1, 1], 2, framings=[2])
    assert sk.linking_matrix(link) == sk.linking_matrix(unkinked)
    for r in (4, 6):
        params = make_params(r)
        assert sk.evaluate(params, link) == sk.evaluate(params, unkinked)


def test_removals_expose_further_moves():
    """sigma1 sigma2 sigma1 sigma2^-1 closes to an unknot: at first only
    crossings 1 and 3 (sigma2 and its inverse) are a move; once they are run
    through, sigma1 sigma1 are two kinks.  All four crossings drop, and the
    framing takes the writhe 2."""
    link = closed_braid_link([1, 2, 1, -2], 3, labels=[2])
    flat = [a for x in link.crossings for a in x]
    partner = [next(q for q, b in enumerate(flat) if b == a and q != p) for p, a in enumerate(flat)]
    assert [sk._removal(partner, t) is not None for t in range(4)] == [False, True, False, True]
    reduced = sk._reduction(link)
    assert (reduced.dropped, reduced.framings) == ({0, 1, 2, 3}, [2])
    for r in (4, 7):
        params = make_params(r)
        assert sk.evaluate(params, link) == sk.evaluate(params, unknot_link(2, 2))


# ----- irreducible diagrams -----


def test_irreducible_diagrams_drop_nothing():
    """The trefoil, the figure-eight, the Hopf clasp and the outputs of a
    circumcision pair on the trefoil have no kink and no bigon."""
    trefoil = closed_braid_link([1, 1, 1], 2, labels=[2], framings=[1])
    for link in (trefoil, closed_braid_link([1, -2, 1, -2], 3, labels=[1]),
                 closed_braid_link([1, 1], 2, labels=[5, 5]),
                 apply_move(trefoil, CircumcisionPair(0)),
                 apply_move(trefoil, CircumcisionPair(None))):
        reduced = sk._reduction(link)
        assert not reduced.dropped and reduced.framings == [c.framing for c in link.components], \
            link.to_json()


def test_arc_in_opposite_slots_is_left_alone():
    """An arc in opposite slots of a crossing (non-planar input) is not a
    kink."""
    link = sk.LabeledLink([sk.Component(1, 0, [1]), sk.Component(1, 0, [2])], [[1, 2, 1, 2]])
    reduced = sk._reduction(link)
    assert not reduced.dropped and reduced.framings == [0, 0]


def test_inconsistent_diagram_raises_before_any_reduction(monkeypatch):
    link = rotated_trefoil()
    with pytest.raises(LinkFormatError):
        sk._reduction(link)
    reductions = []
    monkeypatch.setattr(sk, "_reduction", reductions.append)
    with pytest.raises(LinkFormatError):
        sk.evaluate(make_params(4), link)
    assert reductions == []
