"""`skein.evaluate` piece by piece: the diagram left by the Reidemeister
reduction splits into crossingless components, each a split unknot valued
in closed form (`skein._circle`), and linked pieces, each swept over its
own labelings with every other component held at label 0.

- Pieces: `skein._pieces` against the components of the graph whose
  vertices are the link's components and whose edges are its kept
  crossings, found here by search; two components in different pieces
  have linking number 0.
- Differential: `evaluate` against `oracles.unfolded_evaluate`, which
  sweeps the whole unreduced diagram of every labeling, byte for byte, on
  seeded split unions at r = 3..8 and two roots each: closures beside
  unknots, closures beside components that sigma sigma^-1 pairs leave as
  circles, and the outputs of a balanced stabilization and of a split
  circumcision pair; labels 0..r-2 or omega, framings -3..3.  A
  circumcision pair's omega Hopf link unfolds into (r-1)^2 cabled sweeps
  of labels up to r - 2, so above r = 6 its output is checked against the
  value of the link it was added to, checked against the oracle.
- Counts: no crossingless component is swept with a nonzero label, a link
  of circles sweeps nothing, and two split omega Hopf links sweep the sum
  of their sweeps, not the product.
"""
import random

import pytest

from oracles import unfolded_evaluate
from skeinrep import skein as sk
from skeinrep.scalars import make_params
from skeinrep.skein import (BalancedStabilization, CircumcisionPair, apply_move,
                            closed_braid_link, split_union, unknot_link)
from test_label_fold import second_root
from test_reduction import cabled_weight
from test_skein_sweep import as_bytes

LEVELS = [(r, s) for r in range(3, 9) for s in (1, second_root(r))]
CAP = 12


def random_label(rng, r):
    return rng.choice([*range(r - 1), sk.OMEGA])


def small_closure(rng, r, omegas=1, bigons=0):
    """A closed braid on 2-4 strands, labels 0..r-2 or omega (at most
    `omegas`), framings -3..3, with `bigons` new last strands, each crossed
    by a sigma sigma^-1 pair of the end generator and so a circle of the
    reduced diagram, and a cabled weight (omega at r - 2) at most CAP."""
    while True:
        n = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 4))]
        for _ in range(bigons):
            g, at = rng.choice((1, -1)) * n, rng.randint(0, len(word))
            word[at:at] = [g, -g]
            n += 1
        comps = len(closed_braid_link(word, n).components)
        labels = [random_label(rng, r) for _ in range(comps)]
        if labels.count(sk.OMEGA) > omegas:
            continue
        link = closed_braid_link(word, n, labels, [rng.randint(-3, 3) for _ in range(comps)])
        if cabled_weight(link, labels, r) <= CAP:
            return link


def split_cases(rng, r):
    """(link, base): seeded split unions, with base the link a move was
    applied to, or None."""
    unknots = [unknot_link(random_label(rng, r), rng.randint(-3, 3))
               for _ in range(rng.randint(1, 2))]
    base = small_closure(rng, r, omegas=0)
    return [(split_union(small_closure(rng, r, omegas=1), *unknots), None),
            (small_closure(rng, r, omegas=1, bigons=rng.randint(1, 2)), None),
            (apply_move(small_closure(rng, r, omegas=0), BalancedStabilization()), None),
            (apply_move(base, CircumcisionPair(None)), base)]


def graph_pieces(link):
    """(pieces, circles) of `link`'s reduced diagram by search over its
    kept crossings."""
    dropped = sk._reduction(link).dropped
    comp_of = link.arc_component()
    near = {i: set() for i in range(len(link.components))}
    for t, (a, b, _, _) in enumerate(link.crossings):
        if t not in dropped:
            near[comp_of[a]].add(comp_of[b])
            near[comp_of[b]].add(comp_of[a])
    pieces, seen = [], set()
    for i in near:
        if i in seen or not near[i]:
            continue
        piece, todo = set(), [i]
        while todo:
            j = todo.pop()
            if j not in piece:
                piece.add(j)
                todo += near[j]
        seen |= piece
        pieces.append(sorted(piece))
    return pieces, [i for i in near if not near[i]]


def test_pieces_are_the_kept_crossing_graph():
    rng = random.Random("pieces")
    shapes = set()
    for r in (4, 7):
        for _ in range(30):
            for link, _ in split_cases(rng, r):
                got = sk._pieces(sk._reduction(link))
                assert got == graph_pieces(link), link.to_json()
                shapes.add((len(got[0]), bool(got[1])))
                # the linking number of two components in different pieces is 0
                group = {i: g for g, piece in enumerate(got[0] + [[i] for i in got[1]])
                         for i in piece}
                lk = sk.linking_matrix(link)
                assert all(lk[i][j] == 0 for i in group for j in group if group[i] != group[j])
    # links of circles only, one piece beside circles, and two pieces
    assert {(0, True), (1, True), (2, True)} <= shapes
    trefoil = closed_braid_link([1, 1, 1], 2)
    link = split_union(trefoil, unknot_link(2), closed_braid_link([1, 1], 2),
                       closed_braid_link([1, -1], 2))
    assert sk._pieces(sk._reduction(link)) == ([[0], [2, 3]], [1, 4, 5])


@pytest.mark.parametrize("r,s", LEVELS)
def test_evaluate_matches_the_whole_diagram_on_split_unions(r, s):
    params = make_params(r, s)
    rng = random.Random(f"split:{r}:{s}")
    for _ in range(2):
        for link, base in split_cases(rng, r):
            want = (unfolded_evaluate(params, link) if base is None or r <= 6
                    else unfolded_evaluate(params, base))
            assert as_bytes(sk.evaluate(params, link)) == as_bytes(want), link.to_json()


def counting(monkeypatch):
    """The labelings that `skein._evaluate_labeled` is called with, as
    `evaluate` runs."""
    swept = []
    sweep = sk._evaluate_labeled

    def count(params, reduced, labels):
        swept.append(tuple(labels))
        return sweep(params, reduced, labels)

    monkeypatch.setattr(sk, "_evaluate_labeled", count)
    return swept


def test_crossingless_components_are_not_swept(monkeypatch):
    swept = counting(monkeypatch)
    rng = random.Random("unswept")
    circled = 0
    for r in (4, 6, 8):
        params = make_params(r)
        for _ in range(5):
            for link, _ in split_cases(rng, r):
                pieces, circles = sk._pieces(sk._reduction(link))
                swept.clear()
                sk.evaluate(params, link)
                assert all(labels[i] == 0 for labels in swept for i in circles)
                assert pieces or not swept
                circled += bool(circles) and any(
                    link.components[i].label for i in circles)
    assert circled
    swept.clear()
    link = closed_braid_link([1, -1, 2, -2, 3], 4, [sk.OMEGA, 4, 5], [1, -2, 3])
    assert sk._pieces(sk._reduction(link)) == ([], [0, 1, 2])
    sk.evaluate(make_params(8), link)
    assert swept == []


def test_split_pieces_add_their_sweeps(monkeypatch):
    """An omega Hopf link split from another at r = 8: the union sweeps
    each piece's canonical labelings once, 9 + 9 where the canonical
    labelings of the whole link are 9 * 9, and its value is the product
    of the pieces' values.  A split circumcision pair beside it adds the
    5 sweeps of its own 0-framed Hopf link."""
    swept = counting(monkeypatch)
    params = make_params(8)
    hopf = closed_braid_link([1, 1], 2, [sk.OMEGA, sk.OMEGA], [3, -1])
    pair = closed_braid_link([1, 1], 2, [sk.OMEGA, sk.OMEGA])
    values, counts = [], []
    for link in (hopf, pair, split_union(hopf, hopf), apply_move(hopf, CircumcisionPair(None))):
        swept.clear()
        values.append(sk.evaluate(params, link))
        counts.append(len(swept))
    assert counts == [9, 5, 9 + 9, 9 + 5]
    assert as_bytes(values[2]) == as_bytes(values[0] * values[0])
    assert as_bytes(values[3]) == as_bytes(values[0] * values[1])
