"""The strand walk `skein._walk`, and the cabled diagram read off it,
against the routines they replaced.

`reference_orientations` reassigns head/tail roles of arc ends until nothing
changes, and gives a crossing left undecided (its over strand never passes
under) the over strand entering at b.  `reference_closure` finds a closed
braid's components as the cycles of its permutation, ordered by smallest
position, with a union-find over a-c and b-d for their arcs.
`oracles.cabled_reference` names every cable sub-arc, joins the names
across crossings with a label-0 partner or dropped by `skein._reduction`
in a union-find, and pairs ports through an occurrence table.  All three
are kept as they stood before the walk; orientations, crossing signs and
closure arc lists must agree with them, the pairing of arc ends that a
link keeps must be the one `reference_pairing` finds by search over its
crossings, and the cabled diagram of the reduced diagram must have the
reference's node kinds and port pairing, on integer ports, with no
upfront loop, on closures that have components passing only over, on
every move's output, on diagrams with drawn kinks and on closures with
bigons and kinks that the reduction drops.
"""
import dataclasses
import itertools
import json
import random

import pytest

from helpers import groups
from oracles import cabled_reference, ports
from skeinrep import cli
from skeinrep import skein as sk
from skeinrep.scalars import make_params
from skeinrep.skein import (BalancedStabilization, CircumcisionPair, HandleSlide, LabeledLink,
                            LinkFormatError, apply_move, closed_braid_link, split_union,
                            unknot_link)
from skeinrep.unionfind import UnionFind
from test_skein_sweep import kinked_link, random_closed_braid


def reference_orientations(crossings):
    occ = {}
    for t, x in enumerate(crossings):
        for s, a in enumerate(x):
            occ.setdefault(a, []).append((t, s))
    ob = [None] * len(crossings)

    def occ_role(t, s):
        """'head' if the arc ends at this occurrence, 'tail' if it
        starts here; None if still undecided."""
        if s == 0:
            return "head"
        if s == 2:
            return "tail"
        if ob[t] is None:
            return None
        if s == 1:
            return "head" if ob[t] else "tail"
        return "tail" if ob[t] else "head"

    changed = True
    while changed:
        changed = False
        for a, places in occ.items():
            (t1, s1), (t2, s2) = places
            r1, r2 = occ_role(t1, s1), occ_role(t2, s2)
            if r1 is not None and r2 is not None:
                if r1 == r2 and (t1, s1) != (t2, s2):
                    raise LinkFormatError(f"arc {a} has two {r1}s: inconsistent orientations")
                continue
            if r1 is None and r2 is None:
                continue
            # exactly one undecided; it sits at an over slot
            (tu, su), known = ((t1, s1), r2) if r1 is None else ((t2, s2), r1)
            want = "tail" if known == "head" else "head"
            ob[tu] = (want == "head") if su == 1 else (want == "tail")
            changed = True
        if not changed:
            rest = [t for t in range(len(crossings)) if ob[t] is None]
            if rest:
                ob[rest[0]] = True
                changed = True
    return ob


def reference_closure(word, n):
    """(crossings, sorted arc list per component) of the closure of `word`."""
    cur = list(range(1, n + 1))
    start = list(cur)
    nxt = itertools.count(n + 1)
    crossings = []
    perm = list(range(n + 1))  # perm[p] = position where the strand starting at p ends
    where = list(range(n + 1))  # where[pos] = starting position of the strand now there
    for g in word:
        i = abs(g)
        crossings.append(sk._braid_crossing(cur, g, nxt))
        where[i], where[i + 1] = where[i + 1], where[i]
    for pos in range(1, n + 1):
        perm[where[pos]] = pos
    rename = {cur[p - 1]: start[p - 1] for p in range(1, n + 1) if cur[p - 1] != start[p - 1]}
    crossings = [[rename.get(a, a) for a in x] for x in crossings]
    strands = UnionFind()
    for a, b, c, d in crossings:
        strands.union(a, c)
        strands.union(b, d)
    strand_of = {a: g for g in groups(strands, [a for x in crossings for a in x]) for a in g}
    seen = set()
    arc_lists = []
    for p0 in range(1, n + 1):
        if p0 in seen:
            continue
        p = p0
        while p not in seen:
            seen.add(p)
            p = perm[p]
        arc_lists.append(sorted(strand_of.get(start[p0 - 1], [])))
    return crossings, arc_lists


def random_word(rng, n, length):
    return [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length)]


def over_only(link):
    """Whether some component of `link` passes only over."""
    comp_of = link.comp_of
    return bool({comp_of[x[1]] for x in link.crossings} - {comp_of[x[0]] for x in link.crossings})


def reference_pairing(crossings):
    """The slot 4u + s at the other end of the arc at each slot, found by
    searching the crossings for the arc's other occurrence."""
    flat = [a for x in crossings for a in x]
    return tuple(next(q for q, b in enumerate(flat) if b == a and q != p)
                 for p, a in enumerate(flat))


def check_orientations(link):
    want = reference_orientations(link.crossings)
    strands, ob, _, consistent = sk._walk(link.crossings)[:4]
    assert consistent and ob == want, link.to_json()
    assert link.walk[4] == reference_pairing(link.crossings)
    assert link.orientations() == want
    assert link.crossing_signs() == [1 if o else -1 for o in want]
    assert sorted(sorted(arcs) for arcs in strands) == \
        sorted(sorted(c.arcs) for c in link.components if c.arcs)


def test_closures_match_reference():
    rng = random.Random(14)
    passing_over = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        word = random_word(rng, n, rng.randint(0, 10)) if n > 1 else []
        link = closed_braid_link(word, n)
        crossings, arc_lists = reference_closure(word, n)
        assert [list(x) for x in link.crossings] == crossings
        assert [list(c.arcs) for c in link.components] == arc_lists
        check_orientations(link)
        passing_over += over_only(link)
    assert passing_over >= 20


def test_move_outputs_match_reference():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 4)
        link = closed_braid_link(random_word(rng, n, rng.randint(0, 6)) if n > 1 else [], n)
        slid = split_union(link, unknot_link(sk.OMEGA, rng.choice([-2, -1, 1, 2])))
        outs = [apply_move(link, move) for move in
                (CircumcisionPair(None), CircumcisionPair(0), BalancedStabilization())]
        outs.append(apply_move(slid, HandleSlide(0, len(slid.components) - 1)))
        outs.append(apply_move(outs[1], CircumcisionPair(len(outs[1].components) - 1)))
        for out in outs:
            check_orientations(out)


def test_clasp_keeps_first_arc_and_sorts_new_components():
    link = closed_braid_link([1, -2, 1], 3)
    out = apply_move(link, CircumcisionPair(0))
    assert out.components[0].arcs[:len(link.components[0].arcs)] == link.components[0].arcs
    assert all(list(c.arcs) == sorted(c.arcs) for c in out.components[1:])
    bare = apply_move(unknot_link(), CircumcisionPair(0))
    assert list(bare.components[0].arcs) == sorted(bare.components[0].arcs)


@pytest.mark.parametrize("r", [4, 5])
def test_kinked_links_match_reference(r):
    rng = random.Random(r)
    for _ in range(8):
        link = random_closed_braid(rng, r)
        labels = [rng.randint(1, r - 2) if c.label == sk.OMEGA else c.label
                  for c in link.components]
        check_orientations(kinked_link(link, labels))
    for framing in (-2, -1, 1, 2):
        check_orientations(kinked_link(unknot_link(1, framing), [1]))


def rotated_trefoil():
    """A trefoil closure with its first crossing listed from slot c: the
    strand through its under-pass runs c -> a, against the other two."""
    link = closed_braid_link([1, 1, 1], 2)
    (a, b, c, d), *rest = link.crossings
    return LabeledLink(link.components, [(c, d, a, b), *rest])


def test_inconsistent_diagram_validates_but_has_no_orientation(capsys, tmp_path):
    link = rotated_trefoil()
    with pytest.raises(LinkFormatError):
        reference_orientations(link.crossings)
    assert not sk._walk(link.crossings)[3]
    with pytest.raises(LinkFormatError):
        link.orientations()
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps(link.to_json()))
    assert cli.run(["eval-link", "--r", "4", "--link", str(path)]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == "domain"


def test_component_of_two_strands_rejected():
    hopf = closed_braid_link([1, 1], 2)
    with pytest.raises(LinkFormatError):
        LabeledLink([sk.Component(1, 0, sorted(hopf.components[0].arcs
                                               + hopf.components[1].arcs))],
                    hopf.crossings)


def test_clasp_word_that_permutes_side_strands_rejected():
    link = closed_braid_link([1, 1, 1], 2)
    with pytest.raises(LinkFormatError):
        sk._clasp_after(link, 0, [1], [sk.Component(sk.OMEGA, 0)])


# ----- the cabled diagram against the aliasing builder it replaced -----

def check_cabled(params, link, labelings):
    """`skein._cabled_diagram` of the reduced diagram equals the
    reference's (``oracles.cabled_reference``, the crossings that
    `skein._reduction` drops run straight through), compared on integer
    ports, for each labelling with every component that no kept crossing
    joins to a nonzero strand at label 0, as `skein._evaluate_labeled`
    cables it; no loop then touches no node.  Returns the number
    checked."""
    reduced = sk._reduction(link)
    for labels in labelings:
        linked = {x for i, j, _ in reduced.kept if labels[i] and labels[j] for x in (i, j)}
        cabled = [k if i in linked else 0 for i, k in enumerate(labels)]
        kinds, pairing, loops = cabled_reference(params, link, cabled, reduced.dropped)
        assert loops == 0, (link.to_json(), labels)
        assert sk._cabled_diagram(reduced, cabled) == (kinds, ports(kinds, pairing)), \
            (link.to_json(), labels)
    return len(labelings)


def every_labelling(params, link):
    return [list(ls) for ls in itertools.product(range(params.r - 1), repeat=len(link.components))]


def reduced_closure(rng, params):
    """A closed braid on 2-6 strands with sigma sigma^-1 pairs inserted
    and kinks from end generators (a new last strand crossed once by the
    end generator), framings -2..2, with at most 25 labellings at the
    level of `params`."""
    while True:
        n = rng.randint(2, 4)
        word = random_word(rng, n, rng.randint(0, 5))
        for _ in range(rng.randint(0, 2)):
            g, at = rng.choice((1, -1)) * rng.randint(1, n - 1), rng.randint(0, len(word))
            word[at:at] = [g, -g]
        for _ in range(rng.randint(0, 2)):
            word.insert(rng.randint(0, len(word)), rng.choice((1, -1)) * n)
            n += 1
        count = len(closed_braid_link(word, n).components)
        if (params.r - 1) ** count <= 25:
            return closed_braid_link(word, n, framings=[rng.randint(-2, 2) for _ in range(count)])


def test_cabled_diagram_matches_reference():
    """Every integer labelling, label 0 included, of 400 seeded closures at
    r = 4..6, of their drawn-kink diagrams and of every move's output; and
    of 200 seeded closures with bigons and kinks that `skein._reduction`
    drops, in part or all of them."""
    rng = random.Random(15)
    checked = 0
    for case in range(400):
        params = make_params(rng.randint(4, 6))
        while True:
            n = rng.randint(1, 4)
            word = random_word(rng, n, rng.randint(0, 8)) if n > 1 else []
            count = len(closed_braid_link(word, n).components)
            if (params.r - 1) ** count <= 25:
                break
        link = closed_braid_link(word, n, framings=[rng.randint(-2, 2) for _ in range(count)])
        labelings = every_labelling(params, link)
        checked += check_cabled(params, link, labelings)
        for labels in labelings:
            checked += check_cabled(params, kinked_link(link, labels), [labels])
        if case % 10 == 0 and count == 1:
            slid = split_union(link, unknot_link(sk.OMEGA, rng.choice([-2, -1, 1, 2])))
            outs = [apply_move(link, move) for move in
                    (CircumcisionPair(None), CircumcisionPair(0), BalancedStabilization())]
            outs.append(apply_move(slid, HandleSlide(0, 1)))
            for out in outs:
                checked += check_cabled(params, out, every_labelling(params, out))
    assert checked >= 13000
    rng, shapes = random.Random(16), set()
    for _ in range(200):
        params = make_params(rng.randint(4, 6))
        link = reduced_closure(rng, params)
        dropped = sk._reduction(link).dropped
        shapes.add((bool(dropped), len(dropped) == len(link.crossings)))
        checked += check_cabled(params, link, every_labelling(params, link))
    # diagrams reduced in part and reduced to circles
    assert {(True, False), (True, True)} <= shapes and checked >= 15000


def test_walk_counts(monkeypatch):
    """Every link is walked once, when it is built, and keeps that walk: a
    builder walks each diagram it makes once (a braid closure, a union, a
    move's output and the links a move is made of), a link over the
    crossings of one already built (the omega coloring, a slide over a
    0-framed circle) is not walked again, and evaluation walks nothing,
    also on a link whose kinks and bigons it runs straight through."""
    walked = []
    walk = sk._walk
    monkeypatch.setattr(sk, "_walk", lambda crossings: walked.append(1) or walk(crossings))
    params = make_params(4)
    link = closed_braid_link([1, 1, 1, 2], 3, labels=[1], framings=[1])
    circle = unknot_link(sk.OMEGA, 2)
    slid, flat = split_union(link, circle), split_union(link, unknot_link(sk.OMEGA, 0))
    blob = link.to_json()
    for count, build in ((1, lambda: closed_braid_link([1, 1, 1, 2], 3)),
                         (1, lambda: LabeledLink(link.components, link.crossings)),
                         (1, lambda: LabeledLink.from_json(blob)),
                         (1, lambda: split_union(link, circle)),
                         (0, lambda: sk.kirby_color_link(link)),
                         (1, lambda: apply_move(slid, HandleSlide(0, 1))),
                         (0, lambda: apply_move(flat, HandleSlide(0, 1))),
                         (1, lambda: apply_move(link, CircumcisionPair(0))),
                         (2, lambda: apply_move(link, CircumcisionPair(None))),
                         (3, lambda: apply_move(link, BalancedStabilization()))):
        walked.clear()
        out = build()
        assert len(walked) == count
        assert out.walk == walk(out.crossings)
        assert out.comp_of == {a: i for i, c in enumerate(out.components) for a in c.arcs}
    reducible = closed_braid_link([1, -1, 1, 2], 3, labels=[1], framings=[-1])
    assert sk._reduction(reducible).dropped
    for run in (lambda: sk.evaluate(params, link), lambda: sk.z_invariant(params, link),
                lambda: sk.evaluate(params, reducible), lambda: sk.z_invariant(params, reducible),
                lambda: sk.linking_matrix(link), link.orientations, link.crossing_signs):
        walked.clear()
        run()
        assert walked == []


def test_links_are_immutable():
    """A link and its components are frozen, their arc lists and crossings
    tuples, and the orientations handed out are a copy of the kept walk's."""
    link = closed_braid_link([1, 1], 2, labels=[sk.OMEGA, 2])
    comp = link.components[0]
    for obj, name in ((link, "components"), (link, "crossings"), (link, "walk"),
                      (link, "comp_of"), (comp, "label"), (comp, "framing"), (comp, "arcs")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
    assert all(type(x) is tuple for x in (link.components, link.crossings, *link.crossings,
                                          comp.arcs))
    link.orientations().append(None)
    assert link.orientations() == [True, True]
