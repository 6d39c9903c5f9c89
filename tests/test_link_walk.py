"""The strand walk `skein._walk` against the fixpoint and permutation
routines it replaced.

`reference_orientations` reassigns head/tail roles of arc ends until nothing
changes, and gives a crossing left undecided (its over strand never passes
under) the over strand entering at b.  `reference_closure` finds a closed
braid's components as the cycles of its permutation, ordered by smallest
position, with a union-find over a-c and b-d for their arcs.  Both are kept
as they stood before the walk; orientations, crossing signs and closure arc
lists must agree with them, on closures that have components passing only
over, on every move's output and on diagrams with drawn kinks.
"""
import itertools
import json
import random

import pytest

from skeinrep import cli
from skeinrep import skein as sk
from skeinrep.skein import (BalancedStabilization, CircumcisionPair, HandleSlide,
                            LabeledLink, LinkFormatError, apply_move, closed_braid_link,
                            split_union, unknot_link)
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
    strand_of = {a: g for g in strands.groups() for a in g}
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
    comp_of = link.arc_component()
    return bool({comp_of[x[1]] for x in link.crossings} - {comp_of[x[0]] for x in link.crossings})


def check_orientations(link):
    want = reference_orientations(link.crossings)
    strands, ob, consistent = sk._walk(link.crossings)
    assert consistent and ob == want, link.to_json()
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
        assert link.crossings == crossings
        assert [c.arcs for c in link.components] == arc_lists
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
    assert all(c.arcs == sorted(c.arcs) for c in out.components[1:])
    bare = apply_move(unknot_link(), CircumcisionPair(0))
    assert bare.components[0].arcs == sorted(bare.components[0].arcs)


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
    a, b, c, d = link.crossings[0]
    link.crossings[0] = [c, d, a, b]
    return link


def test_inconsistent_diagram_validates_but_has_no_orientation(capsys, tmp_path):
    link = rotated_trefoil()
    link.validate()
    with pytest.raises(LinkFormatError):
        reference_orientations(link.crossings)
    assert not sk._walk(link.crossings)[2]
    with pytest.raises(LinkFormatError):
        link.orientations()
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps(link.to_json()))
    assert cli.run(["eval-link", "--r", "4", "--link", str(path)]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == "domain"


def test_component_of_two_strands_rejected():
    hopf = closed_braid_link([1, 1], 2)
    merged = LabeledLink([sk.Component(1, 0, sorted(hopf.components[0].arcs
                                                    + hopf.components[1].arcs))],
                         hopf.crossings)
    with pytest.raises(LinkFormatError):
        merged.validate()


def test_clasp_word_that_permutes_side_strands_rejected():
    link = closed_braid_link([1, 1, 1], 2)
    with pytest.raises(LinkFormatError):
        sk._clasp_after(link, 0, [1], [sk.Component(sk.OMEGA, 0)])
