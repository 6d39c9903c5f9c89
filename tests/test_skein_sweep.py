"""The packed, frontier-keyed skein sweep against a plain `Scalar` sweep.

The reference below keys every state by the pairing of all unprocessed
ports, picks the node order by rescanning every remaining node per step,
and keeps every coefficient a `Scalar`.  Both sweeps run on the same nodes,
the whole cabled diagram of `oracles.cabled_reference`, with its loops
that touch no node multiplied after the packed sweep (`oracles.swept`);
their values must have identical `to_json` bytes, and the node orders must
agree.  The width of each segment of the packed sweep is checked against
its bound B, computed here from its definition.

`skein.evaluate` draws no framing: it multiplies the blackboard value by
mu_k^f.  The reference draws it, splicing |f| kinks into the diagram
(`insert_kinks`), and sums its sweeps over the omega labelings with weights
c d_k; the two values must have identical `to_json` bytes.
"""
import itertools
import json
import math
import random
import sys

import pytest

from helpers import assert_narrowest_ring, ring_bits
from oracles import cabled_reference, ports, scale, swept
from skeinrep import linalg
from skeinrep import skein as sk
from skeinrep.scalars import common_denominator, make_params
from skeinrep.skein import (CircumcisionPair, HandleSlide, apply_move, closed_braid_link,
                            split_union, unknot_link)
from skeinrep.tl import jones_wenzl


def reference_order(kinds, pairing):
    processed, remaining, order = set(), set(range(len(kinds))), []
    while remaining:
        best, best_score = None, -1
        for idx in sorted(remaining):
            score = sum(1 for s in range(sk._port_count(kinds[idx]))
                        if pairing[(idx, s)][0] in processed or pairing[(idx, s)][0] == idx)
            if score > best_score:
                best, best_score = idx, score
        order.append(best)
        processed.add(best)
        remaining.discard(best)
    return order


def reference_sweep(params, kinds, pairing, loops_upfront):
    dval = params.loop_d()

    def key_of(pdict):
        return frozenset(frozenset((p, q)) for p, q in pdict.items() if p < q)

    states = {key_of(pairing): params.one()}
    for idx in reference_order(kinds, pairing):
        if kinds[idx] == "X":
            resolutions = [([((idx, 0), (idx, 3)), ((idx, 1), (idx, 2))], params.a_pow(1)),
                           ([((idx, 0), (idx, 1)), ((idx, 2), (idx, 3))], params.a_pow(-1))]
        else:
            resolutions = [([((idx, p), (idx, q)) for p, q in diag.pairs], coeff)
                           for diag, coeff in jones_wenzl(params, kinds[idx]).terms.items()]
        new_states = {}
        for key, coeff in states.items():
            pd = {}
            for pr in key:
                p, q = tuple(pr)
                pd[p], pd[q] = q, p
            for joins, rcoeff in resolutions:
                p2, c2 = dict(pd), coeff * rcoeff
                for x, y in joins:
                    px = p2.pop(x)
                    if px == y:
                        p2.pop(y)
                        c2 = c2 * dval
                        continue
                    py = p2.pop(y)
                    p2.pop(px, None)
                    p2.pop(py, None)
                    p2[px], p2[py] = py, px
                k2 = key_of(p2)
                new_states[k2] = new_states[k2] + c2 if k2 in new_states else c2
        states = {k: v for k, v in new_states.items() if not v.is_zero()}
        if not states:
            return params.zero()
    assert set(states) == {frozenset()}
    total = states[frozenset()]
    for _ in range(loops_upfront):
        total = total * dval
    return total


def as_bytes(value):
    return json.dumps(value.to_json(), sort_keys=True).encode()


def insert_kinks(crossings, occ_head, comp_arcs, framing, fresh):
    """Add |framing| kinks (sign of framing) to one arc of the component.

    Returns the extra crossings and the list of forced over-entry booleans
    for them.  `occ_head` maps arc -> (t, s) of its head occurrence.
    Mutates `crossings` in place when rewiring the cut arc.
    """
    extra, extra_ob = [], []
    if framing == 0:
        return extra, extra_ob
    positive = framing > 0
    if comp_arcs:
        u = comp_arcs[0]
        head = occ_head[u]
    else:
        u, head = next(fresh), None
    cur = u
    for step in range(abs(framing)):
        v = next(fresh)
        last = step == abs(framing) - 1
        nxt = next(fresh) if (head is not None or not last) else u
        if positive:
            extra.append([cur, v, v, nxt])
            extra_ob.append(True)
        else:
            extra.append([cur, nxt, v, v])
            extra_ob.append(False)
        cur = nxt
    if head is not None:
        t, s = head
        crossings[t][s] = cur
    return extra, extra_ob


def kinked_link(link, labels):
    """`link` labelled by the integers `labels`, with the framing f of each
    component of nonzero label drawn as |f| kinks and every framing then 0."""
    crossings = [list(x) for x in link.crossings]
    ob = link.orientations()
    arc_lists = [c.arcs for c in link.components]
    fresh = itertools.count(max([0] + [a for x in crossings for a in x]) + 1)
    for i, (k, comp) in enumerate(zip(labels, link.components)):
        if k == 0:
            continue
        extra, extra_ob = insert_kinks(crossings, sk._walk(crossings)[2],
                                       comp.arcs, comp.framing, fresh)
        crossings += extra
        ob += extra_ob
        arc_lists[i] = sorted(set(arc_lists[i]).union(*extra))
    kinked = sk.LabeledLink([sk.Component(k, 0, arcs) for k, arcs in zip(labels, arc_lists)],
                            crossings)
    assert kinked.orientations() == ob
    return kinked


def labelings(params, link):
    """Every integer labeling of `link`: omega expanded over 0..r-2."""
    choices = [range(params.r - 1) if c.label == sk.OMEGA else [c.label]
               for c in link.components]
    return [list(labels) for labels in itertools.product(*choices)]


def kinked_value(params, link):
    """The value of `link` from `reference_sweep` over its kinked diagrams,
    summed over the omega labelings with weights c d_k."""
    c, total = params.c_symbol(), params.zero()
    for labels in labelings(params, link):
        weight = params.one()
        for comp, k in zip(link.components, labels):
            if comp.label == sk.OMEGA:
                weight = weight * c * params.d_k(k)
        kinked = kinked_link(link, labels)
        diagram = cabled_reference(params, kinked, labels)
        total = total + weight * reference_sweep(params, *diagram)
    return total


def check_link(params, link):
    """Both sweeps on the blackboard diagram of every integer labeling of
    `link`, and `skein.evaluate` against the kinked reference."""
    for labels in labelings(params, link):
        kinds, pairing, loops_upfront = cabled_reference(params, link, labels)
        assert sk._greedy_order(kinds, ports(kinds, pairing)) == reference_order(kinds, pairing)
        got = swept(params, kinds, pairing, loops_upfront)
        want = reference_sweep(params, kinds, pairing, loops_upfront)
        assert as_bytes(got) == as_bytes(want), (link.to_json(), labels)
    assert as_bytes(sk.evaluate(params, link)) == as_bytes(kinked_value(params, link)), \
        link.to_json()


LEVELS = [(r, s) for r in (4, 5, 6) for s in ((1, 3) if r < 6 else (1, 5))]


def random_closed_braid(rng, r):
    """A closed braid on 2-5 strands, labels 0-3 or omega, framings -2..2,
    with a cabled size small enough for the reference sweep."""
    while True:
        n = rng.randint(2, 5)
        word = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 5))]
        comps = len(closed_braid_link(word, n).components)
        labels = [rng.choice([0, 1, 2, 3, sk.OMEGA]) for _ in range(comps)]
        labels = [l if l == sk.OMEGA or l <= r - 2 else 1 for l in labels]
        top = [r - 2 if l == sk.OMEGA else l for l in labels]
        if labels.count(sk.OMEGA) <= 1 and sum(k * k for k in top) * max(1, len(word)) <= 60:
            framings = [rng.randint(-2, 2) for _ in range(comps)]
            return closed_braid_link(word, n, labels=labels, framings=framings)


@pytest.mark.parametrize("r,s", LEVELS)
def test_closed_braids_match_reference(r, s):
    params = make_params(r, s)
    rng = random.Random(100 * r + s)
    for _ in range(6):
        check_link(params, random_closed_braid(rng, r))


@pytest.mark.parametrize("r,s", LEVELS)
def test_unknots_and_split_unions_match_reference(r, s):
    params = make_params(r, s)
    for label in (0, 1, 2, sk.OMEGA):
        for framing in (-2, 0, 2):
            check_link(params, unknot_link(label, framing))
    hopf = closed_braid_link([1, 1], 2, labels=[2, 1], framings=[1, -1])
    check_link(params, split_union(hopf, unknot_link(2, -1), unknot_link(1, 0)))


@pytest.mark.parametrize("r,s", LEVELS)
def test_framed_unknots_match_kinked_reference(r, s):
    """A framed crossingless loop has no arc of its own: the kinked
    reference draws all of its crossings."""
    params = make_params(r, s)
    for label in (0, 1, 2, r - 2, sk.OMEGA):
        for framing in range(-3, 4):
            check_link(params, unknot_link(label, framing))


def test_cable_crossings_do_not_depend_on_framing():
    """The cabled diagram is the blackboard one: a kept crossing of a
    k-labelled under strand and an l-labelled over strand gives k l
    crossing nodes, whatever the framings, and a framed crossingless loop
    gives none."""
    rng = random.Random(11)
    params = make_params(6)
    for _ in range(20):
        n = rng.randint(2, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 6))]
        count = len(closed_braid_link(word, n).components)
        labels = [rng.randint(0, 4) for _ in range(count)]
        framings = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(count)]
        link = closed_braid_link(word, n, labels=labels, framings=framings)
        comp_of, dropped = link.arc_component(), sk._reduction(link).dropped
        cabled = sum(labels[comp_of[a]] * labels[comp_of[b]]
                     for t, (a, b, _, _) in enumerate(link.crossings) if t not in dropped)
        for framed in (link, closed_braid_link(word, n, labels=labels)):
            kinds = sk._cabled_diagram(sk._reduction(framed), labels)[0]
            assert kinds.count("X") == cabled


@pytest.mark.parametrize("r,s", [(4, 1), (5, 3)])
def test_move_outputs_match_reference(r, s):
    params = make_params(r, s)
    env = closed_braid_link([1, 1], 2, labels=[sk.OMEGA, 1], framings=[1, 0])
    for around in (None, 0, 1):
        check_link(params, apply_move(env, CircumcisionPair(around)))
    slid = split_union(closed_braid_link([1, 1], 2, labels=[1, 2], framings=[0, 1]),
                       unknot_link(sk.OMEGA, 1))
    for i in (0, 1):
        check_link(params, apply_move(slid, HandleSlide(i, 2)))


# ----- the packed residues: width, bound, zero drop and c-odd values -----

def node_mass(params, kind):
    """sum_j |m_j|_1 2^|joins_j| over a node's resolutions, with m_j its
    multipliers over their lcm denominator: the most the node multiplies
    the total l1 mass of the states by."""
    if kind == "X":
        coeffs, joins = [params.a_pow(1), params.a_pow(-1)], 2
    else:
        coeffs, joins = list(jones_wenzl(params, kind).terms.values()), kind
    den = math.lcm(*(c.part[1] for c in coeffs))
    return sum(abs(n) * den // c.part[1] for c in coeffs for n in c.part[0]) << joins


def traced_sweep(params, kinds, pairing, loops_upfront):
    """The value of the diagram (``oracles.swept``) and the local variables
    of its `skein._sweep` as it returns."""
    seen = {}

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is sk._sweep.__code__:
            seen.update(frame.f_locals)
    sys.setprofile(profile)
    try:
        value = swept(params, kinds, pairing, loops_upfront)
    finally:
        sys.setprofile(None)
    return value, seen


def traced_segments(params, kinds, pairing, loops_upfront):
    """The value of the diagram (``oracles.swept``), the local variables of
    its `skein._sweep` as it returns, and one (values, segment) per
    `linalg.next_segment` call the sweep made: the
    (ring, den, residues) that the call decodes, None for the first, and
    the (k, ring, den, residues) of the segment it starts.  Only the calls
    made by `_sweep` itself count: a cold level memo builds a box's
    Jones-Wenzl terms inside the sweep, on chains with segments of their
    own."""
    seen, segments = {}, []

    def profile(frame, event, arg):
        if event != "return":
            return
        if frame.f_code is sk._sweep.__code__:
            seen.update(frame.f_locals)
        elif (frame.f_code is linalg.next_segment.__code__
              and frame.f_back.f_code is sk._sweep.__code__):
            values = frame.f_locals["values"]
            segments.append((values and (values[0], values[1], list(values[2])), arg))
    sys.setprofile(profile)
    try:
        value = swept(params, kinds, pairing, loops_upfront)
    finally:
        sys.setprofile(None)
    return value, seen, segments


def check_width(params, link, labels):
    """Each segment of the sweep runs in the level's narrowest ring for its
    bound B = mu * start mass * prod of its nodes' masses (the loops that
    touch no node multiply after the sweep): the start mass is 1 for the
    first segment and the l1 mass of the decoded states for a later one,
    and a segment takes the most nodes, at least one, with B < 2^62.  Every
    coefficient decoded at a segment's end, each state's at a boundary and
    the total at the last, is at most B, and the value matches the
    reference.  A diagram with no node sets up no segment and no ring.
    Returns the segments' widths b."""
    kinds, pairing, loops_upfront = cabled_reference(params, link, labels)
    value, seen, segments = traced_segments(params, kinds, pairing, loops_upfront)
    assert as_bytes(value) == as_bytes(reference_sweep(params, kinds, pairing, loops_upfront))
    if not kinds:
        assert segments == [] and "ring" not in seen
        return []
    masses = [node_mass(params, kinds[idx]) for idx in reference_order(kinds, pairing)]
    mu = max(abs(c) for e in range(params.order) for c in params.a_pow(e).part[0])
    at, widths = 0, []
    for i, (values, (k, ring, _, _)) in enumerate(segments):
        start = 1
        if values is not None:
            assert i > 0 and values[0] is segments[i - 1][1][1]
            _, nums = common_denominator(values[0].decode(z, values[1]) for z in values[2])
            start = sum(sum(map(abs, v)) for v in nums)
        mass = start * math.prod(masses[at:at + k])
        assert_narrowest_ring(params, ring, mass)
        assert k >= 1 and (k == 1 or mu * mass < 2 ** 62)
        assert at + k == len(masses) or mu * mass * masses[at + k] >= 2 ** 62
        ends = segments[i + 1][0][2] if i + 1 < len(segments) else [seen["total"]]
        for z in ends:
            part = ring.part(z, 1)
            assert part is None or max(map(abs, part[0])) <= mu * mass
        at += k
        widths.append(ring_bits(params, ring))
    assert seen["ring"] is segments[-1][1][1]
    assert at == len(masses) or not seen["states"]
    return widths


def test_width_covers_every_decoded_coefficient():
    widths, most = set(), 0
    for r, s in LEVELS:
        params = make_params(r, s)
        rng = random.Random(7 * r + s)
        for _ in range(2):
            link = random_closed_braid(rng, r)
            choices = [range(r - 1) if c.label == sk.OMEGA else [c.label] for c in link.components]
            for labels in itertools.product(*choices):
                got = check_width(params, link, list(labels))
                widths.update(got)
                most = max(most, len(got))
    for params, link, labels in ((make_params(4), unknot_link(1, 0), [1]),
                                 (make_params(6), closed_braid_link([1, 1], 2), [4, 4])):
        got = check_width(params, link, labels)
        widths.update(got)
        most = max(most, len(got))
    assert 8 in widths and 64 in widths and most >= 2


@pytest.mark.parametrize("r", [3, 4, 5, 6, 105])
def test_ring_width_at_each_bound(r):
    """mu * mass just below 2^(b-2) packs in b-bit digits, just above in the
    next width, and a vector of coefficients at the bound decodes exactly."""
    params = make_params(r)
    for b, wider in ((8, 16), (16, 32), (32, 64), (64, 128), (128, 192)):
        below = (2 ** (b - 2) - 1) // params._mu
        assert ring_bits(params, params.ring(below)) == b
        assert ring_bits(params, params.ring(below + 1)) == wider
        ring = params.ring(below)
        nums = [params._mu * below * (-1) ** i for i in range(params.phi)]
        assert ring.decode(ring.pack(nums) + 3 * ring.n, 1).part == (tuple(nums), 1)


@pytest.mark.parametrize("s", [1, 5])
def test_exact_zero_is_dropped_and_decoded(s):
    """The Hopf link labelled (1, 2) at r = 6 evaluates to [6] = 0: every
    state is dropped, and the decode reads the zero residue."""
    params = make_params(6, s)
    hopf = closed_braid_link([1, 1], 2)
    kinds, pairing, loops_upfront = cabled_reference(params, hopf, [1, 2])
    value, seen = traced_sweep(params, kinds, pairing, loops_upfront)
    assert value.is_zero() and reference_sweep(params, kinds, pairing, loops_upfront).is_zero()
    assert seen["states"] == {} and seen["total"] == 0


def test_odd_value_raises_in_common_denominator(fresh_contexts, monkeypatch):
    """A c-odd value has no packed residue: common_denominator raises on it,
    and a c-odd Jones-Wenzl coefficient raises instead of being dropped.
    At r = 6 the label 2 is at most (r-2)/2, so the fold keeps it and the
    sweep builds the P_2 box."""
    params = make_params(6)
    c = params.c_symbol()
    for values in ([c], [params.one(), c * params.a_pow(3)]):
        with pytest.raises(AssertionError, match="c-odd"):
            common_denominator(values)
    assert common_denominator([params.one(), params.zero() + params.a_pow(1)])[0] == 1
    projector = sk.jones_wenzl
    monkeypatch.setattr(sk, "jones_wenzl", lambda p, k: scale(projector(p, k), p.c_symbol()))
    with pytest.raises(AssertionError, match="c-odd"):
        sk.evaluate(params, closed_braid_link([1, 1], 2, labels=[2, 1]))

