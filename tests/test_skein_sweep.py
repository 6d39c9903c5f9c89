"""The frontier-keyed skein sweep against the full-pairing sweep it replaced.

The reference below keys every state by the pairing of all unprocessed
ports and picks the node order by rescanning every remaining node per step.
Both sweeps run on the same nodes from `skein._diagram_nodes`; their values
must have identical `to_json` bytes, and the node orders must agree.
"""
import itertools
import json
import random

import pytest

from skeinrep import skein as sk
from skeinrep.scalars import make_params
from skeinrep.skein import (CircumcisionPair, HandleSlide, apply_move, closed_braid_link,
                            split_union, unknot_link)
from skeinrep.tl import jones_wenzl


def reference_order(nodes, pairing):
    processed, remaining, order = set(), set(range(len(nodes))), []
    while remaining:
        best, best_score = None, -1
        for idx in sorted(remaining):
            score = sum(1 for s in range(sk._port_count(nodes[idx]))
                        if pairing[(idx, s)][0] in processed or pairing[(idx, s)][0] == idx)
            if score > best_score:
                best, best_score = idx, score
        order.append(best)
        processed.add(best)
        remaining.discard(best)
    return order


def reference_sweep(params, nodes, pairing, loops_upfront):
    dval = params.loop_d()

    def key_of(pdict):
        return frozenset(frozenset((p, q)) for p, q in pdict.items() if p < q)

    states = {key_of(pairing): params.one()}
    for idx in reference_order(nodes, pairing):
        node = nodes[idx]
        if node[0] == "X":
            resolutions = [([((idx, 0), (idx, 3)), ((idx, 1), (idx, 2))], params.a_pow(1)),
                           ([((idx, 0), (idx, 1)), ((idx, 2), (idx, 3))], params.a_pow(-1))]
        else:
            resolutions = [([((idx, p), (idx, q)) for p, q in diag.pairs], coeff)
                           for diag, coeff in jones_wenzl(params, node[1]).terms.items()]
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


def check_link(params, link):
    """Both sweeps on every integer labeling of `link` (omega expanded)."""
    choices = [range(params.r - 1) if c.label == sk.OMEGA else [c.label]
               for c in link.components]
    for labels in itertools.product(*choices):
        nodes, pairing, loops_upfront = sk._diagram_nodes(params, link, list(labels))
        assert sk._greedy_order(nodes, pairing) == reference_order(nodes, pairing)
        got = sk._sweep(params, nodes, pairing, loops_upfront)
        want = reference_sweep(params, nodes, pairing, loops_upfront)
        assert as_bytes(got) == as_bytes(want), (link.to_json(), labels)


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
