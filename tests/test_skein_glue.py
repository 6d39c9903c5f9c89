"""The gluing rule and the strand walk of the skein layer against the
routines they replaced, kept in ``tests/oracles.py``.

``skein._join_table`` glues each resolution of a node to its local pattern
on a union-find, by the rule of ``tl._compose_diagrams``;
``oracles.join_table_chase`` follows the joins port by port.  After the
seeded links of ``test_sweep_kernel.py`` (every integer labeling, drawn
blackboard-framed and with kinks) and of ``test_label_fold.py`` (through
``evaluate``) are swept at r = 3..8, every join table in the level memo
must equal the chase's.

``skein._walk`` records the head occurrence of each arc, where its strand
enters the next crossing; ``oracles.head_occurrences`` reads it off the
orientations.  The two must agree on seeded closures, on the clasp splices
of circumcision pairs and framed handle slides, and on kinked links.
"""
import random

import pytest

import test_label_fold
import test_sweep_kernel
from oracles import head_occurrences, join_table_chase, swept
from skeinrep import skein as sk
from skeinrep.scalars import make_params
from skeinrep.skein import (CircumcisionPair, HandleSlide, apply_move, closed_braid_link,
                            split_union, unknot_link)
from test_skein_sweep import kinked_link, labelings


@pytest.mark.parametrize("r", range(3, 9))
def test_join_tables_match_chase(fresh_contexts, r):
    params = make_params(r)
    rng = random.Random(31 * r)
    for _ in range(12):
        link = test_sweep_kernel.random_link(rng, r)
        for diagram in test_sweep_kernel.diagrams(params, link):
            swept(params, *diagram)
    rng = random.Random(f"fold:{r}")
    for _ in range(10):
        sk.evaluate(params, test_label_fold.random_link(rng, r))
    tables = test_sweep_kernel.join_tables(params)
    # patterns with loops, with writes, and with static self-pairings
    assert any(loops for table in tables.values() for loops, _ in table)
    assert any(writes for table in tables.values() for _, writes in table)
    assert any(s >= 0 for _, _, static, _ in tables for s in static)
    for (_, kind, static, sig), table in tables.items():
        assert table == join_table_chase(params, kind, static, sig), (kind, static, sig)


def check_heads(link):
    assert sk._walk(link.crossings)[2] == head_occurrences(link.crossings, link.orientations()), \
        link.to_json()


def test_walk_heads_match_orientations():
    rng = random.Random(36)
    params = make_params(5)
    for case in range(200):
        n = rng.randint(1, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                for _ in range(rng.randint(0, 8))] if n > 1 else []
        count = len(closed_braid_link(word, n).components)
        link = closed_braid_link(word, n, framings=[rng.randint(-2, 2) for _ in range(count)])
        check_heads(link)
        check_heads(kinked_link(link, rng.choice(labelings(params, link))))
        check_heads(apply_move(link, CircumcisionPair(rng.randrange(count))))
        slid = split_union(link, unknot_link(sk.OMEGA, rng.choice((-2, -1, 1, 2))))
        check_heads(apply_move(slid, HandleSlide(rng.randrange(count), count)))
