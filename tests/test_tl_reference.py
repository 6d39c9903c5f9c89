"""Differential and pinned-output tests of the Temperley-Lieb layer.

Composition is checked against an adjacency walk that follows each strand
through the glued interface; the sector idempotents and Jones-Wenzl
projectors are pinned by sha256 digests of their ``to_json`` output, and the
idempotents are also checked against the spectrum of the encircling loop,
which fixes each of them independently of how it is computed."""
import hashlib
import json
import random

import pytest

from helpers import tl_identity
from oracles import encircle_element, hom_basis, scale, sector_projectors
from skeinrep.recoupling import encircle_eigenvalue
from skeinrep.scalars import make_params
from skeinrep.tl import TLDiagram, _compose_diagrams, jones_wenzl, resolve_braid


def compose_by_walk(lo: TLDiagram, hi: TLDiagram):
    """Stack hi on top of lo by walking the strands of the glued graph.

    Returns (composed TLDiagram, number of closed loops).
    """
    if lo.nt != hi.nb:
        raise ValueError("strand-count mismatch in composition")
    n_mid = lo.nt
    # Node labels: ('b', i) new bottom, ('t', j) new top, ('m', k) interface.
    adj = {}

    def link(u, v):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    for a, b in lo.pairs:
        ua = ("b", a) if a < lo.nb else ("m", a - lo.nb)
        ub = ("b", b) if b < lo.nb else ("m", b - lo.nb)
        link(ua, ub)
    for a, b in hi.pairs:
        ua = ("m", a) if a < hi.nb else ("t", a - hi.nb)
        ub = ("m", b) if b < hi.nb else ("t", b - hi.nb)
        link(ua, ub)
    seen = set()
    pairs = []
    loops = 0
    # Walk open paths from boundary nodes, then count leftover interior cycles.
    for start in [("b", i) for i in range(lo.nb)] + [("t", j) for j in range(hi.nt)]:
        if start in seen:
            continue
        seen.add(start)
        prev, cur = start, adj[start][0]
        while cur[0] == "m":
            seen.add(cur)
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
        seen.add(cur)
        ea = start[1] if start[0] == "b" else lo.nb + start[1]
        eb = cur[1] if cur[0] == "b" else lo.nb + cur[1]
        if ea < eb or (ea == eb and start != cur):
            pairs.append((ea, eb))
    for k in range(n_mid):
        node = ("m", k)
        if node in seen:
            continue
        loops += 1
        prev, cur = node, adj[node][0]
        seen.add(node)
        while cur != node:
            seen.add(cur)
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
    return TLDiagram(lo.nb, hi.nt, pairs), loops


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_composition_matches_strand_walk():
    checked = 0
    for a in range(5):
        for b in range(5):
            for c in range(5):
                for lo in hom_basis(a, b):
                    for hi in hom_basis(b, c):
                        assert _compose_diagrams(lo, hi) == compose_by_walk(lo, hi), (lo, hi)
                        checked += 1
    assert checked == 579


def test_sector_projectors_pinned():
    out = [[z.to_json() for z in sector_projectors(make_params(r), n)]
           for r in range(3, 7) for n in range(7)]
    assert digest(out) == "e7927f57f419ff3fb77d0672aa58470c59177e463736ff573cf1ab6689587c78"


def test_jones_wenzl_pinned():
    out = [jones_wenzl(make_params(r), k).to_json() for r in range(3, 9) for k in range(r - 1)]
    assert digest(out) == "42768db49ea5cf9f533a9ecc8b7db969264c5a67e73c19aa285fd9def08899da"


def seeded_braid_words():
    """(r, n, word): at r = 3..7 and n = 1..6 the empty word and a seeded
    word of 3n letters, and a 60-letter word on 4 strands."""
    rng = random.Random(11)
    out = []
    for r in range(3, 8):
        for n in range(1, 7):
            gens = [g for g in range(1 - n, n) if g]
            out.append((r, n, []))
            if gens:
                out.append((r, n, [rng.choice(gens) for _ in range(3 * n)]))
        out.append((r, 4, [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(60)]))
    return out


def test_resolve_braid_pinned():
    """Recorded while the coefficients were `Scalar` products letter by
    letter."""
    out = [resolve_braid(make_params(r), word, n).to_json() for r, n, word in seeded_braid_words()]
    assert digest(out) == "50d60daf61357dd762254fecdc115bf5e9e6b6c30ee1da16c15fe8fa6217fc09"


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_sector_projectors_are_loop_eigenspaces(r):
    """z_m lies in the lambda_m eigenspace of the encircling loop E.  With
    completeness and orthogonality (test_tl.test_sector_projectors) this
    fixes every z_m."""
    p = make_params(r)
    for n in range(r - 1):
        E = encircle_element(p, n, 1)
        ident = tl_identity(p, n)
        zs = sector_projectors(p, n)
        assert len(zs) == n // 2 + 1
        for m, z in zip(range(n % 2, n + 1, 2), zs):
            lam = encircle_eigenvalue(p, m)
            assert not z.is_zero()
            assert ((E - scale(ident, lam)) * z).is_zero(), (r, n, m)
