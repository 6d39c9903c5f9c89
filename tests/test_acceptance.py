"""Acceptance gate: one test per criterion, all exact arithmetic.

Each criterion is a single test function so `pytest -v` prints exactly one
pass/fail line per criterion.  Unless a criterion says otherwise, checks run
for r in {3, 4, 5, 6}.
"""

import itertools
import random

import oracles
from helpers import curves, from_int, scalar_multiple_of, tl_identity
from oracles import (braid_absorption_check, caps, e_element, flip, full_twist_scalar,
                     identity_coefficient, rotate180, sector_projectors, tensor, theta_spine)
from skeinrep import linalg, mcg, recoupling as rc, skein as sk, tqft
from skeinrep.braids import (BraidWord, Cabling, braid_detect, cable,
                             jones_sector_rep, sector_labels)
from skeinrep.linalg import eye, mat_mul, mat_trace
from skeinrep.scalars import make_params
from skeinrep.skein import (BalancedStabilization, CircumcisionPair,
                            HandleSlide, LabeledLink, closed_braid_link,
                            split_union, unknot_link)
from skeinrep.tl import TLElement, jones_wenzl, markov_trace, resolve_braid

RS = (3, 4, 5, 6)


def proportional(a, b):
    return scalar_multiple_of(a, b) is not None


# ---------------------------------------------------------------------------
# 1. Projector suite: P_k^2 = P_k, e_i P_k = P_k e_i = 0, rotation
#    invariance, identity coefficient 1, for all k <= r-2.
def test_criterion_01_projector_suite():
    for r in RS:
        p = make_params(r)
        for k in range(1, r - 1):
            pk = jones_wenzl(p, k)
            assert (pk * pk - pk).is_zero(), (r, k)
            assert identity_coefficient(pk).is_one(), (r, k)
            assert (rotate180(pk) - pk).is_zero(), (r, k)
            for i in range(1, k):
                ei = e_element(p, k, i)
                assert (ei * pk).is_zero(), (r, k, i)
                assert (pk * ei).is_zero(), (r, k, i)


# ---------------------------------------------------------------------------
# 2. Braid absorption: 50 random braid words b on k <= 5 strands satisfy
#    b * P_k = A^{c(b)} * P_k exactly.
def test_criterion_02_braid_absorption():
    rng = random.Random(20260826)
    checked = 0
    # P_k needs k <= r-2, so k = 5 is exercised at r = 7
    levels = (4, 5, 6, 7)
    while checked < 50:
        r = levels[checked % len(levels)]
        p = make_params(r)
        k = rng.randint(2, min(5, r - 2))
        word = [rng.choice([1, -1]) * rng.randint(1, k - 1)
                for _ in range(rng.randint(1, 6))]
        writhe = sum(1 if g > 0 else -1 for g in word)
        assert braid_absorption_check(p, word, k) == p.a_pow(writhe), (r, k, word)
        checked += 1
    assert checked == 50


# ---------------------------------------------------------------------------
# 3. Identity decomposition: sector projectors for n <= 6 sum to the
#    identity with pairwise-zero products; the identity-diagram coefficient
#    of the top sector z_n is 1 for n <= r-2.
def test_criterion_03_identity_decomposition():
    for r in RS:
        p = make_params(r)
        for n in range(1, 7):
            zs = sector_projectors(p, n)
            total = TLElement.zero(p, n)
            for z in zs:
                total = total + z
            assert (total - tl_identity(p, n)).is_zero(), (r, n)
            for i, zi in enumerate(zs):
                for zj in zs[i + 1:]:
                    assert (zi * zj).is_zero(), (r, n)
            if n <= r - 2:
                # the last class is the full through-label m = n
                assert identity_coefficient(zs[-1]).is_one(), (r, n)


# ---------------------------------------------------------------------------
# 4. Admissibility/vertex: admissible thetas are exactly nonzero;
#    inadmissible trivalent networks evaluate to exactly 0.
def test_criterion_04_admissibility():
    for r in RS:
        p = make_params(r)
        for a, b, c in itertools.product(range(r - 1), repeat=3):
            if rc.admissible(p, a, b, c):
                assert not rc.theta(p, a, b, c).is_zero(), (r, a, b, c)
            else:
                assert rc.theta(p, a, b, c).is_zero(), (r, a, b, c)
    # Drawable-but-inadmissible theta networks (parity and classical
    # triangle inequalities hold, the quantum bound a+b+c <= 2r-4 fails)
    # evaluate to exactly zero as honest diagrams.
    rng = random.Random(4)
    total = 0
    for r in (4, 5, 6, 7):
        p = make_params(r)
        bad = [(a, b, c)
               for a, b, c in itertools.product(range(r - 1), repeat=3)
               if (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b
               and not rc.admissible(p, a, b, c)]
        rng.shuffle(bad)
        for a, b, c in bad[:4]:
            x = (a + b - c) // 2
            bottom = tensor(jones_wenzl(p, a), jones_wenzl(p, b))
            mid = tensor(tensor(tl_identity(p, a - x), caps(p, x)),
                         tl_identity(p, b - x))
            v = bottom * mid * jones_wenzl(p, c)
            assert (flip(v) * v).markov_trace().is_zero(), (r, a, b, c)
            total += 1
    assert total >= 10


# ---------------------------------------------------------------------------
# 5. Kirby-move suite: >= 20 randomized applicable moves preserve
#    evaluate() exactly; the surgery invariant agrees across two
#    presentations each of S^3, S^1 x S^2, RP^3.
def test_criterion_05_kirby_moves():
    counts = {3: 8, 4: 6, 5: 4, 6: 2}  # cheaper r gets more cases
    total = 0
    for r, count in counts.items():
        p = make_params(r)
        for link, move in _random_move_cases(r, count, seed=5000 + r):
            assert sk.verify_moves(p, link, [move]) == [True], (r, move)
            total += 1
    assert total >= 20
    for r in RS:
        p = make_params(r)
        empty = LabeledLink([], [])
        hopf = closed_braid_link([1, 1], 2, labels=["omega", "omega"],
                                 framings=[0, 0])
        assert oracles.same_manifold_invariant(p, empty, unknot_link("omega", 1))
        assert oracles.same_manifold_invariant(p, empty, hopf)  # S^3
        assert oracles.same_manifold_invariant(
            p, unknot_link("omega", 0),
            split_union(unknot_link("omega", 0), unknot_link("omega", 1)))
        assert oracles.same_manifold_invariant(
            p, unknot_link("omega", 2),
            closed_braid_link([1, 1], 2, labels=["omega", "omega"],
                              framings=[1, 3]))  # RP^3


def _random_move_cases(r, count, seed):
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        kind = rng.choice(["slide", "stab", "circ"])
        word = [1, 1] + [rng.choice([1, -1]) for _ in range(rng.randint(0, 3))]
        labels = [rng.choice(list(range(min(3, r - 1))) + ["omega"])
                  for _ in range(2)]
        framings = [rng.randint(-2, 2) for _ in range(2)]
        if len(closed_braid_link(word, 2).components) != 2:
            continue
        env = closed_braid_link(word, 2, labels=labels, framings=framings)
        if kind == "slide":
            link = split_union(env, unknot_link("omega", rng.randint(-2, 2)))
            move = HandleSlide(rng.randint(0, 1), 2)
        elif kind == "stab":
            link, move = env, BalancedStabilization()
        else:
            link, move = env, CircumcisionPair(rng.choice([None, 0, 1]))
        cases.append((link, move))
    return cases


# ---------------------------------------------------------------------------
# 6. Recoupling vs oracle: every closed-form loop value, theta, tet, and
#    6j symbol for r <= 5 equals its brute-force skein evaluation exactly.
def test_criterion_06_recoupling_vs_oracle():
    for r in (3, 4, 5):
        p = make_params(r)
        labels = range(r - 1)
        for k in labels:
            assert rc.loop_value(p, k) == oracles.loop_value_oracle(p, k), (r, k)
        for a, b, c in itertools.product(labels, repeat=3):
            if rc.admissible(p, a, b, c):
                assert rc.theta(p, a, b, c) == oracles.theta_oracle(p, a, b, c)
        for tup in itertools.product(labels, repeat=6):
            a, b, c, d, e, f = tup
            triples = [(a, b, e), (c, d, e), (a, c, f), (b, d, f)]
            if all(rc.admissible(p, *t) for t in triples):
                assert rc.tet(p, *tup) == oracles.tet_oracle(p, *tup), (r, tup)
            # the 6j symbol has its own vertex triples
            six_triples = [(a, b, e), (c, d, e), (b, c, f), (a, d, f)]
            if all(rc.admissible(p, *t) for t in six_triples):
                assert rc.six_j(p, *tup) == \
                    oracles.tet_oracle(p, b, a, c, d, e, f) * oracles.loop_value_oracle(p, f) \
                    / (oracles.theta_oracle(p, b, c, f) * oracles.theta_oracle(p, a, d, f)), (r, tup)


# ---------------------------------------------------------------------------
# 7. Dimensions: dim V(T^2) = r-1 for r = 3..8; the genus-2 dimension at
#    r=3 is 4 by two independent spine enumerations; 4-punctured-sphere
#    dimensions are channel independent.
def test_criterion_07_dimensions():
    for r in range(3, 9):
        p = make_params(r)
        assert tqft.dim(p, tqft.torus_spine()) == r - 1
    p3 = make_params(3)
    assert tqft.dim(p3, theta_spine()) == 4
    assert tqft.dim(p3, tqft.dumbbell_spine()) == 4
    for r in RS:
        p = make_params(r)
        for labels in itertools.product(range(r - 1), repeat=4):
            if sum(labels) % 2:
                continue
            l1, l2, l3, l4 = labels
            dh = tqft.dim(p, tqft.comb_spine(labels))
            dv = tqft.dim(p, tqft.comb_spine((l2, l3, l4, l1)))
            assert dh == dv, (r, labels)


# ---------------------------------------------------------------------------
# 8. Representation relations: torus S^4 and (TS)^3 = S^2 projectively,
#    disjoint-curve twists commute exactly, adjacent-curve braid relation
#    holds projectively on genus 2 at r = 3, 4.
def test_criterion_08_representation_relations():
    for r in RS:
        p = make_params(r)
        model = mcg.surface_model("torus")
        s = rc.s_matrix(p)
        t = model.twist_matrix(p, "a").matrix
        s2 = mat_mul(s, s)
        assert proportional(mat_mul(s2, s2), eye(p, len(s))), r
        ts = mat_mul(t, s)
        assert proportional(mat_mul(ts, mat_mul(ts, ts)), s2), r
    for r in (3, 4):
        p = make_params(r)
        g2 = mcg.surface_model("genus2")
        tw = {c: g2.twist_matrix(p, c).matrix for c in curves(g2)}
        chain = ["b0", "b1", "b2", "b3", "b4"]
        for i, ci in enumerate(chain):
            for cj in chain[i + 1:]:
                a, b = tw[ci], tw[cj]
                if abs(chain.index(cj) - i) > 1:
                    assert mat_mul(a, b) == mat_mul(b, a), (r, ci, cj)
                else:
                    aba = mat_mul(a, mat_mul(b, a))
                    bab = mat_mul(b, mat_mul(a, b))
                    assert proportional(aba, bab), (r, ci, cj)


# ---------------------------------------------------------------------------
# 9. Curve-operator conjugation: C(h(a)) = V_h C(a) V_h^{-1} exactly for
#    every dictionary-closed (h, a) pair on the torus and genus 2, r = 3, 4.
def test_criterion_09_curve_operator_conjugation():
    for r in (3, 4):
        p = make_params(r)
        torus = mcg.surface_model("torus")
        op = {c: torus.curve_operator(p, c).matrix for c in curves(torus)}
        va = torus.twist_matrix(p, "a").matrix
        va_inv = linalg.mat_inv(p, va)
        # the meridian twist sends b to the (1,±1) curves c and d
        assert op["c"] == mat_mul(va, mat_mul(op["b"], va_inv)), r
        assert op["d"] == mat_mul(va_inv, mat_mul(op["b"], va)), r
        # a twist fixes its own curve and every disjoint curve
        for curve in curves(torus):
            v = torus.twist_matrix(p, curve).matrix
            c = op[curve]
            assert mat_mul(v, c) == mat_mul(c, v), (r, curve)
        g2 = mcg.surface_model("genus2")
        gop = {c: g2.curve_operator(p, c).matrix for c in curves(g2)}
        gtw = {c: g2.twist_matrix(p, c).matrix for c in curves(g2)}
        disjoint = [("b0", "b2"), ("b0", "b3"), ("b0", "b4"),
                    ("b1", "b3"), ("b1", "b4"), ("b2", "b4")]
        pairs = disjoint + [(c, c) for c in curves(g2)]
        for h, a in pairs:
            v, c = gtw[h], gop[a]
            assert mat_mul(v, c) == mat_mul(c, v), (r, h, a)


# ---------------------------------------------------------------------------
# 10. Detection: a single torus Dehn twist is detected at r0 = 3; ten
#     sampled non-central genus-2 words are each detected at some r <= 8;
#     the hyperelliptic chain word is projectively trivial at every r <= 8;
#     the empty word is never detected; eigenvalue separation holds
#     exactly for r <= 8.
def test_criterion_10_detection():
    assert mcg.detect("torus", [("a", 1)], range(3, 9)).r0 == 3
    empty = mcg.detect("torus", [], range(3, 9))
    assert empty.r0 is None and set(empty.verdicts.values()) == {"trivial"}

    rng = random.Random(101)
    curves = ("b0", "b1", "b2", "b3", "b4")
    words = []
    while len(words) < 10:
        w = [(rng.choice(curves), rng.choice([1, -1]))
             for _ in range(rng.randint(2, 5))]
        if mcg.parse_word(" ".join(("" if e > 0 else "-") + c for c, e in w)) == w:
            words.append(w)
    g2 = mcg.surface_model("genus2")
    for w in words:
        detected_at = None
        for r in range(3, 9):
            p = make_params(r)
            if not mcg.is_projectively_identity(g2.represent(p, w).matrix):
                detected_at = r
                break
        assert detected_at is not None, w

    # hyperelliptic chain word: (t_b0 t_b1 t_b2 t_b3 t_b4)^6 is projectively
    # trivial at every r <= 8
    for r in range(3, 9):
        p = make_params(r)
        chain = eye(p, g2.dim(p))
        for c in curves:
            chain = mat_mul(chain, g2.twist_matrix(p, c).matrix)
        c2 = mat_mul(chain, chain)
        c6 = mat_mul(mat_mul(c2, c2), c2)
        assert mcg.is_projectively_identity(c6), r

    # exact separation of the encircling eigenvalues (what twist-matrix
    # interpolation needs) for r <= 8
    for r in range(3, 9):
        p = make_params(r)
        lams = [rc.encircle_eigenvalue(p, k) for k in range(r - 1)]
        for j in range(r - 1):
            for k in range(j + 1, r - 1):
                assert lams[j] != lams[k], (r, j, k)


# ---------------------------------------------------------------------------
# 11. Mapping-torus trace: for each detected word in (10)'s style,
#     |embed(trace)| < dim - 1e-6; the identity word has trace = dim exactly.
def test_criterion_11_mapping_torus_trace():
    torus = mcg.surface_model("torus")
    g2 = mcg.surface_model("genus2")
    for model, words in ((torus, [[("a", 1)], [("b", 1)], [("a", 1), ("b", -1)]]),
                         (g2, [[("b0", 1)], [("b2", 1), ("b3", 1)],
                               [("b1", -1), ("b4", 1), ("b0", 1)]])):
        for r in (3, 4):
            p = make_params(r)
            dim = model.dim(p)
            assert mcg.mapping_torus_trace(model, p, []) == from_int(p, dim)
            for w in words:
                if mcg.is_projectively_identity(model.represent(p, w).matrix):
                    continue
                tr = mcg.mapping_torus_trace(model, p, w)
                assert abs(tr.embed(p)) < dim - 1e-6, (model.name, r, w)


# ---------------------------------------------------------------------------
# 12. Braid suite: sigma_1 in B_2 detected at r = 3 with trivial cabling;
#     the central full twist in B_2 detected via sector-scalar separation
#     at some r <= 6; the full-twist sector scalar has unit modulus and a
#     single global sign convention across all (n, m, r) tested; the Markov
#     trace cross-check is exact for 20 random braids on <= 4 strands.
def test_criterion_12_braid_suite():
    res = braid_detect(BraidWord(2, (1,)), range(3, 9))
    assert res.r0 == 3 and res.witness[3][0] == (1, 1)

    delta2 = BraidWord(2, (1, 1))
    separated = None
    for r in range(3, 7):
        p = make_params(r)
        scalars = [jones_sector_rep(p, delta2, m).matrix[0][0]
                   for m in sector_labels(p, 2)]
        if len(scalars) == 2 and scalars[0] != scalars[1]:
            separated = r
            break
    assert separated is not None
    assert braid_detect(delta2, range(3, 7)).r0 is not None

    # full twist scalar: unit modulus, and after removing the per-strand
    # framing factor A^{-3n} the sign convention (-1)^{m+n} is global
    for r in RS:
        p = make_params(r)
        for n in range(2, 5):
            for m in sector_labels(p, n):
                lam = full_twist_scalar(p, n, m)
                assert abs(abs(lam.embed(p)) - 1.0) < 1e-9, (r, n, m)
                expect = p.a_pow(m * (m + 2)) * p.a_pow(-3 * n)
                if (m + n) % 2:
                    expect = -expect
                assert lam == expect, (r, n, m)

    rng = random.Random(12)
    for case in range(20):
        r = RS[case % len(RS)]
        p = make_params(r)
        n = rng.randint(2, 4)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(1, 5)))
        braid = BraidWord(n, word)
        lhs = markov_trace(resolve_braid(p, list(word), n))
        rhs = p.zero()
        for m in sector_labels(p, n):
            rep = jones_sector_rep(p, braid, m).matrix
            rhs = rhs + rc.loop_value(p, m) * mat_trace(rep)
        assert lhs == rhs, (r, n, word)
