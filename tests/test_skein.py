"""Labeled-link evaluation, Kirby moves, and the surgery invariant."""
import json
import random

import pytest

import oracles
from helpers import from_int
from skeinrep import cli
from skeinrep import skein as sk
from skeinrep.recoupling import hopf_pairing, twist_coefficient
from skeinrep.scalars import make_params
from skeinrep.skein import (BalancedStabilization, CircumcisionPair, HandleSlide,
                            LabeledLink, LinkFormatError, closed_braid_link,
                            split_union, unknot_link)


@pytest.fixture(params=[3, 4, 5])
def params(request):
    return make_params(request.param)


# ----- parsing and structure -----

def test_json_roundtrip():
    link = closed_braid_link([1, 1], 2, labels=["omega", 2], framings=[1, -1])
    blob = link.to_json()
    assert blob["version"] == sk.LINK_SCHEMA_VERSION
    back = LabeledLink.from_json(blob)
    assert back.to_json() == blob


def test_bad_arc_counts_rejected(capsys, tmp_path):
    """Arcs seen once, three times and four times, the last at one crossing
    [1, 1, 1, 1] that a pairing matching ends two at a time would accept:
    each link raises LinkFormatError, and eval-link on its JSON exits 2."""
    cases = [([[1, 2, 3, 1]], [1, 2, 3]),
             ([[1, 2, 2, 3], [3, 4, 4, 5]], [1, 2, 3, 4, 5]),
             ([[1, 2, 1, 3], [3, 2, 1, 2]], [1, 2, 3]),
             ([[1, 1, 1, 1]], [1])]
    path = tmp_path / "link.json"
    for crossings, arcs in cases:
        with pytest.raises(LinkFormatError, match="appears [134] times"):
            LabeledLink([sk.Component(1, 0, arcs)], crossings)
        path.write_text(json.dumps({"version": 1, "crossings": crossings,
                                    "components": [{"label": 1, "framing": 0, "arcs": arcs}]}))
        assert cli.run(["eval-link", "--r", "4", "--link", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "parse"


def test_component_partition_checked():
    link = closed_braid_link([1, 1], 2)
    with pytest.raises(LinkFormatError):
        LabeledLink([sk.Component(1, 0, link.components[0].arcs + link.components[1].arcs),
                     sk.Component(1, 0, [])], link.crossings)


def test_crossing_signs_braid():
    link = closed_braid_link([1, 1, -1], 2)
    assert link.crossing_signs() == [1, 1, -1]


def test_linking_matrix_and_signature():
    link = closed_braid_link([1, 1], 2, framings=[2, -1])
    assert sk.linking_matrix(link) == [[2, 1], [1, -1]]
    assert sk.signature([[2, 1], [1, -1]]) == 0
    assert sk.signature([[0, 1], [1, 0]]) == 0
    assert sk.signature([[1, 1], [1, 3]]) == 2
    assert sk.signature([[0]]) == 0
    neg = closed_braid_link([-1, -1], 2)
    assert sk.linking_matrix(neg) == [[0, -1], [-1, 0]]


def symmetric_matrix(rng, n, zero_diagonal=False, rank=None):
    """A seeded symmetric n x n integer matrix with entries -3..3; with a
    rank below n, a sum of `rank` signed rank-one squares v v^T, which is
    singular."""
    if rank is not None:
        m = [[0] * n for _ in range(n)]
        for _ in range(rank):
            v, sign = [rng.randint(-1, 1) for _ in range(n)], rng.choice([-1, 1])
            for i in range(n):
                for j in range(n):
                    m[i][j] += sign * v[i] * v[j]
        return m
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = 0 if zero_diagonal and i == j else rng.randint(-3, 3)
    return m


def unimodular(rng, n):
    """A seeded integer n x n matrix of determinant +-1: a product of
    elementary row additions, swaps and sign changes."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            t = rng.choice([-2, -1, 1, 2])
            p[i] = [a + t * b for a, b in zip(p[i], p[j])]
            p[i], p[j] = p[j], p[i]
        else:
            p[i] = [-a for a in p[i]]
    return p


def congruent(m, p):
    """p^T m p."""
    n = len(m)
    mp = [[sum(m[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(p[k][i] * mp[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def test_signature_matches_the_fraction_congruence():
    rng = random.Random(3105)
    singular = [symmetric_matrix(rng, n, rank=rng.randrange(n))
                for n in range(1, 9) for _ in range(25)]
    # 16 x 16 ones too: entries stay minors, a few dozen bits, where the
    # congruence without the division by the last pivot grows them 3-fold
    # in bits per pivot
    cases = singular + [symmetric_matrix(rng, n, zero_diagonal=zero)
                        for n in (*range(1, 9), 16) for zero in (False, True)
                        for _ in range(25 if n < 9 else 2)]
    for m in cases:
        before = [row[:] for row in m]
        assert sk.signature(m) == oracles.signature_fraction(m), m
        assert m == before  # the input is not modified
    # the singular cases are not all zero blocks
    assert sum(oracles.signature_fraction(m) != 0 for m in singular) > len(singular) // 2


def test_signature_is_a_congruence_invariant():
    rng = random.Random(3106)
    for n in range(1, 9):
        for kind in range(12):
            m = symmetric_matrix(rng, n, zero_diagonal=kind % 2 == 1,
                                 rank=rng.randrange(n) if kind % 3 == 2 else None)
            assert sk.signature(congruent(m, unimodular(rng, n))) == sk.signature(m), m


@pytest.mark.parametrize("kwargs", [{"labels": [2]}, {"framings": [0, 1]},
                                    {"labels": [1, 1, 1, 1]}, {"framings": [0] * 4},
                                    {"labels": []}])
def test_closure_needs_one_label_and_framing_per_component(kwargs):
    word = [1, -2, 1, -2, 1, -2]  # three components
    assert len(closed_braid_link(word, 3).components) == 3
    with pytest.raises(sk.DomainError, match="with 3 components"):
        closed_braid_link(word, 3, **kwargs)
    link = closed_braid_link(word, 3, labels=[2, 1, "omega"], framings=[0, 1, -1])
    assert [(c.label, c.framing) for c in link.components] == [(2, 0), (1, 1), ("omega", -1)]


# ----- evaluation anchors -----

def test_unknot_values(params):
    d = params.loop_d()
    assert sk.evaluate(params, unknot_link(1, 0)) == d
    assert sk.evaluate(params, unknot_link(0, 0)).is_one()
    for k in range(params.r - 1):
        assert sk.evaluate(params, unknot_link(k, 0)) == params.d_k(k)


def test_framing_gives_twist(params):
    for k in range(params.r - 1):
        mu = twist_coefficient(params, k)
        for f in (-2, -1, 1, 2):
            got = sk.evaluate(params, unknot_link(k, f))
            assert got == mu ** f * params.d_k(k)


def test_writhe_one_closure(params):
    d = params.loop_d()
    got = sk.evaluate(params, closed_braid_link([1], 2))
    assert got == from_int(params, -1) * params.a_pow(3) * d
    got = sk.evaluate(params, closed_braid_link([-1], 2))
    assert got == from_int(params, -1) * params.a_pow(-3) * d


def test_hopf_link_matches_s_matrix(params):
    for j in range(params.r - 1):
        for k in range(params.r - 1):
            link = closed_braid_link([1, 1], 2, labels=[j, k])
            assert sk.evaluate(params, link) == hopf_pairing(params, j, k)


@pytest.mark.parametrize("r", range(4, 9))
def test_closed_two_braids_match_half_twist_eigenvalues(r):
    # an oracle independent of the sweep: every label up to r - 2, so the
    # labelings cross the fold above (r - 2)/2, knots and two-component
    # links, both crossing signs
    params = make_params(r)
    labels = range(1, r - 1)
    cases = [(q, (k,)) for q in (3, 5) for k in labels]
    cases += [(q, (j, k)) for q in (2, 4) for j in labels for k in labels]
    for sign in (1, -1):
        for q, lab in cases:
            got = sk.evaluate(params, closed_braid_link([sign] * q, 2, labels=lab))
            assert got == oracles.closed_two_braid_value(params, q, lab[0], lab[-1], sign), \
                (q, lab, sign)


def test_omega_circle_annihilates(params):
    c = params.c_symbol()
    for k in range(params.r - 1):
        got = sk.evaluate(params, closed_braid_link([1, 1], 2, labels=["omega", k]))
        expect = c.inverse() if k == 0 else params.zero()
        assert got == expect


def test_reidemeister_two(params):
    k = min(2, params.r - 2)
    link = closed_braid_link([1, -1], 2, labels=[k, 1])
    assert sk.evaluate(params, link) == params.d_k(k) * params.loop_d()


def test_reidemeister_three(params):
    k = min(2, params.r - 2)
    la = closed_braid_link([1, 2, 1], 3, labels=[k, 1])
    lb = closed_braid_link([2, 1, 2], 3, labels=[k, 1])
    assert sk.evaluate(params, la) == sk.evaluate(params, lb)


def test_split_multiplicative(params):
    a = closed_braid_link([1, 1], 2, labels=[1, "omega"])
    b = unknot_link(min(2, params.r - 2), 1)
    together = sk.evaluate(params, split_union(a, b))
    assert together == sk.evaluate(params, a) * sk.evaluate(params, b)


def test_label_out_of_range_rejected(params):
    with pytest.raises(sk.DomainError):
        sk.evaluate(params, unknot_link(params.r - 1, 0))


# ----- Kirby moves -----

def test_balanced_stabilization(params):
    Cp = oracles.unknot_value_plus(params)
    Cm = sk.evaluate(params, unknot_link("omega", -1))
    assert (Cp * Cm).is_one()
    base = closed_braid_link([1, 1], 2, labels=["omega", "omega"], framings=[1, 0])
    assert sk.verify_moves(params, base, [BalancedStabilization()]) == [True]


def test_circumcision_pair(params):
    base = closed_braid_link([1, 1], 2, labels=["omega", "omega"], framings=[1, 0])
    moves = [CircumcisionPair(None), CircumcisionPair(0), CircumcisionPair(1)]
    assert sk.verify_moves(params, base, moves) == [True] * 3


def test_handle_slide_basic(params):
    link = split_union(closed_braid_link([1, 1], 2, labels=[1, "omega"], framings=[0, 1]),
                       unknot_link("omega", 1))
    assert sk.verify_moves(params, link, [HandleSlide(0, 2), HandleSlide(1, 2)]) == [True] * 2


def test_handle_slide_applicability():
    link = closed_braid_link([1, 1], 2, labels=[1, "omega"])
    with pytest.raises(sk.DomainError):
        sk.apply_move(link, HandleSlide(0, 0))  # same component
    with pytest.raises(sk.DomainError):
        sk.apply_move(link, HandleSlide(1, 0))  # over a non-omega component
    with pytest.raises(sk.DomainError):
        sk.apply_move(link, HandleSlide(0, 1))  # over component not split


def random_move_cases(r, count, seed):
    """Randomized applicable (link, move) pairs, small enough to stay fast."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        kind = rng.choice(["slide", "stab", "circ"])
        wordlen = rng.randint(0, 3)
        word = [rng.choice([1, -1]) for _ in range(wordlen)]
        labels = [rng.choice(list(range(min(3, r - 1))) + ["omega"]) for _ in range(2)]
        framings = [rng.randint(-2, 2) for _ in range(2)]
        word = [1, 1] + word  # keep two components linked
        env = closed_braid_link(word, 2, labels=labels, framings=framings) \
            if len(closed_braid_link(word, 2).components) == 2 else None
        if env is None:
            continue
        if kind == "slide":
            f2 = rng.randint(-2, 2)
            link = split_union(env, unknot_link("omega", f2))
            move = HandleSlide(rng.randint(0, 1), 2)
        elif kind == "stab":
            link, move = env, BalancedStabilization()
        else:
            link, move = env, CircumcisionPair(rng.choice([None, 0, 1]))
        cases.append((link, move))
    return cases


def test_randomized_moves(params):
    for link, move in random_move_cases(params.r, 6, seed=1000 + params.r):
        assert sk.verify_moves(params, link, [move]) == [True], (params.r, move)


# ----- surgery invariant -----

def test_s3_presentations(params):
    empty = LabeledLink([], [])
    plus = unknot_link("omega", 1)
    hopf = closed_braid_link([1, 1], 2, labels=["omega", "omega"], framings=[0, 0])
    assert oracles.same_manifold_invariant(params, empty, plus)
    assert oracles.same_manifold_invariant(params, empty, hopf)
    assert sk.z_invariant(params, empty)[0].is_one()


def test_s1_x_s2_presentations(params):
    a = unknot_link("omega", 0)
    b = split_union(unknot_link("omega", 0), unknot_link("omega", 1))
    assert oracles.same_manifold_invariant(params, a, b)
    v, sig = sk.z_invariant(params, a)
    assert sig == 0
    assert v == params.c_symbol().inverse()


def test_rp3_presentations(params):
    a = unknot_link("omega", 2)
    b = closed_braid_link([1, 1], 2, labels=["omega", "omega"], framings=[1, 3])
    assert sk.z_invariant(params, a)[1] == 1
    assert sk.z_invariant(params, b)[1] == 2
    assert oracles.same_manifold_invariant(params, a, b)


def test_distinct_manifolds_detected(params):
    s3 = LabeledLink([], [])
    assert not oracles.same_manifold_invariant(params, unknot_link("omega", 0), s3)
    assert not oracles.same_manifold_invariant(params, unknot_link("omega", 2), s3)


def test_c_constant_unit_modulus(params):
    C = oracles.unknot_value_plus(params)
    assert abs(abs(C.embed(params)) - 1.0) < 1e-9
