"""Labeled-link evaluation, Kirby moves, and the surgery invariant."""
import random

import pytest

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


def test_bad_arc_counts_rejected():
    with pytest.raises(LinkFormatError):
        LabeledLink([sk.Component(1, 0, [1, 2, 3])],
                    [[1, 2, 3, 1]]).validate()


def test_component_partition_checked():
    link = closed_braid_link([1, 1], 2)
    bad = LabeledLink([sk.Component(1, 0, link.components[0].arcs + link.components[1].arcs),
                       sk.Component(1, 0, [])], link.crossings)
    with pytest.raises(LinkFormatError):
        bad.validate()


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
    assert got == params.from_int(-1) * params.a_pow(3) * d
    got = sk.evaluate(params, closed_braid_link([-1], 2))
    assert got == params.from_int(-1) * params.a_pow(-3) * d


def test_hopf_link_matches_s_matrix(params):
    for j in range(params.r - 1):
        for k in range(params.r - 1):
            link = closed_braid_link([1, 1], 2, labels=[j, k])
            assert sk.evaluate(params, link) == hopf_pairing(params, j, k)


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
    Cp = sk.unknot_value_plus(params)
    Cm = sk.evaluate(params, unknot_link("omega", -1))
    assert (Cp * Cm).is_one()
    base = closed_braid_link([1, 1], 2, labels=["omega", "omega"], framings=[1, 0])
    assert sk.verify_move(params, base, BalancedStabilization())


def test_circumcision_pair(params):
    base = closed_braid_link([1, 1], 2, labels=["omega", "omega"], framings=[1, 0])
    assert sk.verify_move(params, base, CircumcisionPair(None))
    assert sk.verify_move(params, base, CircumcisionPair(0))
    assert sk.verify_move(params, base, CircumcisionPair(1))


def test_handle_slide_basic(params):
    link = split_union(closed_braid_link([1, 1], 2, labels=[1, "omega"], framings=[0, 1]),
                       unknot_link("omega", 1))
    assert sk.verify_move(params, link, HandleSlide(0, 2))
    assert sk.verify_move(params, link, HandleSlide(1, 2))


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
        assert sk.verify_move(params, link, move), (params.r, move)


# ----- surgery invariant -----

def test_s3_presentations(params):
    empty = LabeledLink([], [])
    plus = unknot_link("omega", 1)
    hopf = closed_braid_link([1, 1], 2, labels=["omega", "omega"], framings=[0, 0])
    assert sk.same_manifold_invariant(params, empty, plus)
    assert sk.same_manifold_invariant(params, empty, hopf)
    assert sk.z_invariant(params, empty)[0].is_one()


def test_s1_x_s2_presentations(params):
    a = unknot_link("omega", 0)
    b = split_union(unknot_link("omega", 0), unknot_link("omega", 1))
    assert sk.same_manifold_invariant(params, a, b)
    v, sig = sk.z_invariant(params, a)
    assert sig == 0
    assert v == params.c_symbol().inverse()


def test_rp3_presentations(params):
    a = unknot_link("omega", 2)
    b = closed_braid_link([1, 1], 2, labels=["omega", "omega"], framings=[1, 3])
    assert sk.z_invariant(params, a)[1] == 1
    assert sk.z_invariant(params, b)[1] == 2
    assert sk.same_manifold_invariant(params, a, b)


def test_distinct_manifolds_detected(params):
    s3 = LabeledLink([], [])
    assert not sk.same_manifold_invariant(params, unknot_link("omega", 0), s3)
    assert not sk.same_manifold_invariant(params, unknot_link("omega", 2), s3)


def test_c_constant_unit_modulus(params):
    C = sk.unknot_value_plus(params)
    assert abs(abs(C.embed()) - 1.0) < 1e-9
