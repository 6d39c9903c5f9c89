"""Spine bases, dimensions, and solid-torus expansions."""
import itertools
import random

import pytest

from oracles import expand_solid_torus, handlebody_vector, theta_spine
from skeinrep import mcg, tqft
from skeinrep.recoupling import admissible, valid_label
from skeinrep.scalars import make_params
from skeinrep.skein import DomainError
from skeinrep.tqft import (Spine, SpineFormatError, basis, comb_spine, dim,
                           dumbbell_spine, torus_spine)


@pytest.fixture(params=[3, 4, 5, 6])
def params(request):
    return make_params(request.param)


def test_spine_validation():
    with pytest.raises(SpineFormatError):
        Spine(edges=["a"], vertices=[["a", "b"]])
    with pytest.raises(SpineFormatError):
        Spine(edges=["a"], vertices=[["a", "a", "a"]])  # edge with 3 ends
    with pytest.raises(SpineFormatError):
        Spine(edges=[], vertices=[["a", "b", "c"]])  # unknown names


def test_spine_json_roundtrip():
    sp = comb_spine([1, 1, 2, 0])
    assert Spine.from_json(sp.to_json()).to_json() == sp.to_json()


def test_torus_dimension(params):
    bas = basis(params, torus_spine())
    assert len(bas) == params.r - 1
    assert [b["a"] for b in bas] == list(range(params.r - 1))


def test_theta_spine_r3():
    bas = basis(make_params(3), theta_spine())
    tuples = {tuple(b[e] for e in "xyz") for b in bas}
    assert tuples == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}


def test_genus2_dimension_matches_brute_force(params):
    r = params.r
    got = dim(params, theta_spine())
    brute = sum(1 for x in range(r - 1) for y in range(r - 1) for z in range(r - 1)
                if admissible(params, x, y, z))
    assert got == brute


def test_four_punctured_sphere_channels(params):
    for labels in ([1, 1, 1, 1], [1, 2, 1, 0], [2, 2, 2, 2]):
        if max(labels) > params.r - 2:
            continue
        l1, l2, l3, l4 = labels
        dh = dim(params, comb_spine(labels))
        dv = dim(params, comb_spine((l2, l3, l4, l1)))  # pairs (2,3)(4,1)
        assert dh == dv  # the change-of-channel matrix is square


def test_four_punctured_sphere_example():
    bas = basis(make_params(4), comb_spine([1, 1, 1, 1]))
    assert [b["m1"] for b in bas] == [0, 2]


def test_comb_spine_shape():
    assert comb_spine((0, 1, 1)).vertices == [["p1", "p2", "p3"]]
    assert comb_spine((1, 1, 1, 1)).vertices == [["p1", "p2", "m1"], ["p3", "p4", "m1"]]
    five = comb_spine((1, 2, 3, 4, 5))
    assert five.edges == ["m1", "m2"]
    assert five.vertices == [["p1", "p2", "m1"], ["m1", "p3", "m2"], ["p4", "p5", "m2"]]
    assert five.boundary == {"p1": 1, "p2": 2, "p3": 3, "p4": 4, "p5": 5}
    with pytest.raises(SpineFormatError):
        comb_spine((1, 1))


# ----------------------------------------------- basis against the product


def reference_basis(params, spine):
    """The product enumeration that built spine bases before pruning."""
    for lab in spine.boundary.values():
        if not valid_label(params, lab):
            raise DomainError(f"boundary label {lab} outside 0..{params.r - 2}")
    out = []
    names = list(spine.edges)
    for combo in itertools.product(range(params.r - 1), repeat=len(names)):
        labeling = dict(zip(names, combo))
        ok = True
        for tri in spine.vertices:
            vals = [labeling.get(x, spine.boundary.get(x)) for x in tri]
            if not admissible(params, *vals):
                ok = False
                break
        if ok:
            out.append(labeling)
    return out


def genus3_spine():
    """Three loops x, y, z on bars m1, m2, m3 that meet at one vertex."""
    return Spine(edges=["x", "y", "z", "m1", "m2", "m3"],
                 vertices=[["x", "x", "m1"], ["y", "y", "m2"], ["z", "z", "m3"],
                           ["m1", "m2", "m3"]])


def check_basis(params, spine):
    got = basis(params, spine)
    assert got == reference_basis(params, spine)
    assert all(list(b) == list(spine.edges) for b in got)
    return got


@pytest.mark.parametrize("r", range(3, 9))
def test_basis_matches_product_on_table_surfaces(r):
    params = make_params(r)
    for name in ("torus", "punctured_torus", "four_punctured_sphere", "genus2"):
        for ctx in mcg._boundary_contexts(name, r):
            check_basis(params, mcg.surface_model(name, ctx).spine)
    check_basis(params, theta_spine())


@pytest.mark.parametrize("r, expected", zip(range(3, 9), (8, 36, 120, 329, 784, 1680)))
def test_basis_matches_product_on_genus3(r, expected):
    assert len(check_basis(make_params(r), genus3_spine())) == expected


@pytest.mark.parametrize("r", range(3, 9))
def test_basis_matches_product_on_combs(r):
    params = make_params(r)
    rng = random.Random(f"comb:{r}")
    for legs in range(3, 9):
        for _ in range(4):
            check_basis(params, comb_spine([rng.randrange(r - 1) for _ in range(legs)]))
    # an invalid leg label is rejected before any enumeration
    with pytest.raises(DomainError):
        basis(params, comb_spine((1, 1, r - 1)))


def test_handlebody_vector(params):
    for spine in (torus_spine(), theta_spine(), dumbbell_spine()):
        v = handlebody_vector(params, spine)
        nz = [i for i, x in enumerate(v) if not x.is_zero()]
        assert nz == [0]
        assert v[0].is_one()
    with pytest.raises(SpineFormatError):
        handlebody_vector(params, comb_spine([0, 0, 0, 0]))


def test_meridian_expansion(params):
    v = expand_solid_torus(params, 1, 0)
    assert v[0] == params.loop_d()
    assert all(x.is_zero() for x in v[1:])


def test_core_expansion(params):
    v = expand_solid_torus(params, 0, 1)
    assert v[1].is_one()
    assert all(x.is_zero() for i, x in enumerate(v) if i != 1)


def test_expansion_triangular(params):
    r = params.r
    for (p, q) in [(1, 1), (2, 1), (-1, 1), (1, 2), (-1, 2), (1, 3), (2, 3)]:
        v = expand_solid_torus(params, p, q)
        for k, x in enumerate(v):
            if k > q or (k - q) % 2:
                assert x.is_zero(), (p, q, k)
        if q <= r - 2:
            assert not v[q].is_zero(), (p, q)


def test_non_coprime_rejected(params):
    with pytest.raises(DomainError):
        expand_solid_torus(params, 2, 2)

