"""Differential test of the detection probe `linalg.scalar_of` against the
dense route: the surface decision `is_projectively_identity(represent(..))`
and the braid decision `is_identity(jones_sector_rep(..))`.  Wherever the
dense product is `lambda * I` the probe must return that product's `[0][0]`,
and `None` wherever it is not."""
import random

import pytest

from helpers import curves
from oracles import full_twist_scalar, full_twist_word
from skeinrep import braids, linalg, mcg
from skeinrep.braids import BraidWord, jones_sector_rep, sector_labels
from skeinrep.linalg import eye, is_identity, scalar_of, zeros
from skeinrep.scalars import make_params
from skeinrep.skein import DomainError

SURFACES = ("torus", "punctured_torus", "four_punctured_sphere", "genus2")
GENUS2_CHAIN = ("b0", "b1", "b2", "b3", "b4")


def dense_scalar(matrix):
    """lambda when the nonempty matrix is exactly lambda * I (lambda may be
    0), else None."""
    n = len(matrix)
    lam = matrix[0][0]
    for i in range(n):
        for j in range(n):
            if matrix[i][j] != (lam if i == j else lam.params.zero()):
                return None
    return lam


def check_surface_word(params, model, word):
    """The probe over the word's factors agrees with the dense product:
    the same lambda, or None for both, and the same detection verdict."""
    n = model.dim(params)
    dense = model.represent(params, word).matrix
    lam = scalar_of(params, model.factors(params, word), n)
    assert lam == dense_scalar(dense), (model.name, model.labels, params.r, word)
    nontrivial = lam is None or lam.is_zero()
    assert nontrivial == (not mcg.is_projectively_identity(dense))
    return lam


def seeded_words(rng, curves, count):
    return [[(rng.choice(curves), rng.choice((-2, -1, 0, 1, 2)))
             for _ in range(rng.randint(1, 5))] for _ in range(count)]


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize("name", SURFACES)
def test_seeded_words_on_every_block(name, r):
    params = make_params(r)
    rng = random.Random(1000 * r + SURFACES.index(name))
    for ctx in mcg._boundary_contexts(name, r):
        model = mcg.surface_model(name, ctx)
        if model.dim(params) == 0:
            continue
        for word in seeded_words(rng, curves(model), 4):
            check_surface_word(params, model, word)


def relation_words():
    """Words that are projectively trivial on their surface at every level:
    the genus-2 hyperelliptic word, the chain's braid and commutation
    relations (as in `test_mcg.test_genus2_chain_relations`) and the torus
    (a b a)^4."""
    out = [("genus2", [(c, 1) for c in GENUS2_CHAIN] * 6)]
    for i, a in enumerate(GENUS2_CHAIN):
        for b in GENUS2_CHAIN[i + 1:]:
            if GENUS2_CHAIN.index(b) == i + 1:
                word = [(a, 1), (b, 1), (a, 1), (b, -1), (a, -1), (b, -1)]
            else:
                word = [(a, 1), (b, 1), (a, -1), (b, -1)]
            out.append(("genus2", word))
    out.append(("torus", [("a", 1), ("b", 1), ("a", 1)] * 4))
    return out


@pytest.mark.parametrize("r", [3, 4, 5])
def test_relations_are_scalar_in_every_column(r):
    params = make_params(r)
    for name, word in relation_words():
        model = mcg.surface_model(name)
        lam = check_surface_word(params, model, word)
        assert lam is not None and not lam.is_zero(), (name, word)


def test_exponent_zero_and_powers():
    params = make_params(5)
    model = mcg.surface_model("genus2")
    for word in ([("b1", 0)], [("b2", 2), ("b2", -2)], [("b0", 3), ("b0", -1), ("b0", -2)],
                 [("b2", 2), ("b3", 0), ("b1", -2)]):
        check_surface_word(params, model, word)
    assert model.factors(params, [("b1", 0)]) == []
    assert len(model.factors(params, [("b1", -3), ("b2", 2)])) == 5
    assert scalar_of(params, model.factors(params, [("b2", 2), ("b2", -2)]),
                     model.dim(params)).is_one()
    with pytest.raises(DomainError):
        model.factors(params, [("zz", 0)])


def check_sector(params, braid, m):
    dense = jones_sector_rep(params, braid, m).matrix
    lam = scalar_of(params, braids._sector_generators(params, braid, m), len(dense))
    assert lam == dense_scalar(dense), (params.r, braid, m)
    assert (lam is not None and lam.is_one()) == is_identity(params, dense)
    return lam


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_braid_sectors(r):
    params = make_params(r)
    rng = random.Random(r)
    moved = 0
    for n in (2, 3, 4):
        for _ in range(3):
            w = BraidWord(n, [rng.choice([1, -1]) * rng.randint(1, n - 1)
                              for _ in range(rng.randint(1, 6))])
            for m in sector_labels(params, n):
                check_sector(params, w, m)
                assert check_sector(params, w * w.inverse(), m).is_one()
        for m in sector_labels(params, n):
            lam = check_sector(params, full_twist_word(n), m)
            assert lam == full_twist_scalar(params, n, m)
            moved += not lam.is_one()
    # the full twists are central but, in most sectors, not the identity
    assert moved


# -------------------------------------------------------- hand-built cases

def diag(params, values):
    out = zeros(params, len(values), len(values))
    for i, v in enumerate(values):
        out[i][i] = v
    return out


@pytest.fixture
def mat_vec_calls(monkeypatch):
    calls = []

    def counted(a, v):
        calls.append(1)
        return original(a, v)

    original = linalg.mat_vec
    monkeypatch.setattr(linalg, "mat_vec", counted)
    return calls


def test_zero_and_singular_factors():
    params = make_params(4)
    lam = params.a_pow(3)
    # a zero factor makes the product 0 * I: lambda 0, which detection rejects
    zero = scalar_of(params, [diag(params, [lam] * 3), zeros(params, 3, 3)], 3)
    assert zero is not None and zero.is_zero()
    assert not mcg.is_projectively_identity(zeros(params, 3, 3))
    # a singular factor: column 0 reads 0, column 1 does not
    assert scalar_of(params, [diag(params, [params.zero(), params.one()])], 2) is None
    # columns whose lambda differ
    assert scalar_of(params, [diag(params, [lam, lam, params.one()])], 3) is None
    assert scalar_of(params, [diag(params, [lam] * 3), diag(params, [lam] * 3)], 3) == lam * lam
    # the factors multiply leftmost first: N P = 0, while P N = N is not scalar
    nil = diag(params, [params.zero(), params.zero()])
    nil[0][1] = params.one()
    proj = diag(params, [params.one(), params.zero()])
    assert scalar_of(params, [nil, proj], 2).is_zero()
    assert scalar_of(params, [proj, nil], 2) is None


def test_last_column_decides(mat_vec_calls):
    params = make_params(5)
    n, lam = 4, params.a_pow(7)
    m = diag(params, [lam] * n)
    m[0][n - 1] = params.one()
    assert scalar_of(params, [m], n) is None
    # every column is read: the first n - 1 are lambda e_j
    assert len(mat_vec_calls) == n
    mat_vec_calls.clear()
    m = diag(params, [lam] * n)
    m[1][0] = params.one()
    assert scalar_of(params, [m, eye(params, n)], n) is None
    # a product that is not scalar in column 0 stops there: one mat_vec per factor
    assert len(mat_vec_calls) == 2


def test_empty_cases():
    params = make_params(3)
    assert scalar_of(params, [], 0).is_one()
    assert mcg.is_projectively_identity([])
    assert scalar_of(params, [], 3).is_one()
    assert linalg.mat_vec([], []) == []


def test_detect_rejects_a_zero_scalar(monkeypatch):
    """0 * I is not projectively the identity: detection keeps the rejection
    of `is_projectively_identity`, though no product of twists is zero."""
    def zero_factors(model, params, word):
        n = model.dim(params)
        return [zeros(params, n, n)]

    monkeypatch.setattr(mcg.SurfaceModel, "factors", zero_factors)
    assert mcg.detect("torus", [], range(3, 5)).r0 == 3
