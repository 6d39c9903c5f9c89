"""Detection reads only the blocks that can witness.  On a block of
dimension 1 every twist is an invertible 1 x 1 matrix, so every word is a
nonzero scalar there and the block is never projectively nontrivial:
`mcg.detect` walks the level memo's list of the blocks of dimension >= 2
(`mcg._live_blocks`) and never builds the twists of the others.  Its
verdicts, least level and witnesses are compared with a reference scan
that probes every nonempty block by its dense `mat_mul` fold
(`oracles.represent_fold`)."""
import random

import pytest

from oracles import boundary_contexts, represent_fold
from skeinrep import mcg, tqft
from skeinrep.scalars import make_params
from skeinrep.skein import DomainError

SURFACES = ("torus", "punctured_torus", "four_punctured_sphere", "genus2")
CURVES = {"torus": ("a", "b", "c", "d"), "punctured_torus": ("a", "b"),
          "four_punctured_sphere": ("g12", "g23", "g34"),
          "genus2": ("b0", "b1", "b2", "b3", "b4")}
# a word that is the identity mapping class on each surface, so both scans
# read every block: the braid relation of a, b on the tori, the isotopic
# g12, g34 on the sphere, and two disjoint curves of the genus-2 chain
TRIVIAL = {"torus": [("a", 1), ("b", 1), ("a", 1), ("b", -1), ("a", -1), ("b", -1)],
           "punctured_torus": [("a", 1), ("b", 1), ("a", 1), ("b", -1), ("a", -1), ("b", -1)],
           "four_punctured_sphere": [("g12", 1), ("g34", -1)],
           "genus2": [("b0", 1), ("b2", 1), ("b0", -1), ("b2", -1)]}
LEVELS = range(3, 6)
ROOTS = (1, 7)  # 7 is prime to 4r at every level of LEVELS


def seeded_words(rng, curves, count):
    return [[(rng.choice(curves), rng.choice((-2, -1, 0, 1, 2)))
             for _ in range(rng.randint(1, 5))] for _ in range(count)]


def reference_detect(name, word, levels, s):
    """(verdicts, r0, witness) of a scan that folds the word densely on every
    nonempty block, in `oracles.boundary_contexts` order, up to the first
    that is not projectively the identity."""
    verdicts, witness = {}, {}
    for r in levels:
        params = make_params(r, s)
        for ctx in boundary_contexts(name, r):
            model = mcg.surface_model(name, ctx)
            if model.dim(params) and not mcg.is_projectively_identity(
                    represent_fold(params, model, word)):
                witness[r] = ctx
                break
        verdicts[r] = "nontrivial" if r in witness else "trivial"
    return verdicts, min(witness, default=None), witness


@pytest.mark.parametrize("s", ROOTS)
@pytest.mark.parametrize("name", SURFACES)
def test_detect_matches_the_dense_scan_of_every_block(name, s):
    rng = random.Random(f"live-blocks:{name}:{s}")
    words = seeded_words(rng, CURVES[name], 4 if name == "genus2" else 8) + [TRIVIAL[name]]
    for word in words:
        got = mcg.detect(name, word, LEVELS, s=s)
        assert (got.verdicts, got.r0, got.witness) == reference_detect(name, word, LEVELS, s), \
            (name, word, s)
    assert set(got.verdicts.values()) == {"trivial"}


@pytest.mark.parametrize("r", [3, 4, 5, 6])
@pytest.mark.parametrize("name", ["four_punctured_sphere", "punctured_torus"])
def test_words_are_nonzero_scalars_on_blocks_of_dimension_one(name, r):
    params = make_params(r)
    rng = random.Random(f"dimension-one:{name}:{r}")
    lines = [ctx for ctx in boundary_contexts(name, r)
             if mcg.surface_model(name, ctx).dim(params) == 1]
    if name == "four_punctured_sphere" or r % 2 == 0:
        assert lines
    for ctx in lines:
        model = mcg.surface_model(name, ctx)
        for word in seeded_words(rng, CURVES[name], 2) + [[(c, 1) for c in CURVES[name]]]:
            ((lam,),) = represent_fold(params, model, word)
            assert not lam.is_zero() and mcg.is_projectively_identity([[lam]]), (ctx, word)


def twist_blocks(params):
    """The boundary labels of every twist pair in the level memo."""
    return {key[2] for key in params._memo if key[0] == "twist"}


def test_no_twist_is_built_where_no_block_can_witness(fresh_contexts):
    # every block of the sphere at r = 3 has dimension 1
    word = TRIVIAL["four_punctured_sphere"] + [("g23", 2)]
    assert mcg.detect("four_punctured_sphere", word, [3]).verdicts == {3: "trivial"}
    params = make_params(3)
    assert params._memo[("blocks", "four_punctured_sphere")] == []
    assert twist_blocks(params) == set()


def test_twists_are_built_only_for_live_blocks(fresh_contexts):
    # a trivial word reads every live block: 8 of the sphere's 128 at r = 5
    assert mcg.detect("four_punctured_sphere", TRIVIAL["four_punctured_sphere"], [5]).r0 is None
    params = make_params(5)
    live = params._memo[("blocks", "four_punctured_sphere")]
    assert len(live) == 8 and len(boundary_contexts("four_punctured_sphere", 5)) == 128
    assert all(n == model.dim(params) >= 2 for _, model, n in live)
    assert twist_blocks(params) == {ctx for ctx, _, _ in live}
    assert not any(key[0] == "model" for key in params._memo)


def test_bases_are_built_once_and_kept_only_for_live_blocks(monkeypatch, fresh_contexts):
    # a trivial word reads every live block: 96 of the sphere's 648 at r = 7;
    # the dimensions come from one count, so only the live blocks' bases
    # are built, once each
    built = []
    basis = tqft.basis
    monkeypatch.setattr(tqft, "basis", lambda p, spine: built.append(spine) or basis(p, spine))
    assert mcg.detect("four_punctured_sphere", TRIVIAL["four_punctured_sphere"], [7]).r0 is None
    params = make_params(7)
    live = {ctx for ctx, _, _ in params._memo[("blocks", "four_punctured_sphere")]}
    blocks = boundary_contexts("four_punctured_sphere", 7)
    assert len(live) == 96 and len(blocks) == 648
    assert sorted(tuple(spine.boundary.values()) for spine in built) == sorted(live)
    assert {key[2] for key in params._memo if key[0] == "basis"} == live


@pytest.mark.parametrize("r", range(3, 10))
@pytest.mark.parametrize("name", SURFACES)
def test_counted_dimensions_match_the_bases(name, r):
    # the one pass with the legs free against the basis of every block
    params = make_params(r)
    count, spine, _ = mcg._surface(name)
    dims = tqft.block_dims(params, spine((0,) * count))
    for ctx in boundary_contexts(name, r):
        spine_ctx = mcg.surface_model(name, ctx).spine
        assert dims[ctx] == tqft.dim(params, spine_ctx) == len(tqft.basis(params, spine_ctx)), ctx
    assert set(dims) <= set(boundary_contexts(name, r))


@pytest.mark.parametrize("word", [[("zz", 1)], [("g12", 1), ("zz", 0)], [("zz", 0)]])
def test_unknown_curve_raises_where_no_block_is_left(word):
    with pytest.raises(DomainError) as err:
        mcg.detect("four_punctured_sphere", word, [3])
    assert str(err.value) == "unknown curve 'zz' on four_punctured_sphere"
