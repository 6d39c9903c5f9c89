"""Differential test of the detection probe `linalg.scalar_of` against the
`mat_mul` folds of `tests/oracles.py`, which share no code with its packed
column chain: the surface decision `is_projectively_identity` of a word's
fold (`represent_fold`, also the reference of `represent`) and the braid
decision `is_identity` of a sector's (`sector_rep_fold`).  Wherever the
dense product is `lambda * I` the probe must return that product's
`[0][0]`, and `None` wherever it is not.  The probe reads the factors'
column forms (`linalg.columns`) as packed residues; its segments are checked against
their bound, computed here from its definition with the dense `Scalar`
mat-vec (`oracles.mat_vec`)."""
import random
from fractions import Fraction

import pytest

from helpers import (assert_narrowest_ring, coefficients_within, column_masses, curves,
                     dense_rows, from_int, from_rational, masses_over_lcm, record_segments,
                     residue_mu, sparse_columns)
from oracles import (boundary_contexts, dense_scalar, full_twist_scalar, full_twist_word,
                     mat_vec, represent_fold, sector_rep_fold, surface_twists)
from skeinrep import braids, mcg
from skeinrep.braids import BraidWord, sector_labels
from skeinrep.linalg import columns, eye, is_identity, mat_product, product_columns, scalar_of, zeros
from skeinrep.scalars import Scalar, _part, common_denominator, make_params
from skeinrep.skein import DomainError

SURFACES = ("torus", "punctured_torus", "four_punctured_sphere", "genus2")
GENUS2_CHAIN = ("b0", "b1", "b2", "b3", "b4")


def probe(params, matrices, n):
    """`scalar_of` over the column forms of dense factors."""
    return scalar_of(params, [columns(sparse_columns(m)) for m in matrices], n)


def check_surface_word(params, model, word):
    """The probe over the word's factors agrees with the dense fold: the
    same lambda, or None for both, and the same detection verdict."""
    n = model.dim(params)
    dense = represent_fold(params, model, word)
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
    for ctx in boundary_contexts(name, r):
        model = mcg.surface_model(name, ctx)
        if model.dim(params) == 0:
            continue
        for word in seeded_words(rng, curves(model), 4):
            check_surface_word(params, model, word)


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize("name", SURFACES)
def test_represent_matches_the_fold(name, r):
    """`represent`, and `twist_matrix` at powers other than +-1, run the
    packed column chain of the probe; the `mat_mul` fold of the +-1 twists
    is their reference on the empty word, seeded words and the powers
    0, +-2, +-3 of every curve, on every boundary block."""
    params = make_params(r)
    rng = random.Random(2000 * r + SURFACES.index(name))
    for ctx in boundary_contexts(name, r):
        model = mcg.surface_model(name, ctx)
        for word in [[]] + seeded_words(rng, curves(model), 3):
            assert model.represent(params, word).matrix == represent_fold(params, model, word)
        for curve in curves(model):
            for k in (0, 2, -2, 3, -3):
                assert model.twist_matrix(params, curve, k).matrix == \
                    represent_fold(params, model, [(curve, k)]), (name, ctx, curve, k)


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
    with pytest.raises(DomainError):
        model.factors(params, [("zz", 0)])
    assert scalar_of(params, model.factors(params, [("b2", 2), ("b2", -2)]),
                     model.dim(params)).is_one()


def check_sector(params, braid, m):
    dense = sector_rep_fold(params, braid, m)
    gens = [braids._generator_columns(params, braid.n, m, g) for g in braid.word]
    lam = scalar_of(params, gens, len(dense))
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


def test_zero_and_singular_factors():
    params = make_params(4)
    lam = params.a_pow(3)
    # a zero factor makes the product 0 * I: lambda 0, which detection rejects
    zero = probe(params, [diag(params, [lam] * 3), zeros(params, 3, 3)], 3)
    assert zero is not None and zero.is_zero()
    assert not mcg.is_projectively_identity(zeros(params, 3, 3))
    # a singular factor: column 0 reads 0, column 1 does not
    assert probe(params, [diag(params, [params.zero(), params.one()])], 2) is None
    # columns whose lambda differ
    assert probe(params, [diag(params, [lam, lam, params.one()])], 3) is None
    assert probe(params, [diag(params, [lam] * 3), diag(params, [lam] * 3)], 3) == lam * lam
    # the factors multiply leftmost first: N P = 0, while P N = N is not scalar
    nil = diag(params, [params.zero(), params.zero()])
    nil[0][1] = params.one()
    proj = diag(params, [params.one(), params.zero()])
    assert probe(params, [nil, proj], 2).is_zero()
    assert probe(params, [proj, nil], 2) is None


class ReadColumns:
    """A factor's columns that record every column a product reads."""

    def __init__(self, cols, read):
        self.cols, self.read = cols, read

    def packed(self, ring):
        return ReadPacked(self.cols.packed(ring), self.read)


class ReadPacked:
    def __init__(self, col_at, read):
        self.col_at, self.read = col_at, read

    def __getitem__(self, t):
        self.read.append(t)
        return self.col_at[t]


def traced(params, matrix, read):
    """The column form of a dense factor, its column reads appended to read."""
    den, growth, cols = columns(sparse_columns(matrix))
    return den, growth, ReadColumns(cols, read)


def test_last_column_decides():
    # a column of a one-factor product reads that factor's column once
    params = make_params(5)
    n, lam = 4, params.a_pow(7)
    m = diag(params, [lam] * n)
    m[0][n - 1] = params.one()
    read = []
    assert scalar_of(params, [traced(params, m, read)], n) is None
    # every column is read: the first n - 1 are lambda e_j
    assert read == list(range(n))
    read.clear()
    m = diag(params, [lam] * n)
    m[1][0] = params.one()
    assert scalar_of(params, [traced(params, m, read), columns(sparse_columns(eye(params, n)))],
                     n) is None
    # a product that is not scalar in column 0 stops there
    assert read == [0]


def test_empty_cases():
    params = make_params(3)
    assert scalar_of(params, [], 0).is_one()
    assert mcg.is_projectively_identity([])
    assert scalar_of(params, [], 3).is_one()
    assert probe(params, [eye(params, 2)], 0).is_one()
    den, growth, cols = columns([])
    assert (den, growth, cols.cols) == (1, 0, [])
    assert mat_vec([], []) == []


class LazyWalk:
    """Lazy columns on the keys ("v", k), k any integer: column ("v", k) is
    `stay` at ("v", k) and `move` at ("v", k + shift), as numerators over
    one denominator, packed in a ring (`packed`) and built when a chain
    reads the key.  It has no length and lists no keys."""

    def __init__(self, stay, move, shift):
        self.values, self.shift = (stay, move), shift
        self.den, self.nums = common_denominator(self.values)

    def factor(self):
        """The column form (L, c, cols) of the walk."""
        return self.den, sum(sum(map(abs, v)) for v in self.nums), self

    def packed(self, ring):
        return PackedWalk(self.shift, [ring.pack(v) for v in self.nums])


class PackedWalk:
    """A walk's columns in one ring, built as they are read."""

    def __init__(self, shift, residues):
        self.shift, self.residues = shift, residues

    def __getitem__(self, key):
        _, k = key
        return (key, self.residues[0]), (("v", k + self.shift), self.residues[1])


def test_product_columns_on_lazy_keys(monkeypatch):
    """`product_columns` is generic over hashable keys: two lazy walks
    alternating over 80 factors from one start, which takes several
    segments, give the `Scalar` fold that applies the rightmost factor
    first; no factors give e_j."""
    seen = record_segments(monkeypatch)
    params = make_params(5)
    third = from_rational(params, Fraction(1, 3))
    walks = [LazyWalk(params.a_pow(1), params.a_pow(-1), 1),
             LazyWalk(params.a_pow(2) * third, -params.a_pow(3), -2)]
    chain = [walks[i % 2] for i in range(80)]
    start = ("v", 0)
    (col, ring, den), = product_columns(params, [w.factor() for w in chain], [start])
    assert len(seen) > 1
    vec = {start: params.one()}
    for walk in reversed(chain):
        out = {}
        for (_, k), x in vec.items():
            for key, y in zip((("v", k), ("v", k + walk.shift)), walk.values):
                out[key] = out[key] + y * x if key in out else y * x
        vec = {key: x for key, x in out.items() if not x.is_zero()}
    assert {key: ring.decode(z, den) for key, z in col.items()} == vec
    (col, ring, den), = product_columns(params, [], [start])
    assert {key: ring.decode(z, den) for key, z in col.items()} == {start: params.one()}
    assert mat_product(params, [], 0) == []


def test_detect_rejects_a_zero_scalar(monkeypatch):
    """0 * I is not projectively the identity: detection keeps the rejection
    of `is_projectively_identity`, though no product of twists is zero."""
    def zero_factors(model, params, word):
        n = model.dim(params)
        return [columns(sparse_columns(zeros(params, n, n)))]

    monkeypatch.setattr(mcg.SurfaceModel, "factors", zero_factors)
    assert mcg.detect("torus", [], range(3, 5)).r0 == 3


# ------------------------------------------ column forms and the residue bound

@pytest.mark.parametrize("r", range(3, 9))
def test_every_twist_packs_through_columns(r):
    """Every twist of every surface row, both signs, on every boundary
    block is c-even: its column form exists (`common_denominator` raises on
    a c-odd entry) and holds the twist's entries."""
    params = make_params(r)
    for name in SURFACES:
        for ctx in boundary_contexts(name, r):
            model = mcg.surface_model(name, ctx)
            if model.dim(params) == 0:
                continue
            for curve in curves(model):
                for sign in (1, -1):
                    den, growth, cols = model.twist_columns(params, curve, sign)
                    matrix = model.twist_matrix(params, curve, sign).matrix
                    rebuilt = dense_rows(params, [{i: Scalar(params, _part(nums, den))
                                                   for i, nums in col} for col in cols.cols])
                    assert rebuilt == matrix, (name, ctx, curve, sign)
                    assert (den, growth) == column_masses(matrix)


def check_probe_width(params, matrices, n, seen):
    """Each segment of `scalar_of` over the dense factors is as long as the
    bound allows: the most factors (at least one) with B = mu * M0 * prod c
    < 2^62, for M0 the total l1 mass of the column where the segment starts
    and c each factor's largest column mass (`column_masses`), the factors
    read right to left.  Its ring is the level's ring for B / mu, the
    narrowest whose digits of b bits hold B (B < 2^(b-2)), B < 2^62 unless
    it is one factor, and every entry of the column at its end has
    numerators at most B over the start denominator times the factors' L.
    The columns are the dense mat-vec's, read up to the first that is not
    lambda e_j, as the probe reads them.  Every column starts at e_j, of
    mass 1, so the probe finds the first segment once, for all columns,
    and each column's first segment is that one.
    Returns (k, B, held) per segment of each column, held telling whether
    the largest entry mass in place of M0 would have bounded the segment's
    end too."""
    seen.clear()
    lam = probe(params, matrices, n)
    mu = residue_mu(params)
    chain = matrices[::-1]
    dens, growths = zip(*map(column_masses, chain))
    out, segments, lam0 = [], iter(seen[1:]), None
    for j in range(n):
        states = [[params.one() if i == j else params.zero() for i in range(n)]]
        for f in chain:
            states.append(mat_vec(f, states[-1]))
        pos = 0
        while pos < len(chain):
            # every column starts at e_j, of mass 1: its first segment is the
            # one the product found once, for all columns
            k, ring = seen[0] if pos == 0 else next(segments)
            den, masses = masses_over_lcm(states[pos])
            bound, want = mu * sum(masses) * growths[pos], 1
            while pos + want < len(chain) and bound * growths[pos + want] < 2 ** 62:
                bound *= growths[pos + want]
                want += 1
            assert k == want
            assert_narrowest_ring(params, ring, bound // mu)
            assert bound < 2 ** 62 or k == 1
            for d in dens[pos:pos + k]:
                den *= d
            assert coefficients_within(states[pos + k], den, bound)
            mix = bound // sum(masses) * max(masses) if masses else 0
            out.append((k, bound, coefficients_within(states[pos + k], den, mix)))
            pos += k
        column = states[-1]
        lam0 = column[0] if j == 0 else lam0
        if column[j] != lam0 or any(not x.is_zero() for i, x in enumerate(column) if i != j):
            assert lam is None
            break
    else:
        assert lam == lam0
    assert next(segments, None) is None
    return out


def test_probe_segments_hold_their_bound(monkeypatch):
    """Scalar factors whose bound is one bit past a width, and a factor
    with a heavy row (row mass 5, column mass 2) after a wide one that
    spreads e_0 over every row: the largest entry mass times the
    column mass does not bound it, the total mass does.  Then genus-2 and
    torus relations, trivial, so the probe reads every column, and a
    nontrivial genus-2 word."""
    seen = record_segments(monkeypatch)
    segments = []
    for r in (3, 5):
        params = make_params(r)
        # bounds of 7, 15 and 31 bits, the first that need the next width
        for bits in (7, 15, 31):
            scale = from_int(params, -(-2 ** (bits - 1) // residue_mu(params)))
            segments += check_probe_width(params, [diag(params, [scale] * 2)], 2, seen)
            assert segments[-1][1].bit_length() == bits
        n, wide = 4, from_int(params, 2 ** 70)
        heavy, spread = eye(params, n), eye(params, n)
        for t in range(n):
            heavy[0][t] = heavy[0][t] + params.one()
            spread[t][0] = spread[t][0] + wide
        segments += check_probe_width(params, [heavy, spread] * 3, n, seen)
    assert not all(held for _, _, held in segments)
    params = make_params(5)
    genus2 = mcg.surface_model("genus2")
    hyperelliptic = [(c, 1) for c in GENUS2_CHAIN + GENUS2_CHAIN[::-1]]
    for model, word in ((genus2, hyperelliptic), (genus2, [(c, 1) for c in GENUS2_CHAIN] * 6),
                        (genus2, [("b2", 3), ("b0", -1), ("b4", 2)]),
                        (mcg.surface_model("torus"), [("a", 1), ("b", 1), ("a", 1)] * 4)):
        segments += check_probe_width(params, surface_twists(params, model, word),
                                      model.dim(params), seen)
    assert any(k == 1 and bound >= 2 ** 62 for k, bound, _ in segments)
    assert max(k for k, _, _ in segments) > 5
