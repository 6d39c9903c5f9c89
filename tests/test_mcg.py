"""Mapping-class-group representations: twist matrices, relations, detection."""
import json
import math
import random

import pytest

from helpers import curves, dense_rows, from_int, scalar_multiple_of
from oracles import boundary_contexts, expand_solid_torus, mat_vec, theta_spine
from skeinrep import mcg, skein, tqft
from skeinrep.braids import BraidWord, jones_sector_rep, sector_labels
from skeinrep.linalg import Columns, eye, mat_mul
from skeinrep.recoupling import encircle_eigenvalue, s_matrix, twist_coefficient
from skeinrep.scalars import QuantumParams, Scalar, make_params
from skeinrep.skein import DomainError, closed_braid_link
from skeinrep.tl import TLDiagram, TLElement, jones_wenzl


@pytest.fixture(params=[3, 4, 5, 6])
def params(request):
    return make_params(request.param)


@pytest.fixture(params=[3, 4, 5])
def small_params(request):
    return make_params(request.param)


def unit_vector(params, model, index):
    n = model.dim(params)
    return [params.one() if i == index else params.zero() for i in range(n)]


def proportional(a, b):
    return scalar_multiple_of(a, b) is not None


def commute(t1, t2):
    return proportional(mat_mul(t1, t2), mat_mul(t2, t1))


def braid_relation(t1, t2):
    return proportional(mat_mul(t1, mat_mul(t2, t1)),
                        mat_mul(t2, mat_mul(t1, t2)))


# ---------------------------------------------------------------- torus

def test_torus_meridian_twist_is_diagonal(params):
    model = mcg.surface_model("torus")
    t = model.twist_matrix(params, "a").matrix
    for i in range(len(t)):
        for j in range(len(t)):
            if i == j:
                assert t[i][i] == twist_coefficient(params, i)
            else:
                assert t[i][j].is_zero()


def test_torus_meridian_twist_r3_nontrivial():
    params = make_params(3)
    t = mcg.surface_model("torus").twist_matrix(params, "a").matrix
    a = params.a_pow(1)
    assert t[0][0] == params.one()
    assert t[1][1] == -(a ** 3)
    assert not mcg.is_projectively_identity(t)


def test_torus_modular_relations(params):
    model = mcg.surface_model("torus")
    s = s_matrix(params)
    t = model.twist_matrix(params, "a").matrix
    n = len(s)
    s2 = mat_mul(s, s)
    assert proportional(mat_mul(s2, s2), eye(params, n))  # S^4 = 1 proj.
    ts = mat_mul(t, s)
    assert proportional(mat_mul(ts, mat_mul(ts, ts)), s2)  # (TS)^3 = S^2 proj.


def test_torus_curve_operator_spectra(params):
    model = mcg.surface_model("torus")
    n = model.dim(params)
    for curve in curves(model):
        c = model.curve_operator(params, curve).matrix
        prod = eye(params, n)
        for k in range(params.r - 1):
            lam = encircle_eigenvalue(params, k)
            step = [[c[i][j] - (lam if i == j else params.zero())
                     for j in range(n)] for i in range(n)]
            prod = mat_mul(prod, step)
        assert all(x.is_zero() for row in prod for x in row)


def test_torus_longitude_conjugate_by_s(params):
    model = mcg.surface_model("torus")
    s = s_matrix(params)
    ca = model.curve_operator(params, "a").matrix
    cb = model.curve_operator(params, "b").matrix
    assert mat_mul(cb, s) == mat_mul(s, ca)


def test_torus_c_is_twisted_b(params):
    model = mcg.surface_model("torus")
    va = model.twist_matrix(params, "a").matrix
    cb = model.curve_operator(params, "b").matrix
    cc = model.curve_operator(params, "c").matrix
    assert mat_mul(cc, va) == mat_mul(va, cb)


def test_torus_meridian_operator_on_empty_column(params):
    model = mcg.surface_model("torus")
    ca = model.curve_operator(params, "a").matrix
    v = mat_vec(ca, unit_vector(params, model, 0))
    assert v[0] == params.loop_d()
    assert all(x.is_zero() for x in v[1:])


def test_torus_longitude_operator_matches_solid_torus_expansion(params):
    model = mcg.surface_model("torus")
    cb = model.curve_operator(params, "b").matrix
    v = mat_vec(cb, unit_vector(params, model, 0))
    expansion = expand_solid_torus(params, 0, 1)
    assert v == expansion


def test_torus_diagonal_curve_operator_is_framed_longitude(params):
    # C((1,+-1)) e_0 equals the (+-1,1)-curve expansion up to the framing
    # phase mu_1^{+-1} the twist conjugation carries.
    model = mcg.surface_model("torus")
    for curve, p in (("c", 1), ("d", -1)):
        cm = model.curve_operator(params, curve).matrix
        v = mat_vec(cm, unit_vector(params, model, 0))
        expansion = expand_solid_torus(params, p, 1)
        mu = twist_coefficient(params, 1)
        phase = mu if p == 1 else mu.inverse()
        assert v == [phase * x for x in expansion]


def test_torus_braid_and_commutation(params):
    model = mcg.surface_model("torus")
    ta = model.twist_matrix(params, "a").matrix
    tb = model.twist_matrix(params, "b").matrix
    tc = model.twist_matrix(params, "c").matrix
    assert braid_relation(ta, tb)  # i(a,b)=1
    assert braid_relation(tb, tc)  # i(b,c)=1
    assert braid_relation(ta, tc)  # i(a,c)=1


def test_torus_twist_order(params):
    # The twist coefficients are 4r-th roots of unity, so T^(4r) = 1 exactly.
    model = mcg.surface_model("torus")
    ta = model.twist_matrix(params, "a", 4 * params.r).matrix
    assert ta == eye(params, model.dim(params))


# ------------------------------------------------------ punctured torus

def test_punctured_torus_braid_relation(small_params):
    params = small_params
    for l in range(0, params.r - 1, 2):
        model = mcg.surface_model("punctured_torus", (l,))
        if model.dim(params) == 0:
            continue
        ta = model.twist_matrix(params, "a").matrix
        tb = model.twist_matrix(params, "b").matrix
        assert braid_relation(ta, tb)


def test_punctured_torus_zero_label_matches_torus():
    # boundary label 0: same loop basis and same twist eigenvalues as the torus
    params = make_params(5)
    model = mcg.surface_model("punctured_torus", (0,))
    ta = model.twist_matrix(params, "a").matrix
    torus_ta = mcg.surface_model("torus").twist_matrix(params, "a").matrix
    assert ta == torus_ta


@pytest.mark.parametrize("r, s", [(r, 1) for r in range(3, 9)] + [(8, 3)])
def test_torus_equals_punctured_torus_at_label_zero(r, s):
    """Capping the puncture labelled 0 gives the torus, in the same loop
    basis.  Both frame b by the S-move, the torus on its free circle and the
    one-holed torus on its loop at c = 0; the parallel-insertion route
    checks the latter (test_punctured_s.py).  The torus c and d are b moved
    by the meridian twist V_a^{+-1}."""
    params = make_params(r, s)
    torus = mcg.surface_model("torus")
    holed = mcg.surface_model("punctured_torus", (0,))

    def matrices(model, curve):
        return [model.curve_operator(params, curve).matrix] + \
            [model.twist_matrix(params, curve, e).matrix for e in (1, -1)]

    for curve in ("a", "b"):
        assert matrices(torus, curve) == matrices(holed, curve)
    va, va_inv = (holed.twist_matrix(params, "a", e).matrix for e in (1, -1))
    for curve, left, right in (("c", va, va_inv), ("d", va_inv, va)):
        assert matrices(torus, curve) == [mat_mul(left, mat_mul(m, right))
                                          for m in matrices(holed, "b")]


# ------------------------------------------------ four-punctured sphere

def test_four_punctured_disjoint_curves_commute(small_params):
    params = small_params
    model = mcg.surface_model("four_punctured_sphere", (1, 1, 1, 1))
    t12 = model.twist_matrix(params, "g12").matrix
    t34 = model.twist_matrix(params, "g34").matrix
    assert commute(t12, t34)


def test_four_punctured_g23_spectrum(small_params):
    params = small_params
    model = mcg.surface_model("four_punctured_sphere", (1, 1, 1, 1))
    c = model.curve_operator(params, "g23").matrix
    n = len(c)
    prod = eye(params, n)
    for k in range(params.r - 1):
        lam = encircle_eigenvalue(params, k)
        step = [[c[i][j] - (lam if i == j else params.zero())
                 for j in range(n)] for i in range(n)]
        prod = mat_mul(prod, step)
    assert all(x.is_zero() for row in prod for x in row)


def test_four_punctured_nested_channel_action():
    # with labels (1,1,1,1) the g23 operator sends the e=0 channel vector to
    # the fused expansion over f in {0, 2}
    params = make_params(4)
    model = mcg.surface_model("four_punctured_sphere", (1, 1, 1, 1))
    c = model.curve_operator(params, "g23").matrix
    assert not c[1][0].is_zero()  # mixes the channels
    assert not c[0][1].is_zero()


def test_four_punctured_needs_four_labels():
    with pytest.raises(DomainError):
        mcg.surface_model("four_punctured_sphere", (1, 1))


def test_zero_dimensional_block():
    params = make_params(4)
    model = mcg.surface_model("punctured_torus", (1,))
    assert model.dim(params) == 0
    assert mat_mul([], []) == []
    assert model.represent(params, [("a", 1), ("b", -1)]).matrix == []


# -------------------------------------------------------------- genus 2

def count_twist_pairs(monkeypatch, record):
    """Calls of the builder of a curve's (T, T^{-1}) pair of column forms
    (`linalg.columns`, each (L, c, cols), cols.cols the columns), as record(params, curve, pair)
    values."""
    calls = []
    build = mcg.SurfaceModel._twist_pair

    def counted(self, p, curve):
        pair = build(self, p, curve)
        calls.append(record(p, curve, pair))
        return pair

    monkeypatch.setattr(mcg.SurfaceModel, "_twist_pair", counted)
    return calls


def test_genus2_twist_shared_across_models(monkeypatch, fresh_contexts):
    # fresh contexts, so the level memo starts without b2; the pair builder
    # is counted, one build serving both signs
    params = make_params(4, 13)
    calls = count_twist_pairs(monkeypatch, lambda p, curve, pair: curve)
    first = mcg.surface_model("genus2").twist_matrix(params, "b2")
    second = mcg.surface_model("genus2").twist_matrix(params, "b2")
    assert calls == ["b2"]
    assert first.matrix == second.matrix


def test_inverse_twist_inverted_once(monkeypatch, fresh_contexts):
    # fresh contexts, so the level memo starts without the inverse; the
    # inverse comes with the forward twist from one pair build
    params = make_params(4, 5)
    # the inverse's dimension is its number of columns, 3 at r = 4
    calls = count_twist_pairs(monkeypatch, lambda p, curve, pair: len(pair[1][2].cols))
    first = mcg.surface_model("torus").twist_matrix(params, "a", -1)
    assert mcg.surface_model("torus").twist_matrix(params, "a", -1).matrix == first.matrix
    cube = mcg.surface_model("torus").twist_matrix(params, "a", -3)
    assert calls == [3]
    assert cube.matrix == mat_mul(mat_mul(first.matrix, first.matrix), first.matrix)
    forward = mcg.surface_model("torus").twist_matrix(params, "a", 1)
    assert calls == [3]  # the forward twist came with the inverse
    assert mat_mul(forward.matrix, first.matrix) == eye(params, 3)


def test_level_memo_holds_one_twist_entry_per_curve(fresh_contexts):
    # every genus-2 twist, both signs: one memo entry per curve, the pair of
    # column forms, and no matrix kept as dense rows
    params, model = make_params(5), mcg.surface_model("genus2")
    for curve in curves(model):
        for sign in (1, -1):
            model.twist_matrix(params, curve, sign)
    memo = params._memo
    assert sorted(key for key in memo if key[0].startswith("twist")) == \
        [("twist", "genus2", (), curve) for curve in curves(model)]
    for curve in curves(model):
        pair = memo[("twist", "genus2", (), curve)]
        assert isinstance(pair, tuple) and [len(form) for form in pair] == [3, 3]
        assert [len(form[2].cols) for form in pair] == [model.dim(params)] * 2

    def dense(value):
        # a square list of rows of Scalars, alone or inside a tuple or the
        # columns of a column form
        if isinstance(value, tuple):
            return any(map(dense, value))
        if isinstance(value, Columns):
            return dense(value.cols)
        return isinstance(value, list) and bool(value) and all(
            isinstance(row, list) and len(row) == len(value)
            and all(isinstance(x, Scalar) for x in row) for row in value)

    assert not any(dense(v) for v in memo.values())


def test_curves_with_one_row_share_one_twist_entry(monkeypatch, fresh_contexts):
    # the sphere's g12 and g34 both encircle the comb's middle edge with no
    # move: one pair is built for the two, under the first curve's name
    params, model = make_params(6), mcg.surface_model("four_punctured_sphere", (2, 2, 2, 2))
    calls = count_twist_pairs(monkeypatch, lambda p, curve, pair: curve)
    for sign in (1, -1):
        assert model.twist_columns(params, "g12", sign) is model.twist_columns(params, "g34", sign)
    assert calls == ["g12"]
    assert sorted(key for key in params._memo if key[0] == "twist") == \
        [("twist", "four_punctured_sphere", (2, 2, 2, 2), "g12")]


SURFACES = ("torus", "punctured_torus", "four_punctured_sphere", "genus2")


def build_every_frame(params):
    """Every twist pair and curve operator on every nonempty block of every
    surface at a level."""
    for name in SURFACES:
        for ctx in boundary_contexts(name, params.r):
            model = mcg.surface_model(name, ctx)
            if model.dim(params):
                for curve in curves(model):
                    model.twist_columns(params, curve, 1)
                    model.curve_operator(params, curve)


def test_cold_frames_multiply_by_no_unit(monkeypatch, fresh_contexts):
    # a product with the c-even one is the other operand: the [0]!, [1]!
    # and d_0 factors of the recoupling values, and a core with no S-move,
    # cost no polynomial product
    units = []
    poly_mul = QuantumParams._poly_mul

    def counting(self, u, v):
        units.append(u == self._one or v == self._one)
        return poly_mul(self, u, v)

    monkeypatch.setattr(QuantumParams, "_poly_mul", counting)
    for r in range(3, 8):
        build_every_frame(make_params(r))
    assert units and not any(units)


def test_each_move_is_built_once_per_level_and_block(monkeypatch, fresh_contexts):
    # torus b, c, d share one S-move, genus-2 b2 shares b0's and b4's; each
    # move is one level-memo entry, S a single column form for both sides
    built = []
    for move in ("_s_move", "_f_move"):
        fn = getattr(mcg, move)
        monkeypatch.setattr(mcg, move, lambda p, names, vertices, tuples, edge, fn=fn:
                            built.append(edge) or fn(p, names, vertices, tuples, edge))
    params = make_params(5)
    build_every_frame(params)
    moves = {key[1:] for key in params._memo if key[0] == "move"}
    sphere = {("four_punctured_sphere", key[2], (), "m1") for key, basis in params._memo.items()
              if key[:2] == ("basis", "four_punctured_sphere") and basis}
    assert moves == sphere | {("torus", (), (), "Sa"), ("punctured_torus", (0,), (), "Sx"),
                              ("punctured_torus", (2,), (), "Sx"), ("genus2", (), (), "Sx"),
                              ("genus2", (), (), "Sy"), ("genus2", (), (), "m")}
    assert len(built) == len(moves)
    s_form = params._memo[("move", "torus", (), (), "Sa")]
    assert isinstance(s_form[2], Columns)
    for curve in ("b", "c", "d"):
        left, _, factor, right = mcg.surface_model("torus")._frame(params, curve)
        assert left[-1] is s_form is right[0]
        assert factor == params.total_d_squared().inverse()


def test_genus2_nested_curve_on_handlebody_vector(small_params):
    # C(b2) applied to the empty-handlebody vector is the fused expansion of
    # a single curve through both handles: support {(1,0,1), (1,2,1)} with
    # coefficients d_c / theta(1,1,c).
    from skeinrep.recoupling import loop_value, theta
    params = small_params
    model = mcg.surface_model("genus2")
    bas = model.basis(params)
    tuples = [(b["x"], b["m"], b["y"]) for b in bas]
    e0 = [params.one() if t == (0, 0, 0) else params.zero() for t in tuples]
    v = mat_vec(model.curve_operator(params, "b2").matrix, e0)
    for i, t in enumerate(tuples):
        x, m, y = t
        if (x, y) == (1, 1) and m in (0, 2) and m <= params.r - 2:
            want = loop_value(params, m) / theta(params, 1, 1, m)
            assert v[i] == want
        else:
            assert v[i].is_zero()


def test_genus2_longitude_on_handlebody_vector(small_params):
    params = small_params
    model = mcg.surface_model("genus2")
    bas = model.basis(params)
    tuples = [(b["x"], b["m"], b["y"]) for b in bas]
    e0 = [params.one() if t == (0, 0, 0) else params.zero() for t in tuples]
    v = mat_vec(model.curve_operator(params, "b0").matrix, e0)
    for i, t in enumerate(tuples):
        if t == (1, 0, 0):
            assert v[i] == params.one()
        else:
            assert v[i].is_zero()


def test_genus2_chain_relations(small_params):
    params = small_params
    model = mcg.surface_model("genus2")
    t = {c: model.twist_matrix(params, c).matrix for c in curves(model)}
    chain = ["b0", "b1", "b2", "b3", "b4"]
    for i, a in enumerate(chain):
        for b in chain[i + 1:]:
            if chain.index(b) == i + 1:
                assert braid_relation(t[a], t[b]), (a, b)
            else:
                assert commute(t[a], t[b]), (a, b)


def test_genus2_hyperelliptic_relation(small_params):
    # (t_b0 t_b1 t_b2 t_b3 t_b4)^6 is projectively trivial
    params = small_params
    model = mcg.surface_model("genus2")
    word = [(c, 1) for c in ("b0", "b1", "b2", "b3", "b4")] * 6
    m = model.represent(params, word).matrix
    assert mcg.is_projectively_identity(m)


@pytest.mark.parametrize("r", [5, 6, 7])
def test_genus2_relations_trivial_at_paper_scale(r):
    """The hyperelliptic involution b0 b1 b2 b3 b4 b4 b3 b2 b1 b0 and the
    chain relation (b0 b1 b2 b3 b4)^6 act as scalars at every level, so the
    probe reads every column: dimensions 20, 35 and 56."""
    hyperelliptic = mcg.parse_word("b0 b1 b2 b3 b4 b4 b3 b2 b1 b0")
    chain = mcg.parse_word("b0 b1 b2 b3 b4") * 6
    for word in (hyperelliptic, chain):
        assert mcg.detect("genus2", word, [r]).verdicts == {r: "trivial"}


# ------------------------------------------------------------ detection

def test_is_projectively_identity_unit():
    params = make_params(4)
    lam = params.a_pow(1)
    m = [[lam, params.zero()], [params.zero(), lam]]
    assert mcg.is_projectively_identity(m)
    m[0][1] = params.one()
    assert not mcg.is_projectively_identity(m)
    assert not mcg.is_projectively_identity(
        [[params.zero(), params.zero()], [params.zero(), params.zero()]])


def test_detect_empty_word_trivial():
    res = mcg.detect("torus", [], range(3, 6))
    assert res.r0 is None
    assert all(v == "trivial" for v in res.verdicts.values())


def test_detect_single_twist():
    res = mcg.detect("torus", [("a", 1)], range(3, 6))
    assert res.r0 == 3
    assert res.verdicts[3] == "nontrivial"


def test_detect_conjugation_consistency():
    # w and g w g^-1 are detected at the same levels
    w = [("a", 2), ("b", -1)]
    conj = [("b", 1)] + w + [("b", -1)]
    r_range = range(3, 6)
    res1 = mcg.detect("torus", w, r_range)
    res2 = mcg.detect("torus", conj, r_range)
    assert res1.verdicts == res2.verdicts


def test_scan_levels_records_falsy_witness():
    # the torus and genus-2 witness is the empty block label tuple
    seen = []

    def probe(params):
        seen.append(params.r)
        return () if params.r >= 4 else None

    res = mcg.scan_levels([5, 3, 4], 1, probe)
    assert seen == [3, 4, 5]
    assert res.r0 == 4
    assert res.verdicts == {3: "trivial", 4: "nontrivial", 5: "nontrivial"}
    assert res.witness == {4: (), 5: ()}


@pytest.mark.parametrize("r_range, s", [(range(3, 6), 3), (range(2, 5), 1)])
def test_detect_bad_level_is_domain_error(r_range, s):
    with pytest.raises(DomainError, match=f"r={r_range[0]}"):
        mcg.detect("torus", [("a", 1)], r_range, s=s)


def test_detect_punctured_torus_blocks():
    res = mcg.detect("punctured_torus", [("a", 1), ("b", -1)], range(3, 5))
    assert res.r0 is not None
    assert res.witness[res.r0] in [(l,) for l in range(0, res.r0 - 1, 2)]


def test_parse_word():
    assert mcg.parse_word("b0 b1 -b2 +a") == [
        ("b0", 1), ("b1", 1), ("b2", -1), ("a", 1)]


@pytest.mark.parametrize("text", ["-", "a +", "+ b"])
def test_parse_word_rejects_bare_sign(text):
    with pytest.raises(ValueError, match="names no curve"):
        mcg.parse_word(text)


# --------------------------------------------------- mapping torus trace

def test_mapping_torus_trace_identity(params):
    model = mcg.surface_model("torus")
    tr = mcg.mapping_torus_trace(model, params, [])
    assert tr == from_int(params, params.r - 1)


def test_mapping_torus_trace_single_twist():
    params = make_params(3)
    model = mcg.surface_model("torus")
    tr = mcg.mapping_torus_trace(model, params, [("a", 1)])
    a = params.a_pow(1)
    assert tr == params.one() - a ** 3


def test_mapping_torus_trace_conjugation_invariant(small_params):
    params = small_params
    model = mcg.surface_model("torus")
    w = [("a", 1), ("b", 1)]
    conj = [("b", -1)] + w + [("b", 1)]
    assert mcg.mapping_torus_trace(model, params, w) == \
        mcg.mapping_torus_trace(model, params, conj)


def test_mapping_torus_trace_needs_closed_surface():
    params = make_params(4)
    with pytest.raises(DomainError):
        mcg.mapping_torus_trace(mcg.surface_model("punctured_torus", (0,)), params, [])


def test_unknown_curve_rejected(params):
    with pytest.raises(DomainError):
        mcg.surface_model("torus").twist_matrix(params, "nope")
    with pytest.raises(DomainError):
        mcg.surface_model("klein_bottle")


# ------------------------------------------------ one memo per level
#
# The exact parts of a value do not depend on which primitive 4r-th root A
# is: every root of a level shares one memo, and s only picks the embedding.


def units(r):
    return [s for s in range(1, 4 * r) if math.gcd(s, 4 * r) == 1]


def level_objects(params):
    """Memoized and derived values at one root: twist matrices (+-1) on the
    torus and the punctured torus, genus-2 b2 at r = 4, every Jones-Wenzl
    projector, the B_3 sector matrices, those of a B_4 word drawn per root
    (so a root may build generators whose blocks another root built) and an
    omega-labeled framed closure."""
    out = []
    models = [mcg.surface_model("torus")] + [mcg.surface_model("punctured_torus", (l,))
                                             for l in range(0, params.r - 1, 2)]
    for model in models:
        for curve in curves(model):
            for power in (1, -1):
                out.append(model.twist_matrix(params, curve, power).matrix)
    if params.r == 4:
        out.append(mcg.surface_model("genus2").twist_matrix(params, "b2").matrix)
    out += [jones_wenzl(params, k) for k in range(params.r - 1)]
    rng = random.Random(100 * params.r + params.s)
    for braid in (BraidWord(3, (1, -2, 1, 2)),
                  BraidWord(4, [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(4)])):
        out += [jones_sector_rep(params, braid, m).matrix for m in sector_labels(params, braid.n)]
    out.append(skein.evaluate(params, closed_braid_link(
        [1, 1, -2], 3, labels=[skein.OMEGA, 1], framings=[1, -1])))
    return out


def digest(params, obj):
    """The to_json and the rounded embedding at params of every scalar in
    obj, which must all be bound to the level of params, make_params(r, 1)."""
    if isinstance(obj, list):
        return [digest(params, x) for x in obj]
    if isinstance(obj, TLElement):
        return digest(params, [obj.terms[d] for d in sorted(obj.terms, key=TLDiagram.parens)])
    assert obj.params is make_params(params.r, 1)
    v = obj.embed(params)
    return [obj.to_json(), round(v.real, 9), round(v.imag, 9)]


def fingerprint(r, s):
    params = make_params(r, s)
    return json.dumps(digest(params, level_objects(params)))


def test_shared_level_memo_matches_per_root_builds(fresh_contexts):
    rng = random.Random(6)
    roots = [(r, s) for r in (4, 5, 6) for s in rng.sample(units(r), 4)]
    rng.shuffle(roots)
    shared = {rs: fingerprint(*rs) for rs in roots}
    for rs in roots:
        fresh_contexts()  # the reference builds every value at its own root
        assert fingerprint(*rs) == shared[rs], rs


def test_level_memo_builds_twist_once(monkeypatch, fresh_contexts):
    # one S(c) table per level and label: the second root reads the first's,
    # for a twist it shares and for one it builds itself
    builds = []
    cached = QuantumParams.cached
    monkeypatch.setattr(QuantumParams, "cached", lambda p, key, build: cached(
        p, key, lambda: builds.append((p.s, key)) or build()))
    first = mcg.surface_model("genus2").twist_matrix(make_params(4, 1), "b2").matrix
    calls = count_twist_pairs(monkeypatch, lambda p, curve, pair: (p.s, curve))
    last = make_params(4, 15)
    other = mcg.surface_model("genus2").twist_matrix(last, "b2").matrix
    assert calls == []
    assert all(x.params is make_params(4, 1) for row in other for x in row)
    assert [[(x.part, x.odd) for x in row] for row in other] == \
        [[(x.part, x.odd) for x in row] for row in first]
    mcg.surface_model("genus2").twist_matrix(last, "b0")
    assert calls == [(15, "b0")]
    # the bar m carries the labels 0 and 2 at r = 4
    assert [b for b in builds if b[1][0] == "punctured_s"] == \
        [(1, ("punctured_s", 0)), (1, ("punctured_s", 2))]


def test_cold_genus2_twists_invert_once_per_denominator(monkeypatch, fresh_contexts):
    # every recoupling value is a product of the level's tables, so a cold
    # build of the five genus-2 twist pairs at r = 5 inverts the factorials
    # [0]! .. [4]! once each and D once, for K = S(c)/D (6)
    calls = []
    inverse = Scalar.inverse
    monkeypatch.setattr(Scalar, "inverse", lambda x: calls.append(x) or inverse(x))
    params, model = make_params(5), mcg.surface_model("genus2")
    for curve in curves(model):
        model.twist_matrix(params, curve)
    assert len(calls) == 6


HYPERELLIPTIC = "b0 b1 b2 b3 b4 b4 b3 b2 b1 b0"


@pytest.mark.parametrize("surface, word, levels", [
    ("torus", "a b", (4, 5, 6)),
    ("torus", "a -a", (4, 5, 6)),
    ("genus2", "b0 b1", (4, 5)),
    ("genus2", HYPERELLIPTIC, (4, 5)),
])
def test_verdicts_do_not_depend_on_the_root(surface, word, levels):
    # the paper's detection holds for every primitive 4r-th root A
    word = mcg.parse_word(word)
    for r in levels:
        ref = mcg.detect(surface, word, [r], s=1)
        for s in units(r):
            res = mcg.detect(surface, word, [r], s=s)
            assert (res.verdicts, res.r0, res.witness) == (ref.verdicts, ref.r0, ref.witness), (r, s)


@pytest.mark.parametrize("build", [
    lambda model, p: model.twist_matrix(p, "b"),
    lambda model, p: model.twist_matrix(p, "b", -1),
    lambda model, p: model.represent(p, [("b", 1)]),
])
def test_one_letter_results_do_not_alias_the_memo(build):
    """A one-letter result starts from the memoized twist; writing into it
    leaves the next call's result as it was."""
    p, model = make_params(4), mcg.surface_model("torus")
    first = build(model, p).matrix
    expected = [list(row) for row in first]
    first[0][0] = from_int(p, 7)
    first[1] = [p.zero()] * len(first[1])
    assert build(model, p).matrix == expected


def test_empty_word_and_zero_power_are_the_identity():
    p, model = make_params(4), mcg.surface_model("torus")
    identity = eye(p, model.dim(p))
    assert model.represent(p, []).matrix == identity
    assert model.twist_matrix(p, "b", 0).matrix == identity
    assert model.represent(p, [("b", 2), ("b", -2)]).matrix == identity
    with pytest.raises(DomainError):
        model.twist_matrix(p, "z", 0)


# ------------------------------------------------------------ F-moves

def spine_tuples(params, spine):
    """names (edges, then legs), vertices and basis tuples of a spine, as
    `SurfaceModel._frame` hands them to `_f_move`."""
    names = list(spine.edges) + list(spine.boundary)
    tuples = [tuple(b[x] for x in spine.edges) + tuple(spine.boundary.values())
              for b in tqft.basis(params, spine)]
    return names, spine.vertices, tuples


def check_f_move(params, spine, edge):
    """The new vertices, the new basis tuples and K K^{-1} = K^{-1} K = I."""
    names, vertices, tuples = spine_tuples(params, spine)
    moved, new, k, k_inv = mcg._f_move(params, names, vertices, tuples, edge)
    k, k_inv = dense_rows(params, k), dense_rows(params, k_inv)
    identity = eye(params, len(tuples))
    assert mat_mul(k, k_inv) == identity
    assert mat_mul(k_inv, k) == identity
    return names, moved, new


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7])
def test_f_move_on_the_h_spine_gives_the_v_channel(r):
    params = make_params(r)
    for labels in boundary_contexts("four_punctured_sphere", r):
        # the v channel pairs legs (2,3)(4,1)
        v_spine = tqft.Spine(edges=["m1"], vertices=[["p2", "p3", "m1"], ["p4", "p1", "m1"]],
                             boundary=dict(zip(("p1", "p2", "p3", "p4"), labels)))
        names, moved, new = check_f_move(params, tqft.comb_spine(labels), "m1")
        assert sorted(map(sorted, moved)) == sorted(map(sorted, v_spine.vertices))
        v = spine_tuples(params, v_spine)[2]
        assert set(new) == set(v), labels


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7])
def test_f_move_on_the_dumbbell_bar_gives_the_theta_spine(r):
    params = make_params(r)
    names, moved, new = check_f_move(params, tqft.dumbbell_spine(), "m")
    assert sorted(map(sorted, moved)) == [["m", "x", "y"]] * 2
    theta = {(b["x"], b["y"], b["z"]) for b in tqft.basis(params, theta_spine())}
    assert {(x, y, f) for x, f, y in new} == theta


def test_f_move_reads_one_f_matrix_per_block(monkeypatch):
    # K^{-1} comes from K's own F-matrix by 6j orthogonality, not from the
    # rotated F(b,c,d,a)
    calls = []
    build = mcg.f_matrix
    monkeypatch.setattr(mcg, "f_matrix", lambda p, *labels: calls.append(labels) or build(p, *labels))
    params = make_params(5)
    names, vertices, tuples = spine_tuples(params, tqft.dumbbell_spine())
    mcg._f_move(params, names, vertices, tuples, "m")
    assert calls == list(dict.fromkeys((x, x, y, y) for x, _, y in tuples))
