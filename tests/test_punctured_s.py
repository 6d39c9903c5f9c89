"""The S-matrix of the one-holed torus, `recoupling.punctured_s`: its
normalization S(c) S(c) = D I, its c = 0 case, the Hopf S-matrix, the
one tetrahedral sum a cold build runs per unordered pair of labels, and the
eigen-relation C_b S(c) = S(c) diag(lambda) that makes a longitude b the
meridian of its loop after the S-move.  The curve operators C_b are the
parallel insertions of the reference route in ``test_twist_reference.py``,
which builds them with no S-move."""
import pytest

from skeinrep import mcg
from skeinrep.linalg import eye, mat_inv, mat_mul, zeros
from skeinrep.recoupling import admissible, encircle_eigenvalue, punctured_s, s_matrix
from skeinrep.scalars import make_params
from test_twist_reference import diag, loop_insertion, reference_operator, theta_basis, \
    theta_change


def as_rows(params, s):
    """S(c) as dense rows over its labels, ascending."""
    labels = sorted({a for _, a in s})
    return [[s[b, a] for a in labels] for b in labels]


@pytest.mark.parametrize("r", range(3, 13))
def test_s_squares_to_d(r):
    params = make_params(r)
    scaled = params.total_d_squared()
    for c in range(0, r - 1, 2):
        s = as_rows(params, punctured_s(params, c))
        identity = eye(params, len(s))
        assert mat_mul(s, s) == [[x * scaled for x in row] for row in identity], c


@pytest.mark.parametrize("r", range(3, 9))
def test_s_at_zero_is_the_hopf_s_matrix(r):
    params = make_params(r)
    assert as_rows(params, punctured_s(params, 0)) == s_matrix(params)


@pytest.mark.parametrize("r", range(5, 11))
def test_cold_build_sums_once_per_unordered_pair(fresh_contexts, r):
    # tet(a,b,a,b,k,c) and tet(b,a,b,a,k,c) are one tetrahedron: a cold
    # S(c) adds one tet entry per pair a <= b and k, none for b < a
    params = make_params(r)
    for c in range(2, r - 1, 2):
        labels = [a for a in range(r - 1) if admissible(params, a, a, c)]
        want = {("tet", a, b, a, b, k, c) for i, a in enumerate(labels) for b in labels[i:]
                for k in range(b - a, min(a + b, 2 * r - 4 - a - b) + 1, 2)}
        before = set(params._memo)
        punctured_s(params, c)
        assert {key for key in params._memo.keys() - before if key[0] == "tet"} == want, c


def loop_s(params, tuples, pos, third):
    """K^{-1} of the S-move on the loop at tuple position pos, dense: S(c)
    on each block of tuples that agree off the loop, c at position third."""
    out = zeros(params, len(tuples), len(tuples))
    for i, u in enumerate(tuples):
        for j, v in enumerate(tuples):
            if u[:pos] + u[pos + 1:] == v[:pos] + v[pos + 1:]:
                out[i][j] = punctured_s(params, u[third])[u[pos], v[pos]]
    return out


def check_eigen_relation(params, cmat, conj, lams):
    """C conj = conj diag(lams)."""
    assert mat_mul(cmat, conj) == mat_mul(conj, diag(params, lams))


@pytest.mark.parametrize("r", range(3, 9))
def test_punctured_torus_longitude_is_a_meridian_after_s(r):
    params = make_params(r)
    for c in range(0, r - 1, 2):
        model = mcg.surface_model("punctured_torus", (c,))
        tuples = [(b["x"], c) for b in model.basis(params)]
        if not tuples:
            continue
        lams = [encircle_eigenvalue(params, x) for x, _ in tuples]
        check_eigen_relation(params, loop_insertion(params, tuples, 0),
                             loop_s(params, tuples, 0, 1), lams)


@pytest.mark.parametrize("r", range(3, 9))
@pytest.mark.parametrize("pos", [0, 2])
def test_genus2_handle_longitudes_are_meridians_after_s(r, pos):
    # b0 runs along the loop x (position 0), b4 along y (position 2); the
    # bar m at position 1 is the loop's third label
    params, model = make_params(r), mcg.surface_model("genus2")
    tuples = [(b["x"], b["m"], b["y"]) for b in model.basis(params)]
    lams = [encircle_eigenvalue(params, t[pos]) for t in tuples]
    check_eigen_relation(params, loop_insertion(params, tuples, pos),
                         loop_s(params, tuples, pos, 1), lams)


@pytest.mark.parametrize("r", range(3, 9))
def test_genus2_b2_is_the_bar_meridian_after_s_on_both_loops(r):
    # C_b2 conj = conj diag(lambda_f) for conj = S_x S_y F^{-1}, F the bar's
    # F-move to the theta spine; the theta basis holds the new bar label f
    params, model = make_params(r), mcg.surface_model("genus2")
    tuples = [(b["x"], b["m"], b["y"]) for b in model.basis(params)]
    sx, sy = loop_s(params, tuples, 0, 1), loop_s(params, tuples, 2, 1)
    conj = mat_mul(sx, mat_mul(sy, mat_inv(params, theta_change(params, model))))
    lams = [encircle_eigenvalue(params, f) for _, _, f in theta_basis(params)]
    check_eigen_relation(params, reference_operator(params, model, "b2"), conj, lams)
