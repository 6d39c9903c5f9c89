import itertools
import math

import pytest

import oracles
from skeinrep import linalg
from skeinrep import recoupling as rc
from skeinrep.scalars import make_params


RS = [3, 4, 5, 6]


# The division forms of theta, tet and six_j from before the recoupling
# values became products of the level's factorial tables, kept verbatim as
# the references of test_recoupling_matches_division_forms.

def theta_division(params, a, b, c):
    if not rc.admissible(params, a, b, c):
        return params.zero()
    x, y, z = (a + b - c) // 2, (b + c - a) // 2, (c + a - b) // 2
    f = params.quantum_factorial
    num = f(x + y + z + 1) * f(x) * f(y) * f(z)
    den = f(x + y) * f(y + z) * f(z + x)
    value = num / den
    return -value if (x + y + z) % 2 else value


def tet_division(params, a, b, c, d, e, f):
    triples = [(a, b, e), (c, d, e), (a, c, f), (b, d, f)]
    if not all(rc.admissible(params, *t) for t in triples):
        return params.zero()
    av = [(a + b + e) // 2, (c + d + e) // 2, (a + c + f) // 2, (b + d + f) // 2]
    bv = [(a + d + e + f) // 2, (b + c + e + f) // 2, (a + b + c + d) // 2]
    fq = params.quantum_factorial
    pref_num = params.one()
    for bj in bv:
        for ai in av:
            pref_num = pref_num * fq(bj - ai)
    pref_den = params.one()
    for edge in (a, b, c, d, e, f):
        pref_den = pref_den * fq(edge)
    total = params.zero()
    for s in range(max(av), min(bv) + 1):
        term = -fq(s + 1) if s % 2 else fq(s + 1)
        den = params.one()
        for ai in av:
            den = den * fq(s - ai)
        for bj in bv:
            den = den * fq(bj - s)
        total = total + term / den
    return pref_num / pref_den * total


def six_j_division(params, a, b, c, d, e, f):
    tf = theta_division(params, b, c, f)
    ta = theta_division(params, a, d, f)
    if tf.is_zero() or ta.is_zero():
        return params.zero()
    return tet_division(params, b, a, c, d, e, f) * rc.loop_value(params, f) / (tf * ta)


def exact(x):
    return x.part, x.odd


@pytest.mark.parametrize("r, s", [(r, s) for r in RS for s in (1, 7)])
def test_recoupling_matches_division_forms(r, s, fresh_contexts):
    # a cold level at each root, so the memoized values are built at s
    p = make_params(r, s)
    labels = range(r - 1)
    for tri in itertools.product(labels, repeat=3):
        value = rc.theta(p, *tri)
        assert exact(value) == exact(theta_division(p, *tri)), tri
        if rc.admissible(p, *tri):
            assert exact(rc.theta_inverse(p, *tri)) == exact(value.inverse()), tri
        else:
            with pytest.raises(ZeroDivisionError):
                rc.theta_inverse(p, *tri)
    for tup in itertools.product(labels, repeat=6):
        assert exact(rc.tet(p, *tup)) == exact(tet_division(p, *tup)), tup
        assert exact(rc.six_j(p, *tup)) == exact(six_j_division(p, *tup)), tup
    for k in labels:
        assert exact(p.inverse_d_k(k)) == exact(p.d_k(k).inverse()), k


@pytest.mark.parametrize("r", RS)
def test_admissible(r):
    p = make_params(r)
    assert rc.admissible(p, 0, 0, 0)
    if r >= 3:
        assert not rc.admissible(p, 1, 1, 1)  # parity
    if r == 5:
        assert not rc.admissible(p, 3, 3, 2)  # 8 > 2r-4 = 6
    for a, b, c in itertools.product(range(r - 1), repeat=3):
        ok = rc.admissible(p, a, b, c)
        manual = ((a + b + c) % 2 == 0 and a <= b + c and b <= c + a
                  and c <= a + b and a + b + c <= 2 * r - 4)
        assert ok == manual


@pytest.mark.parametrize("r", RS)
def test_loop_values(r):
    p = make_params(r)
    d = p.loop_d()
    assert rc.loop_value(p, 0).is_one()
    assert rc.loop_value(p, 1) == d
    prev2, prev1 = None, None
    for k in range(r - 1):
        dk = rc.loop_value(p, k)
        assert dk == oracles.loop_value_oracle(p, k)
        if k >= 2:
            assert dk == d * prev1 - prev2  # Chebyshev recursion
        prev2, prev1 = prev1, dk
    if r == 5:
        assert abs(rc.loop_value(p, 2).embed(p) - 1.618033988749895) < 1e-12


@pytest.mark.parametrize("r", [3, 4, 5])
def test_theta_vs_oracle(r):
    p = make_params(r)
    for a, b, c in itertools.product(range(r - 1), repeat=3):
        if rc.admissible(p, a, b, c):
            val = rc.theta(p, a, b, c)
            assert val == oracles.theta_oracle(p, a, b, c)
            assert not val.is_zero()
        else:
            assert rc.theta(p, a, b, c).is_zero()


@pytest.mark.parametrize("r", RS)
def test_theta_special_values(r):
    p = make_params(r)
    assert rc.theta(p, 0, 0, 0).is_one()
    for k in range(r - 1):
        assert rc.theta(p, 0, k, k) == rc.loop_value(p, k)
    if r >= 4:
        assert rc.theta(p, 1, 1, 2) == rc.loop_value(p, 2)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_tet_vs_oracle(r):
    p = make_params(r)
    labels = range(r - 1)
    for tup in itertools.product(labels, repeat=6):
        a, b, c, d, e, f = tup
        triples = [(a, b, e), (c, d, e), (a, c, f), (b, d, f)]
        if all(rc.admissible(p, *t) for t in triples):
            assert rc.tet(p, *tup) == oracles.tet_oracle(p, *tup), tup
        else:
            assert rc.tet(p, *tup).is_zero()


@pytest.mark.parametrize("r", RS)
def test_tet_zero_label_reduces_to_theta(r):
    p = make_params(r)
    for b, d, f in itertools.product(range(r - 1), repeat=3):
        if rc.admissible(p, b, d, f):
            # a=0 forces e=b, c=f; the tetrahedron collapses to a theta
            assert rc.tet(p, 0, b, f, d, b, f) == rc.theta(p, b, d, f)
    assert rc.tet(p, 0, 0, 0, 0, 0, 0).is_one()


@pytest.mark.parametrize("r", RS)
def test_f_matrix_inverse_pairs(r):
    # 6j orthogonality, F(a,b,c,d)^{-1} = F(b,c,d,a): the closed-form inverse
    # of every F-move in mcg, on every quadruple with nonempty channels
    # entrywise, the inverse is the F-matrix itself rescaled, the identity
    # mcg._f_move reads K^{-1} by:
    # F(b,c,d,a)[f][e] = F(a,b,c,d)[e][f] d_e theta(b,c,f) theta(a,d,f)
    #                    / (d_f theta(a,b,e) theta(c,d,e))
    p = make_params(r)
    labels = range(r - 1)
    seen = entries = 0
    for a, b, c, d in itertools.product(labels, repeat=4):
        es, fs, F1 = rc.f_matrix(p, a, b, c, d)
        if not es:
            continue
        assert len(es) == len(fs)
        F2 = rc.f_matrix(p, b, c, d, a)[2]
        assert linalg.is_identity(p, linalg.mat_mul(F1, F2)), (a, b, c, d)
        seen += 1
        for i, e in enumerate(es):
            for j, f in enumerate(fs):
                ratio = (p.d_k(e) * rc.theta(p, b, c, f) * rc.theta(p, a, d, f)
                         / (p.d_k(f) * rc.theta(p, a, b, e) * rc.theta(p, c, d, e)))
                assert F2[j][i] == F1[i][j] * ratio, (a, b, c, d, e, f)
                entries += 1
    assert (seen, entries) == {3: (8, 8), 4: (33, 36), 5: (96, 120), 6: (225, 329)}[r]


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7, 8])
def test_hopf_matrix_squares_to_total_d_squared(r):
    # S S = D I: the closed-form inverse S/D of the torus S-matrix and of the
    # Gram matrix in oracles.expand_solid_torus
    p = make_params(r)
    labels = range(r - 1)
    s = [[rc.hopf_pairing(p, j, k) for k in labels] for j in labels]
    d = p.total_d_squared()
    assert linalg.mat_mul(s, s) == [[d if i == j else p.zero() for j in labels] for i in labels]


def test_f_matrix_unitarity_numeric():
    p = make_params(5)
    a = b = c = d = 1
    es, fs, F = rc.f_matrix(p, a, b, c, d)

    def norm(e, t1, t2):
        return abs((rc.theta(p, *t1) * rc.theta(p, *t2) / rc.loop_value(p, e)).embed(p))

    n = len(es)
    U = [[F[i][j].embed(p) * math.sqrt(norm(fs[j], (b, c, fs[j]), (a, d, fs[j]))
                                      / norm(es[i], (a, b, es[i]), (c, d, es[i])))
          for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            dot = sum(U[i][k] * U[j][k].conjugate() for k in range(n))
            assert abs(dot - (1 if i == j else 0)) < 1e-10


@pytest.mark.parametrize("r", RS)
def test_twist_coefficients(r):
    p = make_params(r)
    assert rc.twist_coefficient(p, 0).is_one()
    for k in range(r - 1):
        mu = rc.twist_coefficient(p, k)
        assert mu == oracles.twist_coefficient_oracle(p, k)
        assert abs(abs(mu.embed(p)) - 1) < 1e-12
    assert rc.twist_coefficient(p, 1) == -p.a_pow(3)


@pytest.mark.parametrize("r", RS)
def test_encircle_eigenvalues(r):
    p = make_params(r)
    assert rc.encircle_eigenvalue(p, 0) == p.loop_d()
    vals = []
    for k in range(r - 1):
        lam = rc.encircle_eigenvalue(p, k)
        assert lam == oracles.encircle_eigenvalue_oracle(p, k)
        vals.append(lam)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            assert vals[i] != vals[j], f"eigenvalues for {i},{j} collide at r={r}"


@pytest.mark.parametrize("r", RS)
def test_hopf_pairing(r):
    p = make_params(r)
    for j in range(r - 1):
        for k in range(r - 1):
            v = rc.hopf_pairing(p, j, k)
            assert v == oracles.hopf_pairing_oracle(p, j, k)
            assert v == rc.hopf_pairing(p, k, j)
    assert rc.hopf_pairing(p, 0, 0).is_one()
    assert rc.hopf_pairing(p, 0, k) == rc.loop_value(p, k)


def test_dump_tables():
    p = make_params(4)
    tables = rc.dump_tables(p)
    assert tables["r"] == 4
    assert len(tables["d"]) == 3
    assert "0,1,1" in tables["theta"]
