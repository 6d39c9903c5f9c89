"""Differential test of the twist matrices and curve operators against the
elimination route: every change of basis inverted by Gauss-Jordan
(`linalg.mat_inv`), every parallel insertion written out for its own cycle
(a loop edge, or the theta spine's cycle through x and y), every twist
matrix a dense Lagrange interpolation on the whole curve operator, and
every inverse twist the Gauss-Jordan inverse of the twist."""
import hashlib
import json
from math import gcd

import pytest

from helpers import curves
from oracles import theta_spine
from skeinrep import mcg, tqft
from skeinrep.linalg import eye, mat_inv, mat_mul, zeros
from skeinrep.recoupling import (encircle_eigenvalue, f_matrix, hopf_pairing, tet, theta,
                                 twist_coefficient)
from skeinrep.scalars import make_params


def diag(params, values):
    out = zeros(params, len(values), len(values))
    for i, v in enumerate(values):
        out[i][i] = v
    return out


def conjugate(params, m, c):
    return mat_mul(m, mat_mul(c, mat_inv(params, m)))


def lagrange(params, cmat):
    """The polynomial in cmat sending lambda_k to mu_k, by the Lagrange form
    on the dense operator."""
    labels = range(params.r - 1)
    lams = [encircle_eigenvalue(params, k) for k in labels]
    n = len(cmat)
    out = zeros(params, n, n)
    for k in labels:
        term = eye(params, n)
        for j in labels:
            if j != k:
                step = [[cmat[a][b] - (lams[j] if a == b else params.zero())
                         for b in range(n)] for a in range(n)]
                scale = (lams[k] - lams[j]).inverse()
                term = [[x * scale for x in row] for row in mat_mul(term, step)]
        mu = twist_coefficient(params, k)
        out = [[out[a][b] + mu * term[a][b] for b in range(n)] for a in range(n)]
    return out


def loop_insertion(params, tup, pos):
    """C of a 1-labeled curve parallel to a loop edge, on basis tuples that
    hold the loop's label at pos and the third label at its vertex at 1."""
    idx = {t: i for i, t in enumerate(tup)}
    out = zeros(params, len(tup), len(tup))
    for i, t in enumerate(tup):
        x, m = t[pos], t[1]
        for xp in (x - 1, x + 1):
            t2 = t[:pos] + (xp,) + t[pos + 1:]
            if t2 in idx:
                num = params.d_k(xp) * tet(params, x, x, xp, xp, m, 1)
                out[idx[t2]][i] = num / (theta(params, x, 1, xp) * theta(params, xp, xp, m))
    return out


def theta_parallel(params, tb):
    """C of the curve parallel to the theta spine's cycle through x and y,
    on theta tuples (x, y, f): both edges move by +-1, with one tetrahedral
    vertex replacement at each of the two vertices."""
    tidx = {t: i for i, t in enumerate(tb)}
    out = zeros(params, len(tb), len(tb))
    for i, (x, y, f) in enumerate(tb):
        for xp in (x - 1, x + 1):
            for yp in (y - 1, y + 1):
                if (xp, yp, f) not in tidx:
                    continue
                t = tet(params, x, y, xp, yp, f, 1)
                num = params.d_k(xp) * params.d_k(yp) * t * t
                den = (theta(params, x, 1, xp) * theta(params, y, 1, yp)
                       * theta(params, xp, yp, f) ** 2)
                out[tidx[(xp, yp, f)]][i] = num / den
    return out


def theta_basis(params):
    """The theta spine's basis as (x, y, z) tuples."""
    return [(b["x"], b["y"], b["z"]) for b in tqft.basis(params, theta_spine())]


def theta_change(params, model):
    """The genus-2 F-move on the bar, one six_j row per dumbbell vector."""
    tup = [(b["x"], b["m"], b["y"]) for b in model.basis(params)]
    tb = theta_basis(params)
    k = zeros(params, len(tb), len(tup))
    for j, (x, m, y) in enumerate(tup):
        es, fs, f = f_matrix(params, x, x, y, y)
        for fi, fv in enumerate(fs):
            k[tb.index((x, y, fv))][j] = f[es.index(m)][fi]
    return k


def reference_operator(params, model, curve):
    """C(curve); a curve diagonal in the model's own basis takes the model's
    operator, since neither a change of basis nor an insertion enters it."""
    if model.name == "torus" and curve != "a":
        lam = diag(params, [encircle_eigenvalue(params, k) for k in range(params.r - 1)])
        s = [[hopf_pairing(params, j, k) for k in range(params.r - 1)]
             for j in range(params.r - 1)]
        cb = mat_mul(s, mat_mul(lam, mat_inv(params, s)))
        if curve == "b":
            return cb
        va = lagrange(params, reference_operator(params, model, "a"))
        return conjugate(params, va if curve == "c" else mat_inv(params, va), cb)
    if model.name == "four_punctured_sphere" and curve == "g23":
        es, fs, f = f_matrix(params, *model.labels)
        k = [[f[ei][fi] for ei in range(len(es))] for fi in range(len(fs))]
        lam = diag(params, [encircle_eigenvalue(params, x) for x in fs])
        return conjugate(params, mat_inv(params, k), lam)
    if model.name == "genus2" and curve == "b2":
        k = theta_change(params, model)
        tb = theta_basis(params)
        return conjugate(params, mat_inv(params, k), theta_parallel(params, tb))
    if model.name == "genus2" and curve in ("b0", "b4"):
        tup = [(b["x"], b["m"], b["y"]) for b in model.basis(params)]
        return loop_insertion(params, tup, 0 if curve == "b0" else 2)
    if model.name == "punctured_torus" and curve == "b":
        tup = [(b["x"], model.labels[0]) for b in model.basis(params)]
        return loop_insertion(params, tup, 0)
    return model.curve_operator(params, curve).matrix


def reference_twists(params, model, curve):
    """{power: T^power} for power in +-1, +-2."""
    t = lagrange(params, reference_operator(params, model, curve))
    t_inv = mat_inv(params, t)
    return {1: t, -1: t_inv, 2: mat_mul(t, t), -2: mat_mul(t_inv, t_inv)}


def as_json(matrix):
    return json.dumps([[x.to_json() for x in row] for row in matrix])


# every surface at r = 3..6 (genus 2 up to r = 5) and one root with s != 1
CASES = [(r, s, surface) for r, s in ((3, 1), (4, 1), (5, 1), (6, 1), (5, 3))
         for surface in ("torus", "punctured_torus", "four_punctured_sphere", "genus2")
         if surface != "genus2" or r <= 5]


@pytest.mark.parametrize("r, s, surface", CASES)
def test_twists_and_operators_match_elimination_route(r, s, surface):
    params = make_params(r, s)
    checked = 0
    for ctx in mcg._boundary_contexts(surface, r):
        model = mcg.surface_model(surface, ctx)
        for curve in curves(model):
            where = (ctx, curve)
            assert as_json(model.curve_operator(params, curve).matrix) == \
                as_json(reference_operator(params, model, curve)), where
            for power, ref in reference_twists(params, model, curve).items():
                assert as_json(model.twist_matrix(params, curve, power).matrix) == \
                    as_json(ref), where + (power,)
            checked += model.dim(params) > 0
    assert checked


# sha256 of every twist matrix and curve operator, recorded before detection
# moved from dense products to a column probe (`linalg.scalar_of`, since on
# packed residues of the twists' column forms) and `represent` became a
# fold over `SurfaceModel.factors`.  The serialization is `twist_digest`
# below: one line per (surface, labels, r, s, curve), the json.dumps (sorted
# keys) of [surface, labels, r, s, curve, T, T^-1, C], each matrix a list of
# rows of Scalar.to_json, in the loop order of `twist_digest`.
TWIST_DIGEST = "1efc9bf00bb0d7214c83d128b3062702d41b6670876a2c6b9a9196ba983b182e"


def twist_digest():
    h = hashlib.sha256()
    for surface in ("torus", "punctured_torus", "four_punctured_sphere", "genus2"):
        for r in (3, 4, 5):
            # the two least roots of the level
            for s in [s for s in range(1, 4 * r) if gcd(s, 4 * r) == 1][:2]:
                params = make_params(r, s)
                for ctx in mcg._boundary_contexts(surface, r):
                    update_digest(h, params, mcg.surface_model(surface, ctx))
    return h.hexdigest()


def update_digest(h, params, model):
    """One line per curve of the model: the json.dumps (sorted keys) of
    [surface, labels, r, s, curve, T, T^-1, C]."""
    for curve in curves(model):
        mats = [model.twist_matrix(params, curve, 1).matrix,
                model.twist_matrix(params, curve, -1).matrix,
                model.curve_operator(params, curve).matrix]
        record = [model.name, list(model.labels), params.r, params.s, curve] + [
            [[x.to_json() for x in row] for row in m] for m in mats]
        h.update(json.dumps(record, sort_keys=True).encode() + b"\n")


def test_twist_digest_pinned():
    assert twist_digest() == TWIST_DIGEST


# sha256 of the genus-2 twists and curve operators at r = 6, 7 and 8 (s = 1),
# where the F-moved curve b2 and the blocks of the cycle cores are large:
# `update_digest` over r ascending, recorded while the twists were still
# built by dense conjugation.
GENUS2_DIGEST = "947adac8c3fa44abbcdd01a28e3d213db06db6111226ecaa17baa2335511444a"


def test_genus2_digest_pinned_at_larger_levels():
    h = hashlib.sha256()
    for r in (6, 7, 8):
        update_digest(h, make_params(r), mcg.surface_model("genus2"))
    assert h.hexdigest() == GENUS2_DIGEST
