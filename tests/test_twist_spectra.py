"""An exact oracle for both verdicts of `mcg.detect` on one twist power.
On the colour-c part of a curve the twist acts by mu_c (CONVENTIONS.md), so
T^k is projectively trivial on a block exactly when mu_c^k is the same for
every colour c that occurs on the curve there.  The colours are read off
the dense curve operator C of the reference route in
``test_twist_reference.py``: c occurs iff prod_{c' != c} (C - lambda_c') is
not zero.  Only blocks of dimension >= 2 can witness."""
import pytest

from oracles import boundary_contexts
from skeinrep import mcg
from skeinrep.linalg import eye, mat_mul
from skeinrep.recoupling import encircle_eigenvalue, twist_coefficient
from skeinrep.scalars import make_params
from test_twist_reference import reference_operator

CASES = [(surface, r) for surface in ("torus", "punctured_torus", "four_punctured_sphere", "genus2")
         for r in range(3, 7) if surface != "four_punctured_sphere" or r <= 5]


def colours(params, cmat):
    """The colours c whose projector prod_{c' != c} (C - lambda_c') is not
    zero, each expanded as a polynomial in the powers of C."""
    labels = range(params.r - 1)
    lams = [encircle_eigenvalue(params, c) for c in labels]
    powers = [eye(params, len(cmat))]
    for _ in labels[1:]:
        powers.append(mat_mul(powers[-1], cmat))
    out = []
    for c in labels:
        poly = [params.one()]  # coefficients of prod (x - lambda_c'), lowest first
        for other in labels:
            if other != c:
                shifted = [params.zero()] + poly
                poly = [x - lams[other] * y for x, y in zip(shifted, poly + [params.zero()])]
        n = len(cmat)
        if any(not sum((p * m[i][j] for p, m in zip(poly, powers)), params.zero()).is_zero()
               for i in range(n) for j in range(n)):
            out.append(c)
    return out


@pytest.mark.parametrize("surface, r", CASES)
def test_detect_one_twist_power_matches_its_spectrum(surface, r):
    params = make_params(r)
    blocks = [mcg.surface_model(surface, ctx) for ctx in boundary_contexts(surface, r)]
    blocks = [model for model in blocks if model.dim(params) >= 2]
    for curve in mcg._surface(surface)[2]:
        spectra = [colours(params, reference_operator(params, model, curve)) for model in blocks]
        for k in range(1, 4 * r + 1):
            trivial = all(len({twist_coefficient(params, c, k) for c in spectrum}) == 1
                          for spectrum in spectra)
            got = mcg.detect(surface, [(curve, k)], [r]).verdicts[r]
            assert got == ("trivial" if trivial else "nontrivial"), (curve, k)
