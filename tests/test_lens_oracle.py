"""A cross-route oracle for the surgery invariant: lens spaces.

Surgery on a linear chain of unknots with framings a_1..a_k gives a lens
space, whose invariant is a matrix element of the SL(2, Z) representation
on the torus (Jeffrey, Comm. Math. Phys. 147, 1992).  In this package's
normalisation

    z_invariant(chain)[0] == c^k (S T^{a_1} S T^{a_2} ... T^{a_k} S)[0][0]

with S = s_matrix and T^a = surface_model("torus").twist_matrix("a", a).  The left
side runs the cabling, the Jones-Wenzl boxes, the framing scalars, the Kirby
colour and the packed sweep; the right side runs only `hopf_pairing` and the
twist eigenvalues.  Equality is exact.
"""
import random

import pytest

from skeinrep.linalg import mat_mul
from skeinrep.mcg import surface_model
from skeinrep.recoupling import s_matrix
from skeinrep.scalars import make_params
from skeinrep.skein import closed_braid_link, z_invariant


def chain(framings):
    """The closure of sigma_1^2 ... sigma_{k-1}^2 on k strands: k unknots,
    each linked once with the next, framed in order."""
    k = len(framings)
    word = [g for i in range(1, k) for g in (i, i)]
    return closed_braid_link(word, k, framings=list(framings))


def tqft_value(params, framings):
    """c^k (S T^{a_1} S ... T^{a_k} S)[0][0] from the torus matrices."""
    torus = surface_model("torus")
    s = s_matrix(params)
    product = s
    for a in framings:
        product = mat_mul(mat_mul(product, torus.twist_matrix(params, "a", a).matrix), s)
    return params.c_symbol() ** len(framings) * product[0][0]


def seeded_cases():
    """Framings in -3..3: 1-2 components at r = 4..6, 3 components at
    r <= 5, and the fixed chain (1, 1, 1) at r = 6."""
    rng = random.Random(2024)
    cases = []
    for r in (4, 5, 6):
        for size in (1, 2) if r == 6 else (1, 2, 3):
            for _ in range(2):
                cases.append((r, tuple(rng.randint(-3, 3) for _ in range(size))))
    return cases + [(6, (1, 1, 1))]


def case_id(value):
    """r4, r5, ... for the level and 1_-2 for the framings (1, -2)."""
    return "_".join(map(str, value)) if isinstance(value, tuple) else f"r{value}"


@pytest.mark.parametrize("r,framings", seeded_cases(), ids=case_id)
def test_lens_space_chain_matches_torus_matrices(r, framings):
    params = make_params(r)
    value, _ = z_invariant(params, chain(framings))
    assert value == tqft_value(params, framings)


@pytest.mark.parametrize("r,framings", [(4, (2,)), (5, (1, -2)), (5, (2, 3)), (5, (-1, 2, 2))],
                         ids=case_id)
def test_lens_space_chain_at_a_second_root(r, framings):
    params = make_params(r, 3)
    value, _ = z_invariant(params, chain(framings))
    assert value == tqft_value(params, framings)
