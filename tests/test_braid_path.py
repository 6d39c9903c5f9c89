"""The braid path without `Scalar` arithmetic between a chain and its answer.

- ``TLElement.markov_trace`` sums the residues of the element's packed
  column per closure-loop count and decodes once per count: it is compared
  with the per-term fold (``oracles.markov_trace_fold``) on elements made by
  chains and on elements built from terms, and the terms of a traced chain
  with those decoded before any trace.
- ``braids._generator_matrix`` reads the level's local table of each letter:
  every column form of a sector letter is compared with that of the
  reference built path by path (``oracles.generator_matrix_reference``),
  and the forms are pinned by a sha256 recorded before the table existed.
- ``braids.cable`` with every multiplicity 1 returns its braid.
"""
import hashlib
import random

import pytest

from helpers import random_word, tl_element_from_json, tl_identity
from oracles import (e_element, generator_matrix_reference, markov_trace_fold,
                     resolve_braid_fold)
from skeinrep.braids import BraidWord, Cabling, _generator_columns, cable, sector_labels
from skeinrep.linalg import columns
from skeinrep.scalars import PackedRing, make_params
from skeinrep.tl import TLElement, jones_wenzl, resolve_braid

LEVELS = range(3, 9)


def roots(r):
    """Two roots of level r: s = 1 and s = 4r - 1, its conjugate."""
    return [make_params(r, 1), make_params(r, 4 * r - 1)]


def seeded_words(rng, n):
    if n == 1:
        return [()]
    return [()] + [random_word(rng, n, rng.randint(1, 12)) for _ in range(2)]


def chain_elements(p, rng):
    """(label, element) for elements made by a chain: seeded words on 1..7
    strands, the empty word among them, and a product that is zero though
    no factor is (P_2 e_1 = 0)."""
    out = [((n, w), resolve_braid(p, list(w), n)) for n in range(1, 8) for w in seeded_words(rng, n)]
    if p.r >= 4:
        out.append(("P2 e1", jones_wenzl(p, 2).then(e_element(p, 2, 1))))
    return out


@pytest.mark.parametrize("r", LEVELS)
def test_trace_of_a_chain_matches_the_fold(r):
    rng = random.Random(37 + r)
    for p in roots(r):
        for label, x in chain_elements(p, rng):
            assert x.markov_trace().to_json() == markov_trace_fold(x).to_json(), (r, p.s, label)
            assert x.is_zero() == (label == "P2 e1")


@pytest.mark.parametrize("r", LEVELS)
def test_trace_of_terms_matches_the_fold(r):
    """Elements that hold terms alone: sums and differences of chains,
    negatives, JSON round trips, identities and copies of the projectors'
    terms, and the projectors themselves."""
    rng = random.Random(71 + r)
    for p in roots(r):
        for n in range(1, 7):
            x, y = (resolve_braid(p, list(w), n) for w in seeded_words(rng, n)[1:] or [(), ()])
            built = [x + y, x - y, -x, x - x, tl_identity(p, n),
                     tl_element_from_json(p, y.to_json())]
            for z in built:
                assert z.markov_trace().to_json() == markov_trace_fold(z).to_json(), (r, p.s, n, z)
        for k in range(r - 1):
            pk = jones_wenzl(p, k)
            for z in (pk, TLElement(p, k, k, pk.terms)):
                assert z.markov_trace().to_json() == markov_trace_fold(z).to_json(), (r, k)
                assert z.markov_trace() == p.d_k(k)


@pytest.mark.parametrize("r", LEVELS)
def test_terms_read_after_a_trace_are_the_eager_decode(r):
    rng = random.Random(113 + r)
    p = make_params(r)
    for n in range(1, 8):
        for w in seeded_words(rng, n):
            traced, eager = resolve_braid(p, list(w), n), resolve_braid(p, list(w), n)
            eager_terms = eager.terms
            traced.markov_trace()
            assert list(traced.terms) == list(eager_terms), (r, n, w)
            assert traced.terms == eager_terms and traced.to_json() == eager.to_json()
            if n <= 4:
                assert traced == resolve_braid_fold(p, w, n), (r, n, w)


def test_trace_of_a_chain_decodes_once_per_loop_count(monkeypatch):
    """A 6-strand chain at r = 7 and its trace decode one value per
    closure-loop count (at most n of them: the closure of a TL_n diagram
    has 1 .. n loops), not one per diagram."""
    p, n = make_params(7), 6
    word = random_word(random.Random(5), n, 10)
    expect = markov_trace_fold(resolve_braid(p, word, n))
    decode, calls = PackedRing.decode, []

    def counted(self, z, den):
        calls.append(z)
        return decode(self, z, den)

    monkeypatch.setattr(PackedRing, "decode", counted)
    x = resolve_braid(p, word, n)
    assert x.markov_trace() == expect
    monkeypatch.undo()
    assert len(calls) == len({diag.closure_loops() for diag in x.terms}) <= n < len(x.terms)


def letters():
    """(params, n, m, gen) for every sector letter at r = 3..8 on 2..7
    strands, both signs."""
    for r in LEVELS:
        p = make_params(r)
        for n in range(2, 8):
            for m in sector_labels(p, n):
                for i in range(1, n):
                    yield from ((p, n, m, gen) for gen in (i, -i))


def package_form(p, n, m, gen):
    den, c, cols = _generator_columns(p, n, m, gen)
    return den, c, cols.cols


def reference_form(p, n, m, gen):
    den, c, cols = columns(generator_matrix_reference(p, n, m, gen))
    return den, c, cols.cols


def letter_forms_digest(forms):
    """sha256 over (r, n, m, gen, L, c, cols) of every letter, forms giving
    (L, c, cols.cols)."""
    h = hashlib.sha256()
    for p, n, m, gen in letters():
        h.update(repr((p.r, n, m, gen) + forms(p, n, m, gen)).encode())
    return h.hexdigest()


# recorded from `_generator_columns` before the letters read the level's
# local table
LETTER_FORMS_DIGEST = "48f8b2cb0730a329ea5e14e818f3dd974709d671357fbbb5808ff01dd7615a84"


def test_letter_forms_match_the_reference():
    for p, n, m, gen in letters():
        assert package_form(p, n, m, gen) == reference_form(p, n, m, gen), (p.r, n, m, gen)


def test_letter_forms_are_pinned():
    assert letter_forms_digest(package_form) == LETTER_FORMS_DIGEST
    assert letter_forms_digest(reference_form) == LETTER_FORMS_DIGEST


def test_cable_of_every_multiplicity_one_is_the_braid():
    rng = random.Random(9)
    for n in range(1, 8):
        for w in seeded_words(rng, n):
            b = BraidWord(n, w)
            assert cable(b, Cabling((1,) * n)) == b
            assert cable(b, Cabling((1,) * n)) is b
