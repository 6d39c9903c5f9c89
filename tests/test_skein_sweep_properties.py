"""A property of the packed skein sweep: on random small labelled, framed
closed braids with omega components, alone or split from an unknot or from
a second closure, at r = 4..6 and two roots each, its value has the same
`to_json` bytes as the plain `Scalar` reference sweep, and `evaluate` gives
the same bytes on the link with its arcs renamed, and on the link with its
components listed in another order, each by a permutation from one rng
seeded from the link's JSON."""
import json
import random

import pytest

from helpers import renamed_arcs
from skeinrep import skein as sk
from skeinrep.scalars import make_params
from skeinrep.skein import closed_braid_link, split_union, unknot_link
from test_skein_sweep import as_bytes, check_link

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def labels_of(r):
    return st.integers(0, r - 2) | st.just(sk.OMEGA)


@st.composite
def framed_closure(draw, r):
    """(word, link): a framed closed braid on 2-4 strands of at most four
    letters, labelled 0..r-2 or omega."""
    n = draw(st.integers(2, 4))
    gens = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    word = draw(st.lists(gens, max_size=4))
    count = len(closed_braid_link(word, n).components)
    labels = draw(st.lists(labels_of(r), min_size=count, max_size=count))
    framings = draw(st.lists(st.integers(-2, 2), min_size=count, max_size=count))
    return word, closed_braid_link(word, n, labels=labels, framings=framings)


@st.composite
def level_and_braid(draw):
    """A level r = 4..6 with one of two roots, and a framed closed braid,
    alone or split from an unknot or from a second closure (``split_union``),
    small enough for the reference."""
    r = draw(st.integers(4, 6))
    params = make_params(r, draw(st.sampled_from((1, 3) if r < 6 else (1, 5))))
    word, link = draw(framed_closure(r))
    beside = draw(st.sampled_from(("alone", "unknot", "closure")))
    if beside == "unknot":
        link = split_union(link, unknot_link(draw(labels_of(r)), draw(st.integers(-2, 2))))
    elif beside == "closure":
        more, other = draw(framed_closure(r))
        word, link = word + more, split_union(link, other)
    labels = [c.label for c in link.components]
    top = [r - 2 if l == sk.OMEGA else l for l in labels]
    hypothesis.assume(labels.count(sk.OMEGA) <= 1
                      and sum(k * k for k in top) * max(1, len(word)) <= 40)
    return params, link


@hypothesis.settings(max_examples=80, deadline=None, database=None, derandomize=True)
@hypothesis.given(level_and_braid())
def test_packed_sweep_matches_reference(case):
    params, link = case
    check_link(params, link)
    rng = random.Random(json.dumps(link.to_json()))
    renamed = renamed_arcs(link, rng)
    permuted = sk.LabeledLink(rng.sample(link.components, len(link.components)), link.crossings)
    value = as_bytes(sk.evaluate(params, link))
    assert as_bytes(sk.evaluate(params, renamed)) == value
    assert as_bytes(sk.evaluate(params, permuted)) == value
