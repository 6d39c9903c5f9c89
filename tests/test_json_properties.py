"""Property tests of the link and spine JSON round trips: what ``to_json``
writes, ``from_json`` reads back to the same object."""
import json

import pytest

from oracles import theta_spine
from skeinrep import tqft
from skeinrep.skein import OMEGA, LabeledLink, closed_braid_link

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
settings = hypothesis.settings(max_examples=60, deadline=None, database=None,
                               derandomize=True)


def through_text(obj):
    return json.loads(json.dumps(obj))


@st.composite
def braid_closures(draw):
    n = draw(st.integers(1, 4))
    word = []
    if n > 1:
        gens = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
        word = draw(st.lists(gens, max_size=8))
    count = len(closed_braid_link(word, n).components)
    labels = draw(st.lists(st.integers(0, 6) | st.just(OMEGA), min_size=count, max_size=count))
    framings = draw(st.lists(st.integers(-6, 6), min_size=count, max_size=count))
    return closed_braid_link(word, n, labels=labels, framings=framings)


@settings
@hypothesis.given(braid_closures())
def test_link_json_round_trip(link):
    blob = link.to_json()
    assert LabeledLink.from_json(through_text(blob)).to_json() == blob


spines = (st.sampled_from([tqft.torus_spine(), theta_spine(), tqft.dumbbell_spine()])
          | st.builds(tqft.comb_spine, st.lists(st.integers(0, 9), min_size=3, max_size=8)))


@settings
@hypothesis.given(spines)
def test_spine_json_round_trip(spine):
    blob = spine.to_json()
    assert tqft.Spine.from_json(through_text(blob)).to_json() == blob
