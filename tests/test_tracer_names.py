"""The benchmark's tracer names package functions by string; a rename or an
inlined function would crash its traced pass or read 0 there.  This test
loads ``perfbench/tracing.py`` as it is and checks every name it wraps and
every distinct-argument key it takes."""
import importlib.util
from pathlib import Path

import pytest

from skeinrep import mcg, recoupling, tl
from skeinrep.scalars import make_params

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    for layer, entries in tracing.TRACED.items():
        home = importlib.import_module(f"skeinrep.{layer}")
        for attr, role in entries:
            assert role in ("span", "count"), (layer, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                assert callable(vars(cls).get(meth) if cls else None), f"{layer}.{attr}"
            else:
                assert callable(getattr(home, attr, None)), f"{layer}.{attr}"


def test_every_distinct_key_takes_a_real_call(tracing):
    """Each key function once, on the arguments of a call that runs: the
    recoupling keys on theta's, the twist key on one twist_matrix call and
    the projector key on one jones_wenzl call."""
    p = make_params(5)
    model = mcg.surface_model("punctured_torus", (2,))
    calls = {"mcg.SurfaceModel.twist_matrix": (mcg.SurfaceModel.twist_matrix,
                                               (model, p, "b", -1)),
             "tl.jones_wenzl": (tl.jones_wenzl, (p, 2))}
    for name in tracing.DISTINCT:
        if name.startswith("recoupling."):
            calls[name] = (recoupling.theta, (p, 1, 1, 2))
    assert set(calls) == set(tracing.DISTINCT)
    for name, key in tracing.DISTINCT.items():
        fn, args = calls[name]
        fn(*args)
        hash(key(args, {}))
    twist_key = tracing.DISTINCT["mcg.SurfaceModel.twist_matrix"]
    assert twist_key(calls["mcg.SurfaceModel.twist_matrix"][1], {}) == \
        ("punctured_torus", (2,), (5, 1), "b", -1)
