"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the public functions of each layer with
recording wrappers, everywhere the name is looked up: in the defining
module, in every package module that imported it by name, or on the class
for methods.  Coarse calls record spans (name, start, end, parent, request
id) kept in memory; hot scalar operations only bump counters.  A
CPU-time sampler attributes self time to the module of the innermost
package frame, with ``fractions.py`` frames counted to ``scalars`` and
frames of this file counted as tracing overhead.
"""
from __future__ import annotations

import gzip
import json
import os
import signal
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

SAMPLE_INTERVAL_S = 0.001

# layer -> (module attribute or Class.method, role); role "span" records a
# span, "count" only counts.  Distinct-argument keys are taken for the names
# in DISTINCT.
TRACED = {
    "scalars": [("Scalar.__mul__", "count"), ("Scalar.__add__", "count"),
                ("Scalar.inverse", "count")],
    "linalg": [("mat_mul", "span"), ("mat_inv", "span")],
    "recoupling": [("theta", "span"), ("tet", "span"), ("six_j", "span"),
                   ("f_matrix", "span"), ("encircle_eigenvalue", "span"),
                   ("twist_coefficient", "span"), ("hopf_pairing", "span")],
    "tqft": [("basis", "span")],
    "mcg": [("detect", "span"), ("SurfaceModel.represent", "span"),
            ("SurfaceModel.twist_matrix", "span")],
    "tl": [("TLElement.then", "span"), ("TLElement.markov_trace", "span"),
           ("jones_wenzl", "span"), ("resolve_braid", "span")],
    "skein": [("evaluate", "span"), ("z_invariant", "span"),
              ("_evaluate_labeled", "span")],
    "braids": [("braid_detect", "span"), ("jones_sector_rep", "span")],
}


def _params_key(p):
    return (p.r, p.s)


def _recoupling_key(args, kw):
    return (_params_key(args[0]),) + tuple(args[1:])


# span name -> key of the work a call asks for, for useful-over-attempted ratios
DISTINCT = {f"recoupling.{attr}": _recoupling_key for attr, _ in TRACED["recoupling"]}
DISTINCT["mcg.SurfaceModel.twist_matrix"] = lambda args, kw: (
    args[0].name, args[0]._label_context(), _params_key(args[1]), args[2],
    args[3] if len(args) > 3 else kw.get("power", 1))
DISTINCT["tl.jones_wenzl"] = lambda args, kw: (_params_key(args[0]), args[1])


class Tracer:
    def __init__(self, src_dir: Path):
        self.src_dir = str(src_dir.resolve()) + os.sep
        self.own_file = str(Path(__file__).resolve())
        self.spans = []  # [name, start, end, parent index, request id]
        self._stack = []
        self.request = None
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.samples = Counter()
        self.name_time = Counter()  # outermost spans of each name
        self.layer_time = Counter()  # outermost spans of each layer
        self._layer_of_file = {}
        self._installed = []  # (owner, attribute, original value)

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, name, fn):
        spans, stack, counts, distinct = self.spans, self._stack, self.counts, self.distinct
        key_fn = DISTINCT.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kw):
            counts[name] += 1
            if key_fn is not None:
                distinct[name].add(key_fn(args, kw))
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kw)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        """Wrap every traced name wherever the package looks it up."""
        # every package module, so that names they imported get wrapped too
        from skeinrep import braids, cli, linalg, mcg, recoupling, scalars, skein, tl, tqft  # noqa: F401
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "skeinrep" or name.startswith("skeinrep.")}
        for layer, entries in TRACED.items():
            home = modules[f"skeinrep.{layer}"]
            for attr, role in entries:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    fn = cls.__dict__[meth]
                    wrapper = (self._count_wrapper(name, fn) if role == "count"
                               else self._span_wrapper(name, fn))
                    self._replace(cls, meth, fn, wrapper)
                    continue
                fn = getattr(home, attr)
                wrapper = self._span_wrapper(name, fn)
                for mod in modules.values():
                    for var, value in list(vars(mod).items()):
                        if value is fn:
                            self._replace(mod, var, fn, wrapper)

    def _replace(self, owner, attr, original, wrapper):
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Put every original back, so that later work is not recorded."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------- sampler

    def _layer_of(self, filename):
        layer = self._layer_of_file.get(filename)
        if layer is None:
            path = os.path.realpath(filename)
            if path.startswith(self.src_dir):
                layer = Path(path).stem
            elif path.endswith(os.sep + "fractions.py"):
                layer = "scalars"
            elif path == self.own_file:
                layer = "trace"
            else:
                layer = ""
            self._layer_of_file[filename] = layer
        return layer

    def _on_sample(self, signum, frame):
        f = frame
        while f is not None:
            layer = self._layer_of(f.f_code.co_filename)
            if layer:
                self.samples[layer] += 1
                return
            f = f.f_back
        self.samples["other"] += 1

    def start_sampling(self):
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop_sampling(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    # ------------------------------------------------------------- results

    def self_seconds(self, layer, busy_s):
        total = sum(self.samples.values())
        return busy_s * self.samples[layer] / total if total else 0.0

    def _ratio(self, name):
        calls = self.counts[name]
        return len(self.distinct[name]) / calls if calls else 0.0

    def per_layer(self, busy_s, first_params_s):
        """Every per-layer metric; busy_s is the wall time spent in requests."""
        c, nt = self.counts, self.name_time
        rec_calls = sum(c[f"recoupling.{a}"] for a, _ in TRACED["recoupling"])
        rec_distinct = sum(len(self.distinct[f"recoupling.{a}"]) for a, _ in TRACED["recoupling"])
        selfs = {layer: self.self_seconds(layer, busy_s)
                 for layer in ("scalars", "linalg", "recoupling", "mcg", "tl", "skein", "braids")}
        return {
            "scalars.self_s": (selfs["scalars"], "s"),
            "scalars.mul_count": (c["scalars.Scalar.__mul__"], "count"),
            "scalars.add_count": (c["scalars.Scalar.__add__"], "count"),
            "scalars.inverse_count": (c["scalars.Scalar.inverse"], "count"),
            "scalars.first_params_s": (first_params_s, "s"),
            "linalg.mat_mul_count": (c["linalg.mat_mul"], "count"),
            "linalg.mat_mul_s": (nt["linalg.mat_mul"], "s"),
            "linalg.mat_inv_count": (c["linalg.mat_inv"], "count"),
            "linalg.mat_inv_s": (nt["linalg.mat_inv"], "s"),
            "linalg.self_s": (selfs["linalg"], "s"),
            "recoupling.call_count": (rec_calls, "count"),
            "recoupling.s": (self.layer_time["recoupling"], "s"),
            "recoupling.self_s": (selfs["recoupling"], "s"),
            "recoupling.distinct_ratio": (rec_distinct / rec_calls if rec_calls else 0.0, "ratio"),
            "tqft.basis_count": (c["tqft.basis"], "count"),
            "tqft.basis_s": (nt["tqft.basis"], "s"),
            "mcg.represent_s": (nt["mcg.SurfaceModel.represent"], "s"),
            "mcg.twist_call_count": (c["mcg.SurfaceModel.twist_matrix"], "count"),
            "mcg.twist_distinct_ratio": (self._ratio("mcg.SurfaceModel.twist_matrix"), "ratio"),
            "mcg.self_s": (selfs["mcg"], "s"),
            "tl.then_count": (c["tl.TLElement.then"], "count"),
            "tl.jw_call_count": (c["tl.jones_wenzl"], "count"),
            "tl.jw_distinct_ratio": (self._ratio("tl.jones_wenzl"), "ratio"),
            "tl.s": (self.layer_time["tl"], "s"),
            "tl.self_s": (selfs["tl"], "s"),
            "skein.evaluate_s": (nt["skein.evaluate"], "s"),
            "skein.self_s": (selfs["skein"], "s"),
            "skein.labelings": (c["skein._evaluate_labeled"], "count"),
            "braids.sector_rep_count": (c["braids.jones_sector_rep"], "count"),
            "braids.sector_rep_s": (nt["braids.jones_sector_rep"], "s"),
            "braids.self_s": (selfs["braids"], "s"),
        }

    def finish(self):
        """Sum the outermost spans of each name and of each layer: a span
        counts unless an enclosing span has the same name (or layer)."""
        spans = self.spans
        for name, start, end, parent, _ in spans:
            layer = name.split(".", 1)[0]
            same_name = same_layer = False
            p = parent
            while p >= 0 and not same_name:
                outer = spans[p][0]
                same_name = outer == name
                same_layer = same_layer or outer.split(".", 1)[0] == layer
                p = spans[p][3]
            if not same_name:
                self.name_time[name] += end - start
            if not same_layer:
                self.layer_time[layer] += end - start

    def write_spans(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans,
                       "counts": dict(self.counts),
                       "samples": dict(self.samples)}, fh)
