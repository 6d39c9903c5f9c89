"""Closed-loop benchmark of the skeinrep library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/``.
One client in one thread replays a fixed, seeded list of requests, issuing
the next only when the previous one returns.  The list holds about S seconds
of work at the commit that defined the benchmark (see workloads.py).  Every
response is checked exactly after the timed loop, and every checker is fed
one deliberately wrong response that it must reject.

Every time the benchmark reports is scaled to a fixed machine speed: a
small pure-Python reference kernel, which uses nothing from skeinrep, is
timed before and after every request and every set-up launch, and each
wall time is multiplied by REFERENCE_NOMINAL_S over the kernel's time
measured just before and after it.  A shared host's speed swings, up to
twofold between runs; the kernel slows with it, so the swing cancels,
while a change to the package leaves the kernel alone.

--trace 0 prints the end-to-end metrics.  --trace 1 replays the list once
untraced in this process and once traced in a fresh child process, and
prints the per-layer metrics and the tracing overhead; spans go to
perfbench/out/.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_LAUNCHES = 5
SETUP_ARGS = ["-m", "skeinrep.cli", "dims", "--r", "3", "--surface", "torus"]
SETUP_EXPECT = '{"dim": 2}'
DEADLINE = time.monotonic() + 170  # a run must end within 180 s

# The reference kernel: exact polynomial products over Fraction, the kind
# of work skeinrep's scalars do, on fixed inputs.  REFERENCE_NOMINAL_S is a
# typical time of it on the machine that defined the benchmark (a 2-vCPU
# Intel Xeon VM, Python 3.11.7), where the median over a run ranged from
# 1.6 to 2.8 ms; scaled times read as on that machine at that speed.
REFERENCE_NOMINAL_S = 0.002
_REF_U = tuple(Fraction((7 ** (i + 9)) % 1000003 + 1, 2 * i + 3) for i in range(10))
_REF_V = tuple(Fraction(3 * i + 1, (5 ** (i + 11)) % 999983 + 1) for i in range(10))


def time_left():
    """Seconds a child process may still take before the run's deadline."""
    left = DEADLINE - time.monotonic()
    if left <= 0:
        die("out of time")
    return left


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import skeinrep from this checkout's src/ and nowhere else."""
    if not (SRC / "skeinrep" / "__init__.py").is_file():
        die(f"no package source at {SRC / 'skeinrep'}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import skeinrep
    if Path(skeinrep.__file__).resolve().parent != (SRC / "skeinrep").resolve():
        die(f"skeinrep imported from {skeinrep.__file__}, not from {SRC}")


def reference_seconds():
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    prod = [Fraction(0)] * (len(_REF_U) + len(_REF_V) - 1)
    for _ in range(4):
        for i, u in enumerate(_REF_U):
            for j, v in enumerate(_REF_V):
                prod[i + j] += u * v
    return time.perf_counter() - start


def scaled(wall_s, refs):
    """A wall time scaled to the nominal machine speed, by the median of the
    reference times measured around it."""
    return wall_s * REFERENCE_NOMINAL_S / statistics.median(refs)


class Pass:
    """One replay of the request list: latencies, responses, errors."""

    def __init__(self, workload, seed, seconds, tracer=None):
        from skeinrep.scalars import QuantumParams
        from workloads import WORKLOADS

        make, execute, self.checker_cls = WORKLOADS[workload]
        self.requests = make(seed, seconds)
        # A server pays the lazy sympy import once, at start-up; setup_s
        # reports it, so it is kept out of the request loop.
        start = time.perf_counter()
        QuantumParams(3, 1)
        self.first_params_s = time.perf_counter() - start
        if tracer is not None:
            tracer.install()
        # refs[i] is taken just before request i, refs[i + 1] just after it
        self.wall_latencies, self.responses, self.errors = [], [], []
        self.refs = [reference_seconds()]
        loop_start = time.perf_counter()
        for i, req in enumerate(self.requests):
            if tracer is not None:
                tracer.request = i
                tracer.start_sampling()
            start = time.perf_counter()
            try:
                resp, err = execute(req), None
            except Exception as exc:  # a failed request is counted, not fatal
                resp, err = None, exc
            self.wall_latencies.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.stop_sampling()
            self.responses.append(resp)
            self.errors.append(err)
            self.refs.append(reference_seconds())
        self.wall_s = time.perf_counter() - loop_start
        if tracer is not None:
            tracer.uninstall()
            tracer.request = None
        self.latencies = [scaled(w, self.refs[i:i + 2])
                          for i, w in enumerate(self.wall_latencies)]
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_start = time.perf_counter()
        self.failed, self.gates = self._check()
        print(f"perfbench: {len(self.requests)} requests in {self.wall_s:.2f} s, "
              f"checked in {time.perf_counter() - check_start:.2f} s", file=sys.stderr)

    @property
    def gates_ok(self):
        """Every checker's self-test ran and rejected its wrong response."""
        return bool(self.gates) and all(self.gates.values())

    @property
    def throughput_rps(self):
        """Requests per second of scaled request time."""
        return len(self.requests) / sum(self.latencies)

    @property
    def wall_throughput_rps(self):
        """Requests per second of the loop's wall time, reference runs included."""
        return len(self.requests) / self.wall_s

    def _check(self):
        """Exact checks outside the timed loop, then the wrong-response
        self-test: every checker must reject a perturbed response."""
        checker = self.checker_cls()
        failed = 0
        sample = {}
        for i, (req, resp, err) in enumerate(zip(self.requests, self.responses, self.errors)):
            ok = False
            if err is not None:
                print(f"perfbench: request {i} raised {err!r}", file=sys.stderr)
            else:
                try:
                    ok = checker.check(req, resp)
                except Exception as exc:
                    print(f"perfbench: checking request {i} raised {exc!r}", file=sys.stderr)
                if not ok:
                    print(f"perfbench: request {i} ({req['kind']}) failed its check",
                          file=sys.stderr)
            if ok:
                sample.setdefault(checker.kind_of(req), (req, resp))
            else:
                failed += 1
        gates = {}  # "kind/gate" -> the wrong response was rejected
        for kind, (req, resp) in sorted(sample.items()):
            try:
                for gate, accepted in checker.self_test(req, resp):
                    gates[f"{kind}/{gate}"] = not accepted
                    if accepted:
                        print(f"perfbench: the {gate} check accepted a wrong {kind} response",
                              file=sys.stderr)
            except Exception as exc:
                gates[f"{kind}/self_test"] = False
                print(f"perfbench: the {kind} self-test raised {exc!r}", file=sys.stderr)
        return failed, gates


def percentile_ms(values, q):
    cuts = statistics.quantiles([v * 1000.0 for v in values], n=100)
    return cuts[q - 1]


def measure_setup():
    """Median scaled wall time of fresh CLI processes, and whether each
    answered correctly."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times, ok = [], True
    for _ in range(SETUP_LAUNCHES):
        before = [reference_seconds() for _ in range(2)]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable] + SETUP_ARGS, cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=time_left())
        wall = time.perf_counter() - start
        times.append(scaled(wall, before + [reference_seconds() for _ in range(2)]))
        if proc.returncode != 0 or proc.stdout.strip() != SETUP_EXPECT:
            print(f"perfbench: set-up command failed: {proc.stderr.strip()}", file=sys.stderr)
            ok = False
    return statistics.median(times), ok


def emit(correct, attempted, failed, metrics, table_rows):
    for name, value, unit in table_rows:
        print(f"{name:28s} {value:>16.6g} {unit}")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def end_to_end(args):
    p = Pass(args.workload, args.seed, args.seconds)
    setup_s, setup_ok = measure_setup()
    n = len(p.requests)
    metrics = {
        "throughput_rps": (p.throughput_rps, "1/s"),
        "latency_p50_ms": (percentile_ms(p.latencies, 50), "ms"),
        "latency_p90_ms": (percentile_ms(p.latencies, 90), "ms"),
        "success_ratio": ((n - p.failed) / n, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (p.peak_rss_mb, "MB"),
    }
    rows = [(k, v, u) for k, (v, u) in metrics.items()]
    rows.insert(4, ("failed_ratio", p.failed / n, "ratio"))
    rows.append(("requests", n, "count"))
    rows.append(("wall.throughput_rps", p.wall_throughput_rps, "1/s"))
    rows.append(("wall.latency_p50_ms", percentile_ms(p.wall_latencies, 50), "ms"))
    rows.append(("wall.latency_p90_ms", percentile_ms(p.wall_latencies, 90), "ms"))
    rows.append(("speed_factor", REFERENCE_NOMINAL_S / statistics.median(p.refs), "nominal/measured"))
    rows.append(("self_test.rejected", sum(p.gates.values()), f"of {len(p.gates)} wrong responses"))
    emit(p.failed == 0 and p.gates_ok and setup_ok, n, p.failed, metrics, rows)


def traced_pass(args):
    """Child side of --trace 1: one traced replay in a fresh process."""
    from tracing import Tracer

    tracer = Tracer(SRC)
    p = Pass(args.workload, args.seed, args.seconds, tracer=tracer)
    tracer.finish()
    tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz")
    layers = tracer.per_layer(sum(p.wall_latencies), p.first_params_s)
    print(json.dumps({"attempted": len(p.requests), "failed": p.failed,
                      "gates_ok": p.gates_ok, "throughput_rps": p.throughput_rps,
                      "metrics": layers}))


def per_layer(args):
    p = Pass(args.workload, args.seed, args.seconds)
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--traced-pass"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=time_left())
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        die(f"traced pass exited with {proc.returncode}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: tuple(v) for k, v in child["metrics"].items()}
    metrics["trace.overhead_ratio"] = (child["throughput_rps"] / p.throughput_rps, "ratio")
    rows = [(k, v, u) for k, (v, u) in metrics.items()]
    rows += [("untraced.throughput_rps", p.throughput_rps, "1/s"),
             ("traced.throughput_rps", child["throughput_rps"], "1/s")]
    emit(p.failed == 0 and child["failed"] == 0 and p.gates_ok and child["gates_ok"],
         len(p.requests) + child["attempted"], p.failed + child["failed"], metrics, rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("mcg_detect", "link_eval", "braid_tl"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced-pass", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")
    import_package()
    try:
        if args.traced_pass:
            traced_pass(args)
        elif args.trace:
            per_layer(args)
        else:
            end_to_end(args)
    except subprocess.TimeoutExpired as exc:
        die(f"{exc.cmd[1:]} did not finish before the run's deadline")


if __name__ == "__main__":
    main()
