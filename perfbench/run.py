"""zeemac benchmark: closed-loop workloads over the library and its CLI.

    python3 perfbench/run.py --workload sweep|spheres|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  One process, one thread, a closed loop: an item starts only after
the previous one has finished and been checked.  Work comes in passes (the
seed's block of sweep complexes, the list of spheres, the list of CLI
invocations); every pass of a run is the same work, and a run ends at the
first pass boundary after ``--seconds`` of measuring.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
item twice, untraced and with the tracer's wrappers installed, and prints
the per-layer metrics per pass, the tracing overhead (traced over untraced
items/s) and how the traced wall time splits into layer self times, the
benchmark's own time, tracer hooks and a remainder.  Spans are
written to ``.perfbench_out/trace-<workload>.csv.gz``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts every item that raised or
whose check found a problem.  ``correct`` is false when any item on a
well-formed input failed; the CLI's malformed-input probes count in
``failed`` (and ``pass_ratio``) but not in ``correct``, because they record
a known input-boundary defect rather than a wrong answer.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

import workloads  # the script's own directory is first on sys.path
from spans import Tracer, unit_of
from speed import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 5
TAIL_PERCENTILES = (95.0, 90.0, 75.0)  # p99 would flip with the item count near n = 1000
WORKLOADS = {"sweep": workloads.Sweep, "spheres": workloads.Spheres, "cli": workloads.Cli}


def import_zeemac():
    """A fresh import of the library from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "zeemac" or n.startswith("zeemac.")]:
        del sys.modules[name]
    Z = importlib.import_module("zeemac")
    importlib.import_module("zeemac.cli")
    importlib.import_module("zeemac.formats")
    if os.path.dirname(os.path.abspath(Z.__file__)) != os.path.join(SRC, "zeemac"):
        raise ImportError(f"zeemac was imported from {Z.__file__}, not from {SRC}")
    return Z


class Phase:
    """Results of running whole passes in the closed loop."""

    def __init__(self):
        self.items: list[tuple[int, float, float, dict]] = []  # untraced: (pass, start, latency, stages)
        self.traced_latencies: list[float] = []
        self.traced_wall_s = 0.0
        self.failures: list[tuple[str, str, bool]] = []  # (label, problem, probe)
        self.attempted = 0
        self.passes = 0


def run_phase(Z, wl, seconds: float, speed: Speed, tracer=None) -> Phase:
    """Whole passes until ``seconds`` have elapsed.

    With a tracer every item runs twice, once untraced and once traced, in
    alternating order, so that the overhead ratio compares the same work
    at nearly the same moment; the end-to-end figures come from the
    untraced runs only.  The wrappers are bound only around the traced
    run of an item, never around its check or an untraced run.
    """
    ph = Phase()
    source = wl.passes()
    t_start = perf_counter()
    n = 0
    while perf_counter() - t_start < seconds:
        for item in next(source):
            modes = (False,) if tracer is None else ((False, True) if n % 2 == 0 else (True, False))
            for traced in modes:
                speed.calibrate()
                stages: dict[str, float] = {}
                if traced:
                    tracer.install()
                    tw = perf_counter()
                    with tracer.bench_span("item", n):
                        out, exc, t0, dt = _attempt(Z, item, stages)
                    tracer.uninstall()
                    with tracer.bench_span("check"):
                        problem = _verdict(Z, item, out, exc)
                    ph.traced_wall_s += perf_counter() - tw
                    ph.traced_latencies.append(dt)
                else:
                    out, exc, t0, dt = _attempt(Z, item, stages)
                    problem = _verdict(Z, item, out, exc)
                    ph.items.append((ph.passes, t0, dt, stages))
                ph.attempted += 1
                if problem is not None:
                    ph.failures.append((item.label, problem, item.probe))
            n += 1
        ph.passes += 1
    speed.calibrate()
    return ph


def _attempt(Z, item, stages):
    exc = out = None
    t0 = perf_counter()
    try:
        out = item.run(Z, stages)
    except Exception as e:  # an item that raises is a failed item, not a crashed run
        exc = e
    return out, exc, t0, perf_counter() - t0


def _verdict(Z, item, out, exc) -> str | None:
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}"
    return item.check(Z, out)


def tail(latencies: list[float]) -> tuple[float | None, float | None]:
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it, or (None, None) when no percentile has."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            return p, xs[math.ceil(p / 100 * n) - 1]
    return None, None


def src_loc() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "zeemac", "*.py"))):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(ph: Phase, setups: list[float], scales: list[float], setup_scales: list[float]) -> dict:
    """Every end-to-end metric but the memory peak.  Times are multiplied
    by the given per-item (and per-setup) scale factors.  Rates, medians and
    stage totals are taken per pass and their median over passes reported,
    so that one slow pass does not move a run's figure."""
    passes: list[list] = [[] for _ in range(ph.passes)]
    for (k, _, dt, stages), f in zip(ph.items, scales):
        passes[k].append((dt * f, {s: v * f for s, v in stages.items()}))
    latencies = [dt for p in passes for dt, _ in p]
    pct, tail_s = tail(latencies)
    if pct is None:  # too few items for any percentile: the median pass's slowest item
        tail_s = statistics.median(max(dt for dt, _ in p) for p in passes)
    m = {
        "setup_s": metric(statistics.median(t * f for t, f in zip(setups, setup_scales)), "s"),
        "items_per_s": metric(statistics.median(len(p) / sum(dt for dt, _ in p) for p in passes), "1/s"),
        "item_p50_ms": metric(statistics.median(statistics.median(dt for dt, _ in p) for p in passes) * 1e3, "ms"),
        "item_tail_ms": metric(tail_s * 1e3, "ms"),
    }
    for stage in workloads.STAGES:
        totals = [sum(st.get(stage, 0.0) for _, st in p) for p in passes]
        m[f"{stage}_s"] = metric(statistics.median(totals), "s")
    m["pass_ratio"] = metric(1 - len(ph.failures) / ph.attempted, "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "zeemac", "__init__.py")):
        print(f"error: no zeemac sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # The thread-pool knob measured slower than serial; keep the process serial.
    os.environ.pop("ZEEMAC_JOBS", None)
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"inputs-{os.getpid()}")
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: str) -> int:
    speed = Speed()
    setups = []  # (start, duration)
    reps = SETUP_REPS if args.trace == 0 else 1
    for _ in range(reps):
        speed.burst()
        t0 = perf_counter()
        Z = import_zeemac()
        wl = WORKLOADS[args.workload](Z, args.seed, workdir)
        warm = wl.warmup()
        out = warm.run(Z, {})
        setups.append((t0, perf_counter() - t0))
        problem = warm.check(Z, out)
        if problem is not None:
            print(f"error: warm-up item {warm.label} failed: {problem}", file=sys.stderr)
            return 1

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "fields": wl.fields,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_loc": src_loc(),
    }
    if args.trace == 0:
        ph = run_phase(Z, wl, args.seconds, speed)
        scales = [speed.factor(t0, t0 + dt) for _, t0, dt, _ in ph.items]
        setup_scales = [speed.factor(t0, t0 + dt) for t0, dt in setups]
        durations = [dt for _, dt in setups]
        metrics = end_to_end(ph, durations, scales, setup_scales)
        metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        raw = end_to_end(ph, durations, [1.0] * len(scales), [1.0] * len(setups))
        info.update(
            passes=ph.passes,
            items=len(ph.items),
            tail_percentile=tail([dt for _, _, dt, _ in ph.items])[0] or "slowest item of the median pass",
            speed_scale=statistics.median(scales),
            raw={k: v["value"] for k, v in raw.items()},
        )
    else:
        tracer = Tracer()
        ph = run_phase(Z, wl, args.seconds, speed, tracer)
        per_layer = tracer.metrics(ph.passes, ph.traced_wall_s)
        per_layer["trace.overhead"] = sum(dt for _, _, dt, _ in ph.items) / sum(ph.traced_latencies)
        per_layer["src_loc"] = info["src_loc"]
        metrics = {k: metric(v, unit_of(k)) for k, v in per_layer.items()}
        path = os.path.join(OUT_DIR, f"trace-{args.workload}.csv.gz")
        tracer.write(path)
        info.update(passes=ph.passes, items=len(ph.items), spans_file=os.path.relpath(path, ROOT))

    failures = ph.failures
    info["failures"] = len(failures)
    seen = set()
    for label, problem, probe in failures:
        if (label, problem) not in seen:
            seen.add((label, problem))
            print(f"failed: {label}: {problem}" + (" (malformed-input probe)" if probe else ""), file=sys.stderr)
    print("# perfbench " + json.dumps(info, sort_keys=True))
    result = {
        "correct": not any(not probe for _, _, probe in failures),
        "attempted": ph.attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
