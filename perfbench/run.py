"""Certificate benchmark for ietlab: end-to-end and per-layer metrics.

Usage, from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload growth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one process each

A workload is a seeded list of certificate jobs (see ``workloads.py``) run
in a closed loop by one caller: the next job starts when the previous one
returns.  Each job's result is checked outside the timed region.

``--trace 0`` reports the end-to-end metrics.  The timed loop runs until
the jobs have been busy for ``--seconds``, at least ``MIN_ITEMS`` jobs have
completed (so that the 90th percentile has ten samples above it) and the
last cycle of strata is whole (so every run has the same mix of jobs).

Timings are wall-clock times rescaled to a reference machine speed.  Before
the first job and after every half second of jobs the run times a fixed
pure-Python ``Fraction`` loop, and each job's wall time is multiplied by
``REFERENCE_S`` over the mean of the two loop times around it; each set-up
is rescaled the same way.  A shared machine's speed can drift by
1.7x within minutes, which moves raw wall-clock runs far more than the
bounds; the loop drifts with it.  The clock stays the wall clock, so work
moved into other processes still counts.  Raw wall times and loop times
are written to ``perfbench/out/``.

``--trace 1`` reports the per-layer metrics of ``layers.py`` over a fixed
prefix of the job list, so counts repeat exactly at a given seed.  Each job
runs untraced and with spans back to back; then every job runs once more
with the count-only ``QuadNum`` wrappers.  Per-layer times are raw wall
seconds.  Spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MODULES = ("field", "core", "suspension", "relations", "approx", "textio")
SETUP_REPS = 5  # set-up runs per process; setup_s is their median
MIN_ITEMS = 100
# On a shared 2-vCPU VM the speed drifted by up to 1.7x within minutes, and a
# fixed Fraction loop slows with it.  Timings are reported at the speed where
# CALIBRATION_STEPS of that loop take REFERENCE_S wall seconds.
CALIBRATION_STEPS = 6000
REFERENCE_S = 0.020
CALIBRATE_EVERY_S = 0.5  # of job time; the loop takes about 4% on top
END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class PackageMissing(RuntimeError):
    pass


def load_package() -> SimpleNamespace:
    """Fresh import of every ietlab layer from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "ietlab" or m.startswith("ietlab.")]:
        del sys.modules[name]
    src = ROOT / "src"
    try:
        mods = {m: importlib.import_module(f"ietlab.{m}") for m in MODULES}
    except ImportError as e:
        raise PackageMissing(f"cannot import ietlab from {src}: {e}") from e
    for mod in mods.values():
        if src not in Path(mod.__file__).resolve().parents:
            raise PackageMissing(f"{mod.__name__} was imported from outside {src}")
    return SimpleNamespace(**mods)


def setup(wl, seed: int):
    """Import the package, then draw and canonicalize every input."""
    t0 = time.perf_counter()
    ns = load_package()
    rng = random.Random(f"{wl.name}:{seed}")
    items = [wl.build(ns, spec) for spec in wl.specs(rng, wl.items)]
    return time.perf_counter() - t0, ns, items


def verdict(ns, wl, item, result):
    """None when the result is a correct certificate, else the reason."""
    if result is None:
        return "soft failure: no result"
    try:
        return wl.check(ns, item, result)
    except Exception as e:  # a crashing check is a failed item, not a crashed run
        return f"check raised {type(e).__name__}: {e}"


def run_item(ns, wl, item, runner=None):
    """(seconds, failure reason or None) for one job; the check is untimed."""
    t0 = time.perf_counter()
    try:
        result = runner(wl.job, ns, item) if runner else wl.job(ns, item)
    except Exception as e:  # raised errors, soft failures included, count as failed items
        return time.perf_counter() - t0, f"raised {type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    return dt, verdict(ns, wl, item, result)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, index: int, why) -> None:
        self.attempted += 1
        if why is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"item {index}: {why}")


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python ``Fraction`` loop, collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        x, acc = Fraction(1, 3), Fraction(0)
        t0 = time.perf_counter()
        for i in range(CALIBRATION_STEPS):
            acc += x * i
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def measure(wl, seed: int, seconds: float) -> tuple[dict, Tally]:
    """End-to-end metrics, in reference seconds: each wall time is scaled by
    REFERENCE_S over the mean of the calibrations just before and after the
    segment of jobs (about CALIBRATE_EVERY_S long) that holds it."""
    setups = []
    for _ in range(SETUP_REPS):
        before = calibrate()
        dt, ns, items = setup(wl, seed)
        setups.append(dt * 2 * REFERENCE_S / (before + calibrate()))
    tally = Tally()
    run_item(ns, wl, items[0])  # warm-up, not counted
    cal = [calibrate()]
    raw: list[float] = []
    lat: list[float] = []
    segment: list[float] = []

    def close_segment():
        cal.append(calibrate())
        lat.extend(dt * 2 * REFERENCE_S / (cal[-2] + cal[-1]) for dt in segment)
        segment.clear()

    while sum(raw) < seconds or len(raw) < MIN_ITEMS or len(raw) % wl.cycle:
        i = len(raw)
        dt, why = run_item(ns, wl, items[i % len(items)])
        raw.append(dt)
        segment.append(dt)
        tally.add(i, why)
        if sum(segment) >= CALIBRATE_EVERY_S:
            close_segment()
    if segment:
        close_segment()
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    dump = {"cycle": wl.cycle, "wall_s": raw, "calibration_s": cal}
    (out / f"latency-{wl.name}-seed{seed}.json").write_text(json.dumps(dump))
    metrics = {
        "items_per_s": len(lat) / sum(lat),
        "item_p50_ms": statistics.median(lat) * 1e3,
        "item_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, tally


def measure_layers(wl, seed: int) -> tuple[dict, Tally]:
    _, ns, items = setup(wl, seed)
    jobs = list(enumerate(items[: wl.traced]))
    tally = Tally()
    run_item(ns, wl, items[0])  # warm-up, not counted

    tracer = layers.Tracer(ns)
    spent = {False: 0.0, True: 0.0}  # seconds untraced, traced
    for i, item in jobs:
        # back to back, alternating which goes first, so that machine drift
        # and warm-up cancel out of the overhead ratio
        for traced in (False, True) if i % 2 == 0 else (True, False):
            runner = (lambda job, *a: tracer.run_item(i, job, *a)) if traced else None
            dt, why = run_item(ns, wl, item, runner)
            spent[traced] += dt
            tally.add(i, why)
    spans_path = HERE / "out" / f"spans-{wl.name}-seed{seed}.bin"
    tracer.write(spans_path)
    metrics = layers.span_totals(*layers.read_spans(spans_path))

    counter = layers.FieldCounter(ns)
    for i, item in jobs:
        _, why = run_item(ns, wl, item, counter.run_item)
        tally.add(i, why)
    metrics.update(layers.time_field_ops(counter))

    c = tracer.counters
    certs = metrics["suspension.minimal_model.calls"]
    quotients = metrics["approx.rationalize.calls"]
    metrics.update(
        {
            "field.ops": counter.ops,
            "core.compose.pieces_out": c["core.compose.pieces_out"],
            "suspension.attempts_per_cert": (
                metrics["suspension.verify_linear_growth.calls"] / certs if certs else 0.0
            ),
            "suspension.model_pieces": c["model_pieces_total"] / certs if certs else 0.0,
            "relations.power_n": c["relations.power_n"],
            "relations.word_letters": c["relations.word_letters"],
            "approx.trace_constraints": c["approx.trace_constraints"],
            "approx.grid": c["grid_total"] / quotients if quotients else 0.0,
            "trace.overhead_ratio": spent[False] / spent[True],
        }
    )
    return {k: metrics[k] for k in layers.PER_LAYER}, tally


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics, tally = measure_layers(wl, args.seed)
            units = layers.PER_LAYER
        else:
            metrics, tally = measure(wl, args.seed, args.seconds)
            units = END_TO_END
    except PackageMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for why in tally.reasons:
        print(f"FAILED {why}", file=sys.stderr)
    error_rate = tally.failed / tally.attempted
    print(
        f"{wl.name}: {tally.attempted} items, error_rate {error_rate:.4f} (failed/attempted), "
        + ", ".join(f"{k} {v:.6g} {units[k]}" for k, v in metrics.items())
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a process of its own; a table of every metric."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    first = next(iter(results.values()))["metrics"]
    rows = [("error_rate", "ratio", [r["failed"] / r["attempted"] for r in results.values()])]
    rows += [(k, first[k]["unit"], [r["metrics"][k]["value"] for r in results.values()]) for k in first]
    print(f"{'metric':44} {'unit':6} " + " ".join(f"{n:>12}" for n in results))
    for key, unit, values in rows:
        print(f"{key:44} {unit:6} " + " ".join(f"{v:12.6g}" for v in values))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, one process each")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
