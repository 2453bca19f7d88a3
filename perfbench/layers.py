"""Per-layer tracing of the package, patched in from the benchmark's side.

Two instruments, never active together:

* ``Tracer`` wraps public functions of each layer (module) with spans.  A
  span has a name, a start, an end, the id of the span that caused it and
  the id of the item (certificate job) it belongs to.  Spans stay in memory
  in flat arrays and are written out when the run ends; calls and self
  times (span time minus the time covered by child spans) are derived from
  the written spans.  Counters are recorded at the same boundaries.
* ``FieldCounter`` counts ``QuadNum`` arithmetic and comparison calls and
  keeps a thinned sample of their operands, which ``time_field_ops`` then
  replays with nothing patched.

Each wrapper is installed where the name is looked up, e.g.
``approx.lp_rational_point`` (imported by name into ``approx``) and
``suspension.verify_linear_growth`` (a module global of ``suspension``).
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (metric prefix, module, owner inside the module or "" for the module, attribute)
SPAN_POINTS = [
    ("field.lp", "field", "", "lp_rational_point"),
    ("field.lp", "approx", "", "lp_rational_point"),
    ("core.construct", "core", "Iet", "__init__"),
    ("core.compose", "core", "Iet", "__mul__"),
    ("core.invert", "core", "Iet", "__invert__"),
    ("core.power", "core", "Iet", "__pow__"),
    ("core.evaluate", "core", "Iet", "__call__"),
    ("core.discontinuities", "core", "Iet", "discontinuities"),
    ("core.support", "core", "Iet", "support"),
    ("suspension.minimal_model", "suspension", "", "minimal_model"),
    ("suspension.verify_linear_growth", "suspension", "", "verify_linear_growth"),
    ("suspension.singular_points", "suspension", "", "singular_points"),
    ("suspension.find_boundary_connections", "suspension", "", "find_boundary_connections"),
    ("suspension.fake_boundaries", "suspension", "", "fake_boundaries"),
    ("suspension.glue_fake_boundary", "suspension", "", "glue_fake_boundary"),
    ("relations.shrink_support", "relations", "", "shrink_support"),
    ("relations.small_rotation_power", "relations", "", "small_rotation_power"),
    ("relations.commutator", "relations", "", "commutator"),
    ("relations.relation_certificate", "relations", "", "relation_certificate"),
    ("relations.word_evaluate", "relations", "Word", "evaluate"),
    ("approx.rationalize", "approx", "", "rationalize"),
    ("approx.pl_trace", "approx", "", "pl_trace"),
    ("approx.permutation_group_order", "approx", "", "permutation_group_order"),
    ("textio.parse", "textio", "", "parse_iet"),
    ("textio.serialize", "textio", "", "serialize_iet"),
]


def _count(key, amount):
    def hook(counters, args, result):
        counters[key] += amount(args, result)

    return hook


# counters recorded when the named span closes: (args, result) -> increment
HOOKS = {
    "core.compose": _count("core.compose.pieces_out", lambda a, r: len(r.pieces)),
    "suspension.minimal_model": _count("model_pieces_total", lambda a, r: len(r.h_m.pieces)),
    "relations.small_rotation_power": _count("relations.power_n", lambda a, r: r),
    "relations.word_evaluate": _count("relations.word_letters", lambda a, r: len(a[0])),
    "approx.pl_trace": _count("approx.trace_constraints", lambda a, r: len(r.system.constraints)),
    "approx.rationalize": _count("grid_total", lambda a, r: r[1].grid),
}

FIELD_GROUPS = {
    "add": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__abs__"),
    "mul": ("__mul__", "__rmul__"),
    "div": ("__truediv__", "__rtruediv__"),
    "cmp": ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__"),
    "floor": ("floor", "mod"),
}

# per-layer metric name -> unit; the traced run reports exactly these
PER_LAYER = {f"field.{g}_ns": "ns" for g in FIELD_GROUPS}
PER_LAYER["field.ops"] = "count"
for _prefix in dict.fromkeys(p for p, *_ in SPAN_POINTS):
    PER_LAYER[f"{_prefix}.calls"] = "count"
    PER_LAYER[f"{_prefix}.self_s"] = "s"
PER_LAYER.update(
    {
        "core.compose.pieces_out": "count",
        "suspension.attempts_per_cert": "ratio",
        "suspension.model_pieces": "count",
        "relations.power_n": "count",
        "relations.word_letters": "count",
        "approx.trace_constraints": "count",
        "approx.grid": "cells",
        "trace.overhead_ratio": "ratio",
    }
)


class Patch:
    """Replace attributes and put the originals back on exit."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr, value) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def _owner(ns, module: str, owner: str):
    obj = getattr(ns, module)
    return getattr(obj, owner) if owner else obj


class Tracer:
    """Spans around SPAN_POINTS, kept in flat arrays until the run ends."""

    def __init__(self, ns):
        self.ns = ns
        self.names = ["item"] + list(dict.fromkeys(p for p, *_ in SPAN_POINTS))
        self.name = array("H")
        self.parent = array("q")
        self.item = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.item_id = -1
        self.counters: dict[str, int] = defaultdict(int)

    def _open(self, key: int) -> int:
        sid = len(self.start)
        self.name.append(key)
        self.parent.append(self.stack[-1])
        self.item.append(self.item_id)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, fn, key: int, hook):
        tracer, counters = self, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def run_item(self, item_id: int, job, *args):
        """Run one job inside an item span with every wrapper installed."""
        with Patch() as patch:
            for prefix, module, owner, attr in SPAN_POINTS:
                obj = _owner(self.ns, module, owner)
                key = self.names.index(prefix)
                patch.set(obj, attr, self._wrap(getattr(obj, attr), key, HOOKS.get(prefix)))
            self.item_id = item_id
            sid = self._open(0)
            try:
                return job(*args)
            finally:
                self._close(sid)
                self.item_id = -1

    def write(self, path: Path) -> None:
        """One JSON header line, then the five arrays as raw machine words."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = [self.name, self.parent, self.item, self.start, self.end]
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": ["name", "parent", "item", "start_ns", "end_ns"],
            "typecodes": [c.typecode for c in cols],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for c in cols:
                c.tofile(f)


def read_spans(path: Path) -> tuple[list[str], list[array]]:
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        cols = []
        for code in header["typecodes"]:
            c = array(code)
            c.fromfile(f, header["count"])
            cols.append(c)
    return header["names"], cols


def span_totals(names: list[str], cols: list[array]) -> dict[str, float]:
    """Calls and self seconds per span name, from written spans."""
    name, parent, _, start, end = cols
    covered = [0] * len(start)
    for i in range(len(start)):
        if parent[i] >= 0:
            covered[parent[i]] += end[i] - start[i]
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    for i in range(len(start)):
        calls[name[i]] += 1
        self_ns[name[i]] += end[i] - start[i] - covered[i]
    out: dict[str, float] = {}
    for k, n in enumerate(names[1:], start=1):
        out[f"{n}.calls"] = calls[k]
        out[f"{n}.self_s"] = self_ns[k] / 1e9
    return out


class Thinned:
    """Every stride-th value; the stride doubles whenever 2*cap are held, so
    the sample spans the whole pass at bounded memory."""

    def __init__(self, cap: int):
        self.cap, self.stride, self.seen, self.values = cap, 1, 0, []

    def add(self, value) -> None:
        if self.seen % self.stride == 0:
            self.values.append(value)
            if len(self.values) >= 2 * self.cap:
                self.values = self.values[::2]
                self.stride *= 2
        self.seen += 1


class FieldCounter:
    """Count-only wrappers on QuadNum arithmetic and comparison."""

    def __init__(self, ns, cap: int = 2000):
        self.quad = ns.field.QuadNum
        self.ops = 0
        self.samples = {g: Thinned(cap) for g in FIELD_GROUPS}

    def _wrap(self, fn, sample: Thinned):
        counter = self

        @functools.wraps(fn)
        def counted(this, *args):
            counter.ops += 1
            result = fn(this, *args)
            if result is not NotImplemented:
                sample.add((this,) + args)
            return result

        return counted

    def run_item(self, job, *args):
        with Patch() as patch:
            for group, attrs in FIELD_GROUPS.items():
                for attr in attrs:
                    patch.set(self.quad, attr, self._wrap(getattr(self.quad, attr), self.samples[group]))
            return job(*args)


_REPLAY = {
    "add": lambda ops: [a + b for a, b in ops],
    "mul": lambda ops: [a * b for a, b in ops],
    "div": lambda ops: [a / b for a, b in ops],
    "cmp": lambda ops: [a < b for a, b in ops],
    "floor": lambda ops: [a.floor() for a in ops],
}


def time_field_ops(counter: FieldCounter, reps: int = 7) -> dict[str, float]:
    """Median ns per operation over the captured operands, nothing patched.

    Unary captures (negation, abs) are dropped from the add sample, floor
    replays the receivers of floor and mod, and division keeps nonzero
    divisors only (a captured reflected 0 / x replays as x / 0).  A group
    the pass never exercised borrows the add operands, so every figure is
    defined.
    """
    pairs = {g: [c for c in s.values if len(c) == 2] for g, s in counter.samples.items()}
    add = pairs["add"]
    pairs["floor"] = [c[0] for c in counter.samples["floor"].values] or [a for a, _ in add]
    pairs["div"] = [(a, b) for a, b in pairs["div"] or add if b != 0]
    out = {}
    for group, replay in _REPLAY.items():
        ops = pairs[group] or add
        times = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            replay(ops)
            times.append((time.perf_counter_ns() - t0) / len(ops))
        out[f"field.{group}_ns"] = statistics.median(times)
    return out
