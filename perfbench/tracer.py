"""Outside-in tracer for the qheis benchmark.

The tracer wraps the public functions of the qheis modules, plus the
scipy routines that ``kz`` calls through its own namespace, without
changing a line of the package.  A wrapper is bound in place of every
name that refers to a wrapped function, in every qheis module, so calls
made through a from-import (``kz.projected_norms``, ``suites.gauss_2f1``,
``cli.run_suite``) are seen as well as calls through the defining
module.  ``uninstall`` puts every original binding back.

Each call becomes a span ``(name, start, end, parent, pass_id)`` kept in
memory; ``write_spans`` writes them out when the run ends.  A few spans
also carry a count taken where the work happens (matrix elements handed
to ``projected_norms``, ``nfev`` and steps of each ``solve_ivp``).
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("fock", "liealg", "qspecial", "braid", "deform", "soshift", "kz",
          "verify", "suites", "cli")

# scipy routines that kz binds by from-import; each is its own layer so
# that kz.self_s stays the time spent in kz's own code.
EXTERNAL = {"kz": {"solve_ivp": "ode", "expm": "expm"}}

PASS_SPAN = "bench.pass"


def _norm_elems(args, kwargs, result):
    m = args[1] if len(args) > 1 else kwargs["m"]
    return int(m.size)


def _ode_counts(args, kwargs, result):
    return int(result.nfev), len(result.t) - 1


def _gens_rel_pair(args, kwargs, result):
    gens = args[0] if args else kwargs["gens"]
    rel = args[1] if len(args) > 1 else kwargs["rel"]
    return id(gens), id(rel)


# span name -> function (args, kwargs, result) -> the span's count
COUNTERS = {
    "verify.projected_norms": _norm_elems,
    "ode.solve_ivp": _ode_counts,
    "verify.dcr_residuals": _gens_rel_pair,
}
# spans whose count is an id() pair: the arguments are kept alive until the
# pass ends, so that an id is not reused by another object within the pass
HOLD_ARGS = {"verify.dcr_residuals"}


def _targets():
    """(span name, original object) for every function the tracer wraps."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"qheis.{layer}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                out[id(obj)] = (f"{layer}.{name}", obj)
        for name, ext_layer in EXTERNAL.get(layer, {}).items():
            obj = getattr(mod, name)
            out[id(obj)] = (f"{ext_layer}.{name}", obj)
    return list(out.values())


class Tracer:
    """Collects spans while installed; restores the package on uninstall."""

    def __init__(self):
        self.spans: list = []      # (name, start, end, parent, pass_id)
        self.counts: dict = {}     # span index -> count from COUNTERS
        self._child_s: list = []   # per span: time covered by its children
        self._stack: list = []
        self._pass_id = None
        self._pass_idx = self._pass_start = None
        self._keep: list = []      # objects whose id() a count refers to
        self._rebound: list = []   # (module, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        wrappers = {id(obj): self._wrap(name, obj) for name, obj in _targets()}
        for layer in LAYERS:
            mod = importlib.import_module(f"qheis.{layer}")
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._rebound.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._child_s.append(0.0)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start):
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self._pass_id)
        if parent is not None:
            self._child_s[parent] += end - start

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        hold = name in HOLD_ARGS

        def wrapper(*args, **kwargs):
            idx, parent = self._open(name)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, parent, name, start)
                if counter is not None and result is not None:
                    self.counts[idx] = counter(args, kwargs, result)
                    if hold:
                        self._keep.append((args, kwargs))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def begin_pass(self, pass_id) -> None:
        self._pass_id = pass_id
        self._pass_idx, _ = self._open(PASS_SPAN)
        self._pass_start = perf_counter()

    def end_pass(self) -> None:
        self._close(self._pass_idx, None, PASS_SPAN, self._pass_start)
        self._pass_id = None
        self._keep.clear()  # ids of objects in the next pass may be reused

    def self_times(self) -> list:
        return [s[2] - s[1] - c for s, c in zip(self.spans, self._child_s)]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, pass_id) in enumerate(self.spans):
                rec = {"id": idx, "name": name, "start": start, "end": end,
                       "parent": parent, "pass": pass_id}
                if idx in self.counts:
                    rec["count"] = self.counts[idx]
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (name, unit); every one is reported by a traced run, 0 where unused
LAYER_METRICS = (
    ("verify.products_s", "s"), ("verify.norms_s", "s"),
    ("verify.norm_calls", "count"), ("verify.norm_elems", "count"),
    ("verify.self_s", "s"), ("verify.dcr_calls_per_set", "ratio"),
    ("fock.self_s", "s"), ("fock.calls", "count"),
    ("deform.self_s", "s"), ("liealg.self_s", "s"), ("soshift.self_s", "s"),
    ("kz.ode_s", "s"), ("kz.ode_nfev", "count"), ("kz.ode_steps", "count"),
    ("kz.expm_s", "s"), ("kz.self_s", "s"),
    ("qspecial.self_s", "s"), ("qspecial.calls", "count"),
    ("braid.self_s", "s"), ("braid.calls", "count"),
    ("suites.self_s", "s"), ("suites.serialize_s", "s"), ("cli.self_s", "s"),
)


def pass_layer_metrics(tracer: Tracer) -> dict:
    """Per traced pass: {pass_id: {metric: value}} plus the pass wall time
    under the key "wall_s"."""
    selfs = tracer.self_times()
    sums = defaultdict(Counter)   # pass id -> metric -> value
    pairs = defaultdict(set)      # pass id -> distinct dcr_residuals pairs
    for idx, (name, start, end, _parent, pass_id) in enumerate(tracer.spans):
        acc, dur = sums[pass_id], end - start
        if name == PASS_SPAN:
            acc["wall_s"] = dur
            continue
        layer = name.split(".", 1)[0]
        acc[f"{layer}.self_s"] += selfs[idx]
        acc[f"{layer}.calls"] += 1
        count = tracer.counts.get(idx)  # None when the call raised
        if name == "verify.quadratic_residual_matrices":
            acc["verify.products_s"] += selfs[idx]
        elif name == "verify.projected_norms":
            acc["verify.norms_s"] += dur
            acc["verify.norm_calls"] += 1
            acc["verify.norm_elems"] += count or 0
        elif name == "verify.dcr_residuals":
            acc["verify.dcr_calls"] += 1
            if count is not None:
                pairs[pass_id].add(count)
        elif name == "suites.report_to_json":
            acc["suites.serialize_s"] += dur
        elif layer == "ode":
            nfev, steps = count or (0, 0)
            acc["kz.ode_s"] += dur
            acc["kz.ode_nfev"] += nfev
            acc["kz.ode_steps"] += steps
        elif layer == "expm":
            acc["kz.expm_s"] += dur
    for pass_id, acc in sums.items():
        n_pairs = len(pairs[pass_id])
        acc["verify.dcr_calls_per_set"] = acc["verify.dcr_calls"] / n_pairs if n_pairs else 0.0
    keys = [k for k, _ in LAYER_METRICS] + ["wall_s"]
    return {pass_id: {k: acc[k] for k in keys} for pass_id, acc in sums.items()}


def layer_medians(per_pass: dict) -> dict:
    """Median over traced passes of each per-layer metric and the wall time."""
    keys = [k for k, _ in LAYER_METRICS] + ["wall_s"]
    return {k: statistics.median(p[k] for p in per_pass.values()) for k in keys}
