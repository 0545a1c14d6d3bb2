"""Span tracer that instruments domdist from outside the package.

Each traced function is replaced by a wrapper at every domdist module that
binds it (``gamma_exact`` is bound in domination, bounds, harness, treelift,
cli and the package itself), so calls made inside the package are recorded
too.  A span is (name, start, end, parent, item); spans stay in memory in
flat arrays until :meth:`Tracer.write` saves them at the end of the run.
"""

from __future__ import annotations

import json
import math
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

NO_PARENT = -1


@dataclass
class LayerStats:
    """Aggregate of every span with one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def aggregate(names: list[str], name_ids, starts, ends, parents) -> dict[str, LayerStats]:
    """Per-name calls, total time and self time.

    Self time is a span's duration minus the time its direct children
    cover.  Spans come from one thread and nest properly, so children never
    overlap and the covered time is the sum of their durations.
    """
    child_s = [0.0] * len(starts)
    for i, parent in enumerate(parents):
        if parent != NO_PARENT:
            child_s[parent] += ends[i] - starts[i]
    stats = {name: LayerStats() for name in names}
    for i, name_id in enumerate(name_ids):
        s = stats[names[name_id]]
        duration = ends[i] - starts[i]
        s.calls += 1
        s.total_s += duration
        s.self_s += duration - child_s[i]
    return stats


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.items = array("i")
        self._stack = [NO_PARENT]
        self.item = -1
        self.counters: dict[str, float] = {}
        self.slowest: dict[str, tuple[float, object]] = {}
        self._undo: list[Callable[[], None]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def keep_slowest(self, key: str, duration: float, subject: object) -> None:
        if duration > self.slowest.get(key, (-1.0, None))[0]:
            self.slowest[key] = (duration, subject)

    def wrap(self, fn: Callable, name: str | Callable, observe: Callable | None = None) -> Callable:
        """fn recording one span per call; name may be a function of the arguments."""
        fixed = self.name_id(name) if isinstance(name, str) else None
        clock = time.perf_counter
        stack = self._stack
        starts, ends, name_ids, parents, items = (
            self.starts, self.ends, self.name_ids, self.parents, self.items)

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(fixed if fixed is not None else self.name_id(name(args, kwargs)))
            parents.append(stack[-1])
            items.append(self.item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result, ends[idx] - starts[idx])
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, specs, method_specs=()) -> None:
        """Wrap every (module, function) in specs wherever domdist binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "domdist" or key.startswith("domdist.")]
        for module_name, attr, name, observe in specs:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(original, name, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._undo.append(lambda m=module, k=key, v=original: setattr(m, k, v))
        for module_name, cls_name, attr, name, observe in method_specs:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(original, name, observe))
            self._undo.append(lambda c=cls, a=attr, v=original: setattr(c, a, v))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_stats(self) -> dict[str, LayerStats]:
        return aggregate(self.names, self.name_ids, self.starts, self.ends, self.parents)

    def write(self, path: Path) -> None:
        """Save all spans: a JSON header line, then the five raw arrays."""
        header = {"names": self.names, "count": len(self.starts),
                  "arrays": ["name_ids:i", "starts:d", "ends:d", "parents:i", "items:i"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.starts, self.ends, self.parents, self.items):
                arr.tofile(fh)


def read_spans(path: Path) -> tuple[list[str], dict[str, array]]:
    """Inverse of Tracer.write."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for spec in header["arrays"]:
            key, code = spec.split(":")
            arr = array(code)
            arr.fromfile(fh, header["count"])
            arrays[key] = arr
    return header["names"], arrays


# --- what is traced -------------------------------------------------------

def _arg(args, kwargs, position: int, name: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _r_subset_name(args, kwargs) -> str:
    return f"bounds.r_subset.r{_arg(args, kwargs, 2, 'r')}"


def _observe_gamma(tracer, args, kwargs, result, duration) -> None:
    tracer.keep_slowest("domination.gamma_exact", duration, _arg(args, kwargs, 0, "g"))


def _observe_enumerate(tracer, args, kwargs, result, duration) -> None:
    tracer.count("domination.min_sets", len(result))


def _observe_triple_scan(tracer, args, kwargs, result, duration) -> None:
    # computed: both scans visit every triple of the distance matrix
    tracer.count("bounds.triples_scanned", math.comb(_arg(args, kwargs, 1, "dm").n, 3))


def _observe_r_subset(tracer, args, kwargs, result, duration) -> None:
    # computed from n and detail["method"]: all C(n, r) subsets when
    # exhaustive, the configured number of samples when sampled
    n = _arg(args, kwargs, 1, "dm").n
    r = _arg(args, kwargs, 2, "r")
    method = result.detail.get("method")
    tracer.count("bounds.r_subset_checks")
    if method == "exhaustive":
        tracer.count("bounds.r_subset_exhaustive")
        tracer.count("bounds.r_subset_subsets", math.comb(n, r))
    elif method == "sampled":
        default = getattr(sys.modules["domdist.bounds"], "DEFAULT_SAMPLE_COUNT", 0)
        tracer.count("bounds.r_subset_subsets", _arg(args, kwargs, 4, "sample_count", default))


def _observe_jsonl(tracer, args, kwargs, result, duration) -> None:
    tracer.count("bounds.jsonl_bytes", len(result) + 1)  # + the newline


def _observe_verify_lift(tracer, args, kwargs, result, duration) -> None:
    tracer.count("treelift.verify_ok", bool(result.ok))


# (module, function, span name, observer)
FUNCTION_SPECS = (
    ("domdist.graphs", "parse_graph6", "graphs.parse", None),
    ("domdist.graphs", "parse_edgelist", "graphs.parse", None),
    ("domdist.graphs", "encode_graph6", "graphs.encode", None),
    ("domdist.distance", "all_pairs_distances", "distance.apsp", None),
    ("domdist.distance", "boundary_and_set_ecc", "distance.boundary", None),
    ("domdist.distance", "wiener_index", "distance.wiener", None),
    ("domdist.domination", "gamma_exact", "domination.gamma_exact", _observe_gamma),
    ("domdist.domination", "gamma_bruteforce_oracle", "domination.oracle", None),
    ("domdist.domination", "enumerate_min_dominating_sets", "domination.enumerate",
     _observe_enumerate),
    ("domdist.domination", "closed_neighborhood_masks", "domination.masks", None),
    ("domdist.domination", "is_dominating_set", "domination.is_dominating", None),
    ("domdist.bounds", "diameter_lb", "bounds.diameter", None),
    ("domdist.bounds", "best_triple_lb", "bounds.triple", _observe_triple_scan),
    ("domdist.bounds", "r_subset_lb", _r_subset_name, _observe_r_subset),
    ("domdist.bounds", "triple_equality_analysis", "bounds.triple_equality",
     _observe_triple_scan),
    ("domdist.bounds", "average_distance_lb", "bounds.average_distance", None),
    ("domdist.bounds", "boundary_ecc_lb", "bounds.boundary_ecc", None),
    ("domdist.bounds", "assemble_report", "bounds.assemble", None),
    ("domdist.harness", "run_corpus_verify", "harness.verify", None),
    ("domdist.treelift", "lift_gamma_set_to_spanning_tree", "treelift.lift", None),
    ("domdist.treelift", "verify_lift", "treelift.verify", _observe_verify_lift),
)
# (module, class, method, span name, observer)
METHOD_SPECS = (
    ("domdist.bounds", "BoundReport", "jsonl_line", "bounds.jsonl", _observe_jsonl),
)


def traced_domdist(tracer: Tracer | None = None) -> Tracer:
    """`tracer`, or a new one, installed on every layer of the imported domdist modules."""
    tracer = tracer or Tracer()
    tracer.install(FUNCTION_SPECS, METHOD_SPECS)
    return tracer
