"""Per-layer timings from outside the program.

Run as a script, this module is one traced CLI invocation:

    python perfbench/layertrace.py SPANS.npz <famespan arguments>

It imports ``famespan.cli`` and calls its ``main`` in-process after wrapping each
public function of a layer where its caller looks it up (``cli`` imports
names into its own namespace; ``report`` holds the stats functions it
calls).  Every wrapped call, and every ``next()`` on an iterator a wrapped
function returns, is a span (layer, start, end, parent) kept in flat
arrays.  A layer's self time is the time of its spans minus the time of
the spans they enclose, so a generator stage is charged only for its own
work and not for the iterator it pulls from.  Spans are written to
SPANS.npz when the invocation ends; pass_metrics() reads them back.

A function that no longer exists is skipped; a layer none of whose
functions exist is reported as missing (value 0) and the run completes.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module whose namespace the caller uses, function, layer, kind); kind "call"
# times the call, "iter" times each next() on the returned iterator, "reader"
# also counts the lines the returned DocumentReader parsed, "detect" names the
# layer after its method argument (the span includes the process pool).
WRAPS = (
    ("famespan.cli", "read_documents", "corpus_io.read", "reader"),
    ("famespan.cli", "window_filter", "corpus_io.read", "iter"),
    ("famespan.cli", "write_documents", "corpus_io.write", "call"),
    ("famespan.cli", "month_volumes", "sampler.volume", "call"),
    ("famespan.cli", "sample_uniform", "sampler.sample", "iter"),
    ("famespan.cli", "write_sampling_report", "sampler.sample", "call"),
    ("famespan.cli", "mentions_of", "name_extract.extract", "call"),
    ("famespan.cli", "build_timelines", "timeline.build", "call"),
    ("famespan.cli", "basic_name_filter", "timeline.filter", "call"),
    ("famespan.cli", "yearly_counts", "timeline.filter", "call"),
    ("famespan.cli", "top_k_by_year", "timeline.filter", "call"),
    ("famespan.cli", "top_frac_by_year", "timeline.filter", "call"),
    ("famespan.cli", "detect_periods", "peaks.<method>", "detect"),
    ("famespan.cli", "spike_period", "peaks.spike", "call"),
    ("famespan.cli", "continuity_period", "peaks.continuity", "call"),
    ("famespan.cli", "assign_cohorts", "stats.cohorts", "call"),
    ("famespan.cli", "cumulative_curve", "stats.cohorts", "call"),
    ("famespan.report", "compute_cohort_stats", "stats.cohorts", "call"),
    ("famespan.report", "fit_power_law", "stats.cohorts", "call"),
    ("famespan.report", "quantile", "stats.cohorts", "call"),
    ("famespan.report", "bootstrap_many", "stats.bootstrap", "call"),
    ("famespan.report", "write_periods_csv", "report.write", "call"),
    ("famespan.report", "write_quantile_series_csv", "report.write", "call"),
    ("famespan.report", "write_cumulative_curve_csv", "report.write", "call"),
    ("famespan.report", "write_fits_json", "report.write", "call"),
    ("famespan.report", "summary_row", "report.write", "call"),
    ("famespan.report", "write_summary_csv", "report.write", "call"),
    ("famespan.report", "write_summary_text", "report.write", "call"),
    ("famespan.report", "write_manifest", "report.write", "call"),
    ("famespan.report", "read_periods_csv", "report.read_periods", "call"),
)

ROOT_LAYER = "cli.self"
TIME_LAYERS = (
    "corpus_io.read", "corpus_io.write", "sampler.volume", "sampler.sample",
    "name_extract.extract", "timeline.build", "timeline.filter", "peaks.spike",
    "peaks.continuity", "stats.bootstrap", "stats.cohorts", "report.write",
    "report.read_periods", ROOT_LAYER,
)


class Tracer:
    """Spans in flat arrays; a stack gives each span its parent."""

    def __init__(self):
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.lines_parsed = 0

    def layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.layers)
            self.layers.append(name)
        return self._ids[name]

    def begin(self, lid: int) -> int:
        idx = len(self.start)
        self.layer.append(lid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, float]:
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        enclosed = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = np.bincount(np.frombuffer(self.layer, dtype=np.int32), weights=dur - enclosed,
                          minlength=len(self.layers))
        return dict(zip(self.layers, own.tolist()))

    def span_counts(self) -> dict[str, int]:
        n = np.bincount(np.frombuffer(self.layer, dtype=np.int32), minlength=len(self.layers))
        return dict(zip(self.layers, n.tolist()))

    def save(self, path, missing: set[str]) -> None:
        with open(path, "wb") as fh:
            np.savez(fh, layers=np.array(self.layers, dtype=str), missing=np.array(sorted(missing), dtype=str),
                     lines_parsed=self.lines_parsed,
                     layer=np.frombuffer(self.layer, dtype=np.int32),
                     parent=np.frombuffer(self.parent, dtype=np.int64),
                     start=np.frombuffer(self.start, dtype=np.float64),
                     end=np.frombuffer(self.end, dtype=np.float64))

    @classmethod
    def load(cls, path) -> tuple["Tracer", int, set[str]]:
        with np.load(path) as z:
            tracer = cls()
            for name in z["layers"].tolist():
                tracer.layer_id(name)
            tracer.layer = array("i", z["layer"].tobytes())
            tracer.parent = array("q", z["parent"].tobytes())
            tracer.start = array("d", z["start"].tobytes())
            tracer.end = array("d", z["end"].tobytes())
            return tracer, int(z["lines_parsed"]), set(z["missing"].tolist())


class _TimedIterator:
    def __init__(self, tracer: Tracer, lid: int, it, on_exhausted=None):
        self._tracer, self._lid, self._it = tracer, lid, iter(it)
        self._on_exhausted = on_exhausted

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer.begin(self._lid)
        try:
            return next(self._it)
        except StopIteration:
            if self._on_exhausted is not None:
                self._on_exhausted()
                self._on_exhausted = None
            raise
        finally:
            self._tracer.finish(idx)


class _TimedReader:
    """Stands in for a DocumentReader: timed iteration, same attributes."""

    def __init__(self, tracer: Tracer, lid: int, reader):
        self._tracer, self._lid, self._reader = tracer, lid, reader

    def __iter__(self):
        yielded = [0]

        def count():
            stats = getattr(self._reader, "stats", None)
            self._tracer.lines_parsed += getattr(stats, "lines", yielded[0])

        def items():
            for doc in self._reader:
                yielded[0] += 1
                yield doc

        return _TimedIterator(self._tracer, self._lid, items(), count)

    def __getattr__(self, name):
        return getattr(self._reader, name)


def _wrap(tracer: Tracer, fn, layer: str, kind: str):
    if kind == "detect":
        spike, continuity = tracer.layer_id("peaks.spike"), tracer.layer_id("peaks.continuity")

        def wrapped(*args, **kwargs):
            method = kwargs.get("method", args[1] if len(args) > 1 else "")
            idx = tracer.begin(spike if method == "spike" else continuity)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
        return wrapped
    lid = tracer.layer_id(layer)
    if kind == "iter":
        return lambda *a, **k: _TimedIterator(tracer, lid, fn(*a, **k))
    if kind == "reader":
        return lambda *a, **k: _TimedReader(tracer, lid, fn(*a, **k))

    def timed(*args, **kwargs):
        idx = tracer.begin(lid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
    return timed


@contextmanager
def installed(tracer: Tracer):
    """Wrap every function in WRAPS that exists; restore them on exit.
    Yields the set of layers with no function left to wrap."""
    saved = []
    found: set[str] = set()
    try:
        for modname, attr, layer, kind in WRAPS:
            module = sys.modules.get(modname)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, fn, layer, kind))
            found.update(("peaks.spike", "peaks.continuity") if kind == "detect" else (layer,))
        yield {layer for layer in TIME_LAYERS if layer != ROOT_LAYER} - found
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _invocation(spans_path: str, argv: list[str]) -> int:
    """One CLI invocation under a root span, imports included."""
    tracer = Tracer()
    root = tracer.begin(tracer.layer_id(ROOT_LAYER))
    missing: set[str] = set()
    try:
        import famespan.cli

        for modname in {w[0] for w in WRAPS}:
            try:
                importlib.import_module(modname)
            except ImportError:
                pass  # its layers are reported as missing
        with installed(tracer) as missing:
            code = famespan.cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, reported by the caller
        print(f"layertrace: famespan raised {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    finally:
        tracer.finish(root)
    tracer.save(spans_path, missing)
    return code


def pass_metrics(spans_paths: list, walls: list[float]) -> tuple[dict[str, float], set[str]]:
    """Per-layer metrics of one pass from its invocations' span files and
    their wall times.  ``cli.self_s`` is the wall time no other layer's
    spans account for: interpreter start-up, imports, argparse, glue and
    the detector process pool."""
    own: dict[str, float] = {}
    spans: dict[str, int] = {}
    lines = 0
    missing: set[str] = set()
    for path in spans_paths:
        if not path.exists():  # the invocation died before writing its spans
            continue
        tracer, lines_i, missing_i = Tracer.load(path)
        for layer, t in tracer.self_times().items():
            own[layer] = own.get(layer, 0.0) + t
        for layer, n in tracer.span_counts().items():
            spans[layer] = spans.get(layer, 0) + n
        lines += lines_i
        missing |= missing_i
    out = {f"{layer}_s": own.get(layer, 0.0) for layer in TIME_LAYERS if layer != ROOT_LAYER}
    out[f"{ROOT_LAYER}_s"] = sum(walls) - sum(out.values())
    out["corpus_io.lines_parsed"] = float(lines)
    out["stats.bootstrap_passes"] = float(spans.get("stats.bootstrap", 0))
    return out, missing


if __name__ == "__main__":
    sys.exit(_invocation(sys.argv[1], sys.argv[2:]))
