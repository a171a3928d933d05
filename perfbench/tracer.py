"""Span tracing of ceslab's layers from outside the package.

``install(tracer)`` replaces the public functions of ``triangular``,
``resolvent``, ``spaces``, ``bounds`` and ``spectra`` (and ``cli.main``)
with timing wrappers.  A function is replaced under every name that any
ceslab module holds for it, because callers look functions up in their own
module: ``spectra`` keeps its own ``resolvent_matrix``, ``modulus``,
``norm`` and ``cesaro_averages``, ``bounds`` its own ``e_part``, ``cli``
its own ``residual`` and ``check_entry_bounds``.  The helpers private to
``cli`` stay unwrapped, so ``cli.main``'s self time is argument parsing and
CSV/JSON rendering.

Each call becomes one span: name, start, end, parent span and thread, plus
one number (bytes for ``dense()``, the converged flag for a norm report).
Spans are kept in one list in memory and written out when the run ends.  A
span opened on a pool thread with nothing open on that thread gets the
innermost open span of the main thread as parent, which during a sweep is
the ``spectra.sweep`` span that submitted it.
"""

import functools
import inspect
import itertools
import threading
import time

import numpy as np

import ceslab
import ceslab.bounds
import ceslab.cli
import ceslab.errors
import ceslab.multiplication
import ceslab.resolvent
import ceslab.spaces
import ceslab.spectra
import ceslab.triangular

LAYERS = {
    "triangular": ceslab.triangular,
    "resolvent": ceslab.resolvent,
    "spaces": ceslab.spaces,
    "bounds": ceslab.bounds,
    "spectra": ceslab.spectra,
}
# every namespace that may hold a reference to a wrapped function
NAMESPACES = (ceslab, ceslab.errors, ceslab.multiplication, ceslab.cli, *LAYERS.values())


class Tracer:
    """In-memory span store: a list of (id, name, start, end, parent, thread, value)."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main else []
            self._local.stack = stack
        return stack

    def span(self, name, fn, args, kwargs, namer):
        stack = self._stack()
        # a pool thread's outermost span belongs to what the main thread has open
        parent_stack = stack or self._main_stack
        parent = parent_stack[-1] if parent_stack else -1
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        value = 0.0
        if namer is not None:
            name, value = namer(result, args, kwargs)
        self.spans.append((sid, name, start, end, parent, threading.get_ident(), value))
        return result

    def clear(self):
        self.spans.clear()

    def table(self):
        """All closed spans as a dict of equal-length numpy columns, by id."""
        columns = list(zip(*sorted(self.spans))) or [()] * 7
        return {
            "id": np.array(columns[0], dtype=np.int64),
            "name": np.array(columns[1], dtype=str),
            "start": np.array(columns[2], dtype=np.float64),
            "end": np.array(columns[3], dtype=np.float64),
            "parent": np.array(columns[4], dtype=np.int64),
            "thread": np.array(columns[5], dtype=np.uint64),
            "value": np.array(columns[6], dtype=np.float64),
        }

    def save(self, path):
        np.savez_compressed(path, **self.table())


def _wrapper(tracer, fn, name, namer=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.span(name, fn, args, kwargs, namer)

    return traced


def _norm_namer(result, args, kwargs):
    return f"spectra.norm.{result.method}", 1.0 if result.converged else 0.0


def _e_part_namer(result, args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
    if method == "auto":
        n = int(args[1] if len(args) > 1 else kwargs["n"])
        method = "direct" if n <= ceslab.resolvent.LOG_DOMAIN_THRESHOLD else "log"
    return f"resolvent.e_part.{method}", 0.0


def _dense_namer(result, args, kwargs):
    return "triangular.dense", 16.0 * result.shape[0] * result.shape[1]


NAMERS = {
    "spectra.operator_norm_report": _norm_namer,
    "resolvent.e_part": _e_part_namer,
}


def install(tracer):
    """Wrap ceslab's public functions in every module namespace holding them."""
    targets = []  # (original function, span name)
    for short, mod in LAYERS.items():
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj):
                targets.append((obj, f"{short}.{attr}"))
    targets.append((ceslab.spectra._sweep_task, "spectra.sweep_task"))
    targets.append((ceslab.cli.main, "cli.main"))

    for original, name in targets:
        wrapped = _wrapper(tracer, original, name, NAMERS.get(name))
        for mod in NAMESPACES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)

    cls = ceslab.triangular.LowerTriangularMatrix
    cls.dense = _wrapper(tracer, cls.dense, "triangular.dense", _dense_namer)


def self_time(cols, mask):
    """Summed self time of the spans selected by ``mask``: each one's duration
    minus the durations of its direct children.  This is exact for spans
    whose children run one after another, as ``cli.main``'s do (pool-thread
    spans are parented to ``spectra.sweep``, not to ``cli.main``)."""
    dur = cols["end"] - cols["start"]
    children = np.isin(cols["parent"], cols["id"][mask])
    return float(dur[mask].sum() - dur[children].sum())


LAYER_METRICS = (
    # name, unit, source span, statistic
    ("cli.main.calls", "count", "cli.main", "calls"),
    ("cli.main.self_s", "s", "cli.main", "self"),
    ("spectra.sweep.s", "s", "spectra.sweep", "time"),
    ("spectra.norm.svd.s", "s", "spectra.norm.svd", "time"),
    ("spectra.norm.svd.calls", "count", "spectra.norm.svd", "calls"),
    ("spectra.norm.ascent.s", "s", "spectra.norm.ascent", "time"),
    ("spectra.norm.ascent.calls", "count", "spectra.norm.ascent", "calls"),
    ("spectra.norm.ascent.unconverged", "count", "spectra.norm.ascent", "unconverged"),
    ("spectra.norm.rowsum.s", "s", "spectra.norm.rowsum", "time"),
    ("triangular.dense.s", "s", "triangular.dense", "time"),
    ("triangular.dense.calls", "count", "triangular.dense", "calls"),
    ("triangular.dense.bytes", "B", "triangular.dense", "value"),
    ("triangular.modulus.s", "s", "triangular.modulus", "time"),
    ("resolvent.resolvent_matrix.s", "s", "resolvent.resolvent_matrix", "time"),
    ("resolvent.resolvent_matrix.calls", "count", "resolvent.resolvent_matrix", "calls"),
    ("resolvent.e_part.direct.s", "s", "resolvent.e_part.direct", "time"),
    ("resolvent.e_part.log.s", "s", "resolvent.e_part.log", "time"),
    ("resolvent.residual.s", "s", "resolvent.residual", "time"),
    ("spaces.norm.s", "s", "spaces.norm", "time"),
    ("spaces.norm.calls", "count", "spaces.norm", "calls"),
    ("spaces.cesaro_averages.calls", "count", "spaces.cesaro_averages", "calls"),
    ("bounds.check_entry_bounds.s", "s", "bounds.check_entry_bounds", "time"),
    ("bounds.product_profile.s", "s", "bounds.product_profile", "time"),
    ("bounds.beta_estimate.s", "s", "bounds.beta_estimate", "time"),
)


def layer_metrics(tracer, rounds, workers):
    """Per-round layer figures from the recorded spans.

    Times are inclusive span time summed over calls, divided by the number
    of rounds; ``spectra.pool.utilization`` is the busy time of the sweep
    tasks over each sweep's wall time times the pool's worker count.
    """
    cols = tracer.table()
    names = cols["name"]
    dur = cols["end"] - cols["start"]
    out = {}
    for metric, unit, span, stat in LAYER_METRICS:
        mask = names == span
        if stat == "calls":
            value = float(mask.sum())
        elif stat == "time":
            value = float(dur[mask].sum())
        elif stat == "self":
            value = self_time(cols, mask)
        elif stat == "value":
            value = float(cols["value"][mask].sum())
        elif stat == "unconverged":
            value = float((cols["value"][mask] == 0.0).sum())
        out[metric] = {"value": value / rounds, "unit": unit}

    sweeps = np.flatnonzero(names == "spectra.sweep")
    task = names == "spectra.sweep_task"
    busy = sum(float(dur[task & (cols["parent"] == cols["id"][k])].sum()) for k in sweeps)
    capacity = float(dur[sweeps].sum()) * workers
    out["spectra.pool.utilization"] = {
        "value": busy / capacity if capacity > 0 else 0.0,
        "unit": "ratio",
    }
    out["trace.spans"] = {"value": len(dur) / rounds, "unit": "count"}
    return out
