"""Spans around the functions pspinlab's modules expose to the harness.

A traced launch replaces each name in the namespace where its caller
looks it up (``pspinlab.harness.free_energy``, ``pspinlab.model.field_chunks``
and so on) with a wrapper that records one span per call.  A span is
``[name, start, end, parent, replica, work]``: perf_counter seconds, the
index of the enclosing span (-1 at the root), the replica index the
harness was producing (-1 outside the replica loop) and an optional work
count.  Spans stay in memory and are written once, after the timed call.

Generators (``field_chunks`` and the harness row iterator) get one span per
``next()``, so the time a consumer spends between items is not counted as
the generator's.  Only the process that installed the tracer records:
forked pool workers inherit the wrappers but skip recording, so for a
``--threads 2`` launch only parent-side spans exist.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter


# Work recorded per span, from (call arguments, result or yielded item).
def _couplings_drawn(args, disorder) -> int:
    return int(disorder.couplings.size)


def _table_entries(args, table) -> int:
    return int(table.size)


def _pair_loop_shape(args, result) -> list:
    params = args[0].params
    return [params.N, params.p]


# (module where the caller looks the name up, attribute, span name, kind)
HOOKS = (
    ("pspinlab.cli", "run_experiment", "harness.run_experiment", "call"),
    ("pspinlab.harness", "_iter_rows", "harness.rows", "rows"),
    ("pspinlab.harness", "summarize", "harness.summarize", "call"),
    ("pspinlab.harness", "sample_disorder", "multiindex.sample_disorder", "call"),
    ("pspinlab.harness", "free_energy", "model.free_energy", "call"),
    ("pspinlab.harness", "j_term", "model.j_term", "call"),
    ("pspinlab.harness", "quenched_moments", "momentlab.quenched_moments", "call"),
    ("pspinlab.harness", "h3_representation", "momentlab.h3_representation", "call"),
    ("pspinlab.harness", "h4_direct", "momentlab.h4_direct", "call"),
    ("pspinlab.harness", "pair_moment_paths", "momentlab.pair_moment_paths", "call"),
    ("pspinlab.harness", "beta_p", "theory.beta_p", "call"),
    ("pspinlab.harness", "clt_variance", "theory.clt_variance", "call"),
    ("pspinlab.harness", "limit_constants", "theory.limit_constants", "call"),
    ("pspinlab.model", "field_chunks", "model.field_chunks", "gen"),
    ("pspinlab.momentlab", "field_chunks", "model.field_chunks", "gen"),
)

_WORK = {
    "multiindex.sample_disorder": _couplings_drawn,
    "momentlab.h3_representation": _pair_loop_shape,
    "model.field_chunks": _table_entries,
}


class Tracer:
    """Records spans for the process that created it."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []
        self._replica = -1
        self._enabled = True
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self._enabled = False

    def install(self) -> None:
        """Wrap every hook whose name exists; note the ones that do not."""
        for module_name, attr, name, kind in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if kind == "call":
                setattr(module, attr, self._wrap_call(name, fn))
            else:
                setattr(module, attr, self._wrap_gen(name, fn, rows=kind == "rows"))
        if self.missing:
            print("tracer: not found, no spans: " + ", ".join(self.missing), file=sys.stderr)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._replica, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap_call(self, name, fn):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._enabled:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if work is not None:
                self.spans[index][5] = work(args, result)
            return result

        return wrapper

    def _wrap_gen(self, name, fn, rows):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not self._enabled:
                yield from inner
                return
            produced = 0
            try:
                while True:
                    if rows:
                        self._replica = produced
                    index = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._close(index)
                        return
                    except BaseException:
                        self._close(index)
                        raise
                    self._close(index)
                    if work is not None:
                        self.spans[index][5] = work(args, item)
                    produced += 1
                    if rows:
                        self._replica = -1
                    yield item
            finally:
                if rows:
                    self._replica = -1
                inner.close()

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)
