"""Spans around calls into the public functions of each weylipse layer.

The library is not edited.  While a ``Tracer`` is installed, every public
function of a layer module (a name without a leading underscore) is replaced,
in that module and in every other weylipse module that imported it, by a
wrapper that records one span per call: name, start, end and the span that
was open when it started.
Calls inside the library therefore nest, so a layer's self time is the time
its spans cover minus the time their child spans cover.

Spans are kept in memory; aggregates are kept for every span, raw spans only
up to ``keep`` of them, and both are written out by ``dump`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter_ns

LAYERS = ("cartan", "quadrics", "orbits", "weyl", "ordering", "verify")


class FuncStats:
    __slots__ = ("calls", "failed", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Collects spans; ``install``/``uninstall`` patch the layer functions."""

    def __init__(self, keep: int = 20_000):
        self.keep = keep
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.dropped = 0
        self.stats: dict[str, FuncStats] = {}
        self._next_id = 1
        # each open span: [span id, ns covered by its child spans]
        self._stack: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [span_id, 0]
        self._stack.append(frame)
        failed = False
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            failed = True
            raise
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = FuncStats()
            st.calls += 1
            st.failed += failed
            st.total_ns += duration
            st.self_ns += duration - frame[1]
            if len(self.spans) < self.keep:
                self.spans.append((span_id, name, start, end, parent))
            else:
                self.dropped += 1

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one span called ``name``."""
        return self.call(name, fn, args, kwargs)

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function everywhere weylipse refers to it."""
        modules = [m for key, m in sys.modules.items() if key == "weylipse" or key.startswith("weylipse.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"weylipse.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    if holder.__dict__.get(attr) is fn:
                        self._patch(holder, attr, wrapper)
        poset = importlib.import_module("weylipse.ordering").Poset
        self._patch(poset, "relation", self.wrap("ordering.relation", poset.relation))

    def _patch(self, holder, attr, value) -> None:
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting ---------------------------------------------------------

    def layer_totals(self) -> dict[str, FuncStats]:
        """Per layer (the name before the first dot): calls, failures, self time."""
        out: dict[str, FuncStats] = {}
        for name, st in self.stats.items():
            agg = out.setdefault(name.split(".", 1)[0], FuncStats())
            agg.calls += st.calls
            agg.failed += st.failed
            agg.total_ns += st.total_ns
            agg.self_ns += st.self_ns
        return out

    def dump(self, path) -> None:
        """Write the kept spans, one JSON object a line, then the aggregates."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start_ns": start, "end_ns": end, "parent": parent}
                    )
                    + "\n"
                )
            summary = {
                name: {"calls": st.calls, "failed": st.failed, "total_ns": st.total_ns, "self_ns": st.self_ns}
                for name, st in sorted(self.stats.items())
            }
            fh.write(json.dumps({"dropped_spans": self.dropped, "functions": summary}) + "\n")
