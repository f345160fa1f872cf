"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of each hypermaps layer from outside the
package: it rebinds every module-level name that refers to a target function
(so ``from .hmf import read_hmf`` in ``cli`` is covered too) and every class
attribute that is a target method.  Nothing under ``src/`` is edited, and
``uninstall`` puts every original object back.

A wrapped call records a span (id, parent id, request id, name, start, end)
and adds its duration to the caller's child time, so each layer's self time
is its duration minus the part its traced children cover.  Calls and self
time are summed as spans close; the span list itself is capped so a long run
cannot exhaust memory, and the number of spans beyond the cap is reported.
Totals cover every call, stored or not.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import sys
import threading
import time
from typing import Any, Callable

# (metric prefix, module, attribute, work counter or None).  A work counter is
# (unit, fn) where fn maps (args, result) to the units of work one call did;
# it is reported as "<prefix>.<unit>".
WorkCounter = tuple[str, Callable[[tuple, Any], int]]
TARGETS: tuple[tuple[str, str, str, WorkCounter | None], ...] = (
    ("perm.init", "hypermaps.perm", "Permutation.__init__", None),
    ("perm.then", "hypermaps.perm", "Permutation.then", None),
    ("perm.inverse", "hypermaps.perm", "Permutation.inverse", None),
    ("perm.orbit_count", "hypermaps.perm", "Permutation.orbit_count", None),
    ("model.from_flags", "hypermaps.model", "Hypermap.from_flags", None),
    ("model.from_parts", "hypermaps.model", "Hypermap.from_parts", None),
    ("model.solve_iota", "hypermaps.model", "solve_iota", None),
    ("hmf.read_hmf", "hypermaps.hmf", "read_hmf",
     ("bytes", lambda args, out: len(args[0]))),
    ("hmf.write_hmf", "hypermaps.hmf", "write_hmf", ("bytes", lambda args, out: len(out))),
    ("duality.partial_dual", "hypermaps.duality", "partial_dual", None),
    ("duality.spanning_counts", "hypermaps.duality", "spanning_counts", None),
    ("genuspoly.enumerate_partial_duals", "hypermaps.genuspoly",
     "enumerate_partial_duals", ("subsets", lambda args, out: 1 << args[0].e)),
    ("genuspoly.euler_genus_polynomial", "hypermaps.genuspoly",
     "euler_genus_polynomial", None),
    ("constructions.join", "hypermaps.constructions", "join", None),
    ("constructions.subdivide3", "hypermaps.constructions", "subdivide3", None),
    ("constructions.add_pendant_vertex", "hypermaps.constructions",
     "add_pendant_vertex", None),
    ("verify.verify_hypermap", "hypermaps.verify", "verify_hypermap", None),
    ("verify.verify_bundled", "hypermaps.verify", "verify_bundled", None),
    ("cli.run", "hypermaps.cli", "run", None),
)

SPAN_FIELDS = ("span_id", "parent_id", "request_id", "name", "start_s", "end_s")


class Tracer:
    """Records spans around the target functions while ``recording`` is on."""

    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans: list[list] = []
        self.dropped = 0
        # name -> [calls, self seconds, inclusive seconds, work units]
        self.totals: dict[str, list] = {}
        self.missing: list[str] = []
        self.recording = False
        self.request_id = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        """Push a frame [span id, start, child seconds, span record].

        Spans are stored when they open, so once the cap is reached only
        later spans are dropped and every stored span's parent is stored.
        """
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        span_id = next(self._ids)
        start = time.perf_counter()
        record = None
        with self._lock:
            if len(self.spans) < self.span_cap:
                record = [span_id, parent, self.request_id, name, start, None]
                self.spans.append(record)
            else:
                self.dropped += 1
        frame = [span_id, start, 0.0, record]
        stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, work: int = 0) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        _span_id, start, child, record = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        if record is not None:
            record[5] = end
        with self._lock:
            rec = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
            rec[0] += 1
            rec[1] += duration - child
            rec[2] += duration
            rec[3] += work

    @contextlib.contextmanager
    def span(self, name: str, request_id: int = -1):
        """A benchmark-level span; layer calls inside it are recorded."""
        self.request_id = request_id
        self.recording = True
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(name, frame)
            self.recording = False

    # -- patching -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, work: WorkCounter | None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            units = 0
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    units = work[1](args, result)
                return result
            finally:
                tracer._close(name, frame, units)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target that exists; absent ones go to ``missing``."""
        self.missing = []
        for name, modname, attr, work in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.missing.append(name)
                continue
            if "." in attr:
                cls_name, meth = attr.split(".", 1)
                cls = getattr(module, cls_name, None)
                raw = getattr(cls, "__dict__", {}).get(meth)
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, work))
                else:
                    new = self._wrap(name, raw, work)
                self._patch(cls, meth, new)
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, fn, work)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", None) or ""
                if mod_name != "hypermaps" and not mod_name.startswith("hypermaps."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, dict]:
        """Calls, self time and work units of every target.

        Targets the run never reached read 0; absent targets are left out.
        """
        out: dict[str, dict] = {}
        for name, _mod, _attr, work in TARGETS:
            if name in self.missing:
                continue
            calls, self_s, _incl, units = self.totals.get(name, [0, 0.0, 0.0, 0])
            out[f"{name}.calls"] = {"value": calls, "unit": "count"}
            out[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
            if work is not None:
                out[f"{name}.{work[0]}"] = {"value": units, "unit": work[0]}
        return out

    def inclusive_seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0, 0])[2]

    def work(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0, 0])[3]

    def dump(self) -> dict:
        return {
            "span_fields": list(SPAN_FIELDS),
            "spans": self.spans,
            "dropped": self.dropped,
            "missing": self.missing,
        }
