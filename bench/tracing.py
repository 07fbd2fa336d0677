"""In-memory spans around the package's public functions.

A Tracer wraps named functions of `scmfpga` modules from outside the
package: every module attribute bound to the original function object is
replaced, so a name imported with `from .linalg import least_squares` is
wrapped where it is used, not only where it is defined. Spans are kept as
(name, start, end, parent) in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets: list[str]):
        """Wrap each 'module.function' (relative to scmfpga) for the block."""
        undo = []
        try:
            for qual in targets:
                mod_name, fn_name = qual.rsplit(".", 1)
                # the package attribute `scmfpga.train` is the function, so
                # modules are reached through import_module, never getattr
                orig = getattr(importlib.import_module(f"scmfpga.{mod_name}"), fn_name)
                wrapper = self._wrap(qual, orig)
                for name, mod in list(sys.modules.items()):
                    if name != "scmfpga" and not name.startswith("scmfpga."):
                        continue
                    for attr in [a for a, v in vars(mod).items() if v is orig]:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(undo):
                setattr(mod, attr, orig)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (total self seconds, call count).

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name][0] += end - start - child[i]
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def call_cost_s(self, calls: int = 20_000, repeats: int = 5) -> float:
        """Seconds the wrapper adds to one call.

        Timed on a function that does nothing, wrapped by a separate Tracer,
        as the least over `repeats` loops of `calls` calls each.
        """
        def noop():
            return None

        wrapped = Tracer()._wrap("noop", noop)
        cost = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            cost.append((time.perf_counter() - t1 - (t1 - t0)) / calls)
        return max(min(cost), 0.0)

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p}
            for n, s, e, p in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n")
