"""Host-time attribution by layer, from outside the program.

:class:`LayerClock` wraps the public functions of each engine layer in
place (every module global bound to the function, or the class
attribute for a method), so calls made by the program's own code are
timed without changing a line under ``src/``.  Each wrapped call records
its duration; a layer's *self* time is the duration of its calls minus
the time of wrapped calls nested inside them.  Time spent while no
wrapped call is active is summed separately as ``unattributed``, so

    sum(self times) + unattributed == wall time of the traced region

holds if every wrapped call was accounted exactly once.
:meth:`LayerClock.layer_sum_gap` measures the gap against a wall time
the caller read with its own clock around the traced region.

The simulated machine runs its virtual processors one after another on
the calling thread, so one call stack is enough; a call arriving from
another thread is counted in ``foreign_calls`` and fails the check.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute or Class.method, layer).  Several functions may
#: share a layer: both searchers are ``rectangles.search``.
ENGINE_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.algebra.kernels", "kernels", "algebra.kernels"),
    ("repro.rectangles.kcmatrix", "build_kc_matrix", "rectangles.kcmatrix"),
    ("repro.rectangles.bitview", "BitKCView.__init__", "rectangles.bitview"),
    ("repro.rectangles.bitview", "BitKCView.signature", "rectangles.memo"),
    ("repro.rectangles.search", "best_rectangle_exhaustive", "rectangles.search"),
    ("repro.rectangles.pingpong", "best_rectangle_pingpong", "rectangles.search"),
    ("repro.rectangles.cover", "apply_rectangle", "rectangles.cover"),
    ("repro.parallel.lshaped", "build_lshaped_matrices", "parallel.lshaped"),
    ("repro.parallel.common", "partition_network_nodes", "partition"),
)

#: Relative tolerance of the layer-sum check (of traced wall time).
LAYER_SUM_TOLERANCE = 0.01


class LayerClock:
    """Self-time accounting for wrapped layer functions.

    Use as a context manager around each traced call: entering installs
    the wrappers, leaving restores the originals, and the totals add up
    over every use.  Per-layer results are in :attr:`self_s` and
    :attr:`calls`; :attr:`counters` holds the entries of the KC matrices
    ``build_kc_matrix`` returned.
    """

    def __init__(self, layers=ENGINE_LAYERS) -> None:
        self.layers = layers
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        self.unattributed_s = 0.0
        self.foreign_calls = 0
        # Each frame: [layer, start, time of wrapped children].
        self._stack: List[list] = []
        self._idle_since: Optional[float] = None
        self._thread: Optional[int] = None
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------
    def __enter__(self) -> "LayerClock":
        for module, attr, layer in self.layers:
            self._install(module, attr, layer)
        self._thread = threading.get_ident()
        self._idle_since = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        if not self._stack and self._idle_since is not None:
            self.unattributed_s += end - self._idle_since
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _install(self, module: str, attr: str, layer: str) -> None:
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[meth]
            self._restore.append((owner, meth, original))
            setattr(owner, meth, self._wrap(layer, original))
            return
        original = getattr(mod, attr)
        wrapper = self._wrap(layer, original)
        # Rebind every module-level alias (``from x import f`` copies).
        for name, m in list(sys.modules.items()):
            if m is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    self._restore.append((m, key, original))
                    setattr(m, key, wrapper)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        counts_entries = layer == "rectangles.kcmatrix"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                self.foreign_calls += 1
                return fn(*args, **kwargs)
            start = time.perf_counter()
            if not stack:
                self.unattributed_s += start - self._idle_since
            frame = [layer, start, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.self_s[layer] += duration - frame[2]
                self.calls[layer] += 1
                if stack:
                    stack[-1][2] += duration
                else:
                    self._idle_since = end
            if counts_entries:
                self.counters["rectangles.kcmatrix.entries"] += len(result.entries)
            return result

        return wrapper

    # -- results --------------------------------------------------------
    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    def layer_sum_gap(self, wall_s: float) -> float:
        """|Σ self + unattributed − *wall_s*| as a share of *wall_s*."""
        total = self.attributed_s() + self.unattributed_s
        return abs(total - wall_s) / wall_s if wall_s > 0 else 0.0

    def layer_sum_ok(self, wall_s: float) -> bool:
        return self.foreign_calls == 0 and self.layer_sum_gap(wall_s) <= LAYER_SUM_TOLERANCE

    def report(self, wall_s: float) -> Dict[str, Any]:
        """JSON-ready results, checked against *wall_s*."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "unattributed_s": self.unattributed_s,
            "wall_s": wall_s,
            "layer_sum_gap": self.layer_sum_gap(wall_s),
            "layer_sum_ok": self.layer_sum_ok(wall_s),
        }

