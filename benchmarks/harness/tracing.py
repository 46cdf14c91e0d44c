"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps each layer's public entry points (the table
lives in ``adapters.py``) and keeps, per wrap point, the call count, the
total time and the *self* time: a span's duration minus the part of it
covered by child spans.  Self times of nested spans partition the
outermost span exactly, which is what lets the per-layer table add up
to the wall clock with an explicit ``unattributed_s`` remainder.

Spans are folded into per-point totals as they close instead of being
kept as records — a traced ``benign_wire`` run closes about 700k of
them — but the arithmetic is the span-tree one and test_harness.py
checks it on a synthetic tree.

Worker processes forked by ``multiprocessing`` while a tracer is
installed (the fleet's) inherit the wrappers; each such child starts
from empty totals and writes them to ``dump_dir`` when it exits, and
:meth:`LayerTracer.worker_dumps` reads them back.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

__all__ = ["LayerTracer", "Tally", "layer_table"]

_MISSING = object()


class Tally(defaultdict):
    """Hook-side counts, plus the ring-wait bookkeeping two hooks share."""

    def __init__(self) -> None:
        super().__init__(float)
        self.ring_in: dict[int, float] = {}
        self.ring_waits: list[float] = []


class LayerTracer:
    def __init__(self, clock=perf_counter,
                 dump_dir: str | os.PathLike | None = None) -> None:
        self._clock = clock
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.recording = False
        #: open spans, innermost last; each entry is [child seconds]
        self._stack: list[list[float]] = []
        #: point -> [calls, self seconds, total seconds]
        self.points: dict[str, list] = {}
        self.layer_of: dict[str, str] = {}
        self.tally = Tally()
        self._patched: list[tuple] = []

    # -- span arithmetic ------------------------------------------------------

    def wrap(self, layer: str, point: str, fn, hook=None):
        """``fn`` wrapped as one span per call, attributed to ``point``."""
        acc = self.points.setdefault(point, [0, 0.0, 0.0])
        self.layer_of[point] = layer
        stack, clock, tally = self._stack, self._clock, self.tally

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                acc[0] += 1
                acc[1] += duration - frame[0]
                acc[2] += duration
                if stack:
                    stack[-1][0] += duration
            if hook is not None:
                hook(tally, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", point)
        traced.__qualname__ = getattr(fn, "__qualname__", point)
        traced.__module__ = getattr(fn, "__module__", None)
        return traced

    def reset(self) -> None:
        del self._stack[:]
        for acc in self.points.values():
            acc[:] = [0, 0.0, 0.0]
        self.tally.clear()
        self.tally.ring_in.clear()
        del self.tally.ring_waits[:]

    # -- installing and removing the wrappers ---------------------------------

    def install(self, points) -> None:
        """Patch every ``(layer, point, owners, attr, hook)``."""
        for layer, point, owners, attr, hook in points:
            for owner in owners:
                raw = vars(owner).get(attr, _MISSING)
                target = raw if raw is not _MISSING else getattr(owner, attr)
                if isinstance(target, (classmethod, staticmethod)):
                    wrapped = type(target)(
                        self.wrap(layer, point, target.__func__, hook))
                else:
                    wrapped = self.wrap(layer, point, target, hook)
                setattr(owner, attr, wrapped)
                self._patched.append((owner, attr, raw))
        if self.dump_dir is not None:
            # Held weakly by multiprocessing: gone when this tracer is.
            mp_util.register_after_fork(self, LayerTracer._in_worker)

    def _in_worker(self) -> None:
        """Runs in a freshly forked multiprocessing child."""
        if self._patched:
            self.reset()
            self.recording = True
            mp_util.Finalize(None, self.dump, exitpriority=0)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._patched.clear()
        self.recording = False

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"points": {p: list(acc) for p, acc in self.points.items()},
                "layer_of": dict(self.layer_of),
                "tally": dict(self.tally),
                "ring_waits": list(self.tally.ring_waits)}

    def dump(self) -> None:
        """Worker-process exit hook: persist this process's totals."""
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = self.dump_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(self.snapshot()))

    def worker_dumps(self) -> list[dict]:
        if self.dump_dir is None or not self.dump_dir.is_dir():
            return []
        return [json.loads(path.read_text())
                for path in sorted(self.dump_dir.glob("worker-*.json"))]


def layer_table(snapshots: list[dict], layers, wall_s: float) -> dict:
    """Fold point totals into ``<layer>.calls`` / ``<layer>.self_s`` rows.

    ``snapshots[0]`` is the process whose wall clock ``wall_s`` is; only
    its self times enter ``unattributed_s`` (worker processes run
    beside it, so their seconds are CPU-side totals, not wall).
    """
    rows = {}
    for layer in layers:
        rows[f"{layer}.calls"] = 0
        rows[f"{layer}.self_s"] = 0.0
    attributed = 0.0
    for i, snap in enumerate(snapshots):
        for point, (calls, self_s, _total) in snap["points"].items():
            layer = snap["layer_of"][point]
            rows[f"{layer}.calls"] += calls
            rows[f"{layer}.self_s"] += self_s
            if i == 0:
                attributed += self_s
    rows["unattributed_s"] = wall_s - attributed
    return rows
