"""Layer spans for the traced benchmark run.

covgame itself is not instrumented. For the traced run the tracer
replaces every public function of a covgame layer module, in every
covgame module namespace that binds it (the package, the defining
module, and each module that imported it by name), with a wrapper that
records a span: name, start, end and the span that was open when it
started. `uninstall` puts the originals back.

A span's self time is its duration minus the part covered by its child
spans; a layer's self time is the sum over its spans. Time that no span
covers belongs to the benchmark itself.
"""

from __future__ import annotations

import gc
import importlib
import time
import types

LAYERS = ("cli", "formats", "model", "graph_cover", "game_cover", "oracle", "reductions")


class Tracer:
    def __init__(self, hooks: dict | None = None):
        # span = [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.hooks = hooks or {}
        self.gc_collections = 0
        self.gc_s = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start: float | None = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"covgame.{name}") for name in LAYERS}
        layer_of = {f"covgame.{name}": name for name in LAYERS}
        wrappers: dict = {}
        for ns in [importlib.import_module("covgame"), *modules.values()]:
            for attr, value in list(vars(ns).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                layer = layer_of.get(value.__module__)
                if layer is None:
                    continue
                wrapper = wrappers.get(value)
                if wrapper is None:
                    wrapper = wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                self._patched.append((ns, attr, value))
                setattr(ns, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()
        gc.callbacks.remove(self._on_gc)

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                record[2] = clock()
                stack.pop()
                if hook is not None:
                    hook(args, kwargs, result, error)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- summaries ---------------------------------------------------------

    def outermost(self, names: set[str]) -> list[list]:
        """Spans named in `names` with no ancestor also named there, so a
        nested call of the same family is not counted twice."""
        out = []
        for rec in self.spans:
            parent = rec[3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if rec[0] in names and parent < 0:
                out.append(rec)
        return out

    def busy(self, *names: str) -> float:
        return sum(rec[2] - rec[1] for rec in self.outermost(set(names)))

    def calls(self, *names: str) -> int:
        return len(self.outermost(set(names)))

    def self_times(self) -> list[float]:
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def layer_self(self, wall: float) -> dict[str, float]:
        """Self time per layer, plus `bench`: the traced wall time that no
        top-level span covers (the benchmark's own loop and checks)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for rec, own in zip(self.spans, self.self_times()):
            out[rec[0].split(".", 1)[0]] += own
        top = sum(rec[2] - rec[1] for rec in self.spans if rec[3] < 0)
        out["bench"] = wall - top
        return out
