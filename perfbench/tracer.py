#!/usr/bin/env python3
"""Run the xlpack CLI with timing wrappers around each layer's public calls.

    python3 perfbench/tracer.py TRACE_OUT.json -- all --config cfg.json ...

Before the CLI starts, every target named in `layers.TARGETS` is replaced by
a wrapper that records a span: its name, its parent span, and its duration.
Generator functions are timed per `next()`, so a lazily consumed stream is
charged to the stream, not to its consumer. A target that no longer exists
is listed under "missing" and its metrics come out absent.

Spans are kept in memory and written to TRACE_OUT.json when the CLI returns:
aggregates per (span, parent) for every wrapper, plus individual spans with
parent links for the coarse ones. The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import layers

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        # frame: [name, start, child_s, detail_index]
        self.stack: list[list] = []
        # (name, parent) -> [calls, steps, items, total_s, self_s, units]
        self.agg: dict[tuple[str, str | None], list] = {}
        self.spans: list[dict] = []
        self.installed: list[str] = []
        self.missing: list[str] = []

    def _slot(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        slot = self.agg.get((name, parent))
        if slot is None:
            slot = self.agg[(name, parent)] = [0, 0, 0, 0.0, 0.0, 0]
        return slot

    def _push(self, name: str, detail: bool) -> list:
        index = None
        if detail:
            index = len(self.spans)
            parent = self.stack[-1][3] if self.stack else None
            self.spans.append({"id": index, "parent": parent, "name": name})
        frame = [name, _clock(), 0.0, index]
        self.stack.append(frame)
        return frame

    def _pop(self, frame: list, slot: list) -> None:
        end = _clock()
        self.stack.pop()
        duration = end - frame[1]
        slot[3] += duration
        slot[4] += duration - frame[2]
        if self.stack:
            self.stack[-1][2] += duration
        if frame[3] is not None:
            self.spans[frame[3]].update(start=frame[1], end=end)

    def wrap_call(self, fn, name: str, detail: bool, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            slot = self._slot(name)
            slot[0] += 1
            frame = self._push(name, detail)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(frame, slot)
            if counter is not None:
                slot[5] += counter(args, result)
            return result

        return wrapper

    def wrap_gen(self, fn, name: str, detail: bool, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            slot = self._slot(name)
            slot[0] += 1
            if counter is not None:
                slot[5] += counter(args, None)
            return self._steps(fn(*args, **kwargs), name, slot, detail)

        return wrapper

    def _steps(self, gen, name: str, created: list, detail: bool):
        it = iter(gen)
        while True:
            slot = self._slot(name)
            frame = self._push(name, detail)
            try:
                item = next(it)
            except StopIteration:
                self._pop(frame, slot)
                slot[1] += 1
                return
            except BaseException:
                self._pop(frame, slot)
                raise
            self._pop(frame, slot)
            slot[1] += 1
            created[2] += 1
            yield item

    def install(self, targets) -> None:
        for target in targets:
            owner, attr = _resolve(target.path)
            if owner is None:
                self.missing.append(target.path)
                continue
            raw = inspect.getattr_static(owner, attr)
            wrap = self.wrap_gen if target.kind == "gen" else self.wrap_call
            if isinstance(raw, classmethod):
                patched = classmethod(wrap(raw.__func__, target.span, target.detail,
                                           target.counter))
            else:
                patched = wrap(getattr(owner, attr), target.span, target.detail, target.counter)
            setattr(owner, attr, patched)
            self.installed.append(target.path)

    def dump(self, path: str) -> None:
        data = {
            "installed": self.installed,
            "missing": self.missing,
            "aggregates": [
                {"name": name, "parent": parent, "calls": s[0], "steps": s[1], "items": s[2],
                 "total_s": s[3], "self_s": s[4], "units": s[5]}
                for (name, parent), s in sorted(self.agg.items(), key=lambda kv: str(kv[0]))
            ],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f)


def _resolve(path: str):
    """'pkg.module:Class.attr' -> (owner object, attribute name), or (None, None)."""
    module_name, _, qualname = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, attr):
        return None, None
    return owner, attr


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    from xlpack.cli import run

    try:
        return run(argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
