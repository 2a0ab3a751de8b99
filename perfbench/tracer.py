"""In-memory span tracer that wraps the program's public methods from outside.

Only the traced run installs it. Each wrapped call records one span
``[name, start, end, parent, request, counts]``: ``parent`` is the index of
the enclosing span (or ``None``), ``request`` is whatever the benchmark set
as the current request id, and ``counts`` holds work counted at the same
boundary (rows run through the model, keys probed and found in ``T_aux``).
A layer's self time is its span's duration minus the durations of its
direct children; calls run on one thread, so children never overlap.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable

NAME, START, END, PARENT, REQUEST, COUNTS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: Any = None
        self.enabled = True
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    # -- installation -------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: Callable[[tuple, Any], dict] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a function, method or staticmethod) with a
        recording wrapper; :meth:`restore` puts the original back."""
        raw = owner.__dict__[attr]
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx][COUNTS] = count(args, out)
            return out

        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- analysis -------------------------------------------------------------
    def self_times(self, requests: set) -> dict[str, float]:
        """Seconds of self time per span name, over spans of ``requests``."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s[REQUEST] in requests:
                out[s[NAME]] += s[END] - s[START] - child[i]
        return out

    def durations(self, name: str, requests: set) -> list[float]:
        return [
            s[END] - s[START] for s in self.spans if s[NAME] == name and s[REQUEST] in requests
        ]

    def counts(self, name: str, requests: set) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            if s[NAME] == name and s[REQUEST] in requests and s[COUNTS]:
                for k, v in s[COUNTS].items():
                    out[k] += int(v)
        return out

    def under(self, ancestor: str, exclude: str) -> list[int]:
        """Indices of spans that have an ``ancestor`` span above them and no
        ``exclude`` span between them and it."""
        out = []
        for i, s in enumerate(self.spans):
            p = s[PARENT]
            while p is not None and self.spans[p][NAME] not in (ancestor, exclude):
                p = self.spans[p][PARENT]
            if p is not None and self.spans[p][NAME] == ancestor:
                out.append(i)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(
                    {"name": s[NAME], "start": s[START], "end": s[END],
                     "parent": s[PARENT], "request": s[REQUEST], "counts": s[COUNTS]}
                ) + "\n")
