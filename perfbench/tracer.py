"""Outside-in span tracer for the benchmark's traced run.

Functions are wrapped at the module or class attribute their callers look
up at call time, so nothing under ``src/`` changes. A span records its name,
op id, parent span, start and end. Calls marked ``leaf`` (the per-sample
functions, tens of thousands per season) are not kept one by one: they are
summed into one record per (parent span, name) holding the call count and
total time, which keeps the trace small enough to hold in memory. A leaf must
not call another wrapped function.

A span's self time is its duration minus the time of its direct children, so
the self times of one op sum to the op's duration.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.leaves: dict[tuple[int, str], dict] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def op(self, op_id, name: str = "op"):
        """Root span of one op; wrapped calls outside any op are not traced."""
        rec = {"id": len(self.spans), "op": op_id, "parent": None,
               "name": name, "start": perf_counter(), "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, leaf: bool = False,
             counts=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        ``counts(args, result)`` returns a dict of counts recorded with the
        span. A missing attribute is noted in ``missing`` and skipped, so the
        metrics built on it read as absent.
        """
        raw = vars(owner).get(attr)
        if raw is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        fn = getattr(owner, attr)
        make = self._leaf_wrapper if leaf else self._span_wrapper
        wrapper = functools.wraps(fn)(make(fn, name, counts))
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = staticmethod(wrapper)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _span_wrapper(self, fn, name, counts):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = spans[stack[-1]]
            rec = {"id": len(spans), "op": parent["op"],
                   "parent": parent["id"], "name": name,
                   "start": perf_counter()}
            spans.append(rec)
            stack.append(rec["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = perf_counter()
                stack.pop()
            rec["counts"] = counts(args, result) if counts else {}
            return result
        return traced

    def _leaf_wrapper(self, fn, name, counts):
        stack, spans, leaves = self._stack, self.spans, self.leaves

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - t0
            key = (stack[-1], name)
            rec = leaves.get(key)
            if rec is None:
                rec = leaves[key] = {"op": spans[stack[-1]]["op"],
                                     "parent": stack[-1], "name": name,
                                     "calls": 0, "total_s": 0.0,
                                     "counts": {}}
            rec["calls"] += 1
            rec["total_s"] += elapsed
            if counts:
                c = rec["counts"]
                for k, v in counts(args, result).items():
                    c[k] = c.get(k, 0) + v
            return result
        return traced

    def summaries(self) -> dict:
        """Per op id: its duration and, per span name, self time, calls and
        summed counts."""
        child_s = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        for leaf in self.leaves.values():
            child_s[leaf["parent"]] += leaf["total_s"]

        ops = {}

        def add(op_id, name, self_s, calls, counts):
            d = ops.setdefault(op_id, OpSummary())
            d.self_s[name] += self_s
            d.calls[name] += calls
            for k, v in counts.items():
                d.counts[name, k] += v

        for s in self.spans:
            duration = s["end"] - s["start"]
            add(s["op"], s["name"], duration - child_s[s["id"]], 1,
                s["counts"])
            if s["parent"] is None:
                ops[s["op"]].op_s = duration
        for leaf in self.leaves.values():
            add(leaf["op"], leaf["name"], leaf["total_s"], leaf["calls"],
                leaf["counts"])
        return ops

    def write(self, path) -> None:
        """Write every span and leaf record as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"kind": "span", **s}) + "\n")
            for leaf in self.leaves.values():
                fh.write(json.dumps({"kind": "leaf", **leaf}) + "\n")


class OpSummary:
    """Self time, calls and counts of one op, keyed by span name."""

    def __init__(self):
        self.op_s = 0.0
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def self_time(self, name):
        return self.self_s[name] if name in self.calls else None

    def call_count(self, name):
        return self.calls[name] if name in self.calls else None

    def count(self, name, key):
        return self.counts[name, key] if name in self.calls else None

    def self_sum_error(self) -> float:
        return abs(sum(self.self_s.values()) - self.op_s)
