"""In-memory spans recorded around the calls into each sathub layer.

A span is (name, start, end, parent, request id); the layer is the part of
the name before the first dot. Calls made once per clause are not given a
span each: ``TracedMemory`` sums their time and count into one span under
the caller, so self times still add up.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._request = 0

    def new_request(self) -> None:
        self._request += 1

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "request": self._request,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add_aggregate(self, name: str, start: float, total_s: float, count: int) -> None:
        """One span standing for ``count`` calls that together took ``total_s``."""
        self.spans.append(
            {
                "name": name,
                "start": start,
                "end": start + total_s,
                "parent": self._stack[-1] if self._stack else None,
                "request": self._request,
                "count": count,
            }
        )

    def wrap(self, name_of, func):
        """``func`` with a span around each call; ``name_of(*args)`` names the span."""

        def traced(*args, **kwargs):
            with self.span(name_of(*args)):
                return func(*args, **kwargs)

        return traced

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer: each span's duration minus its children's."""
        children: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s["name"].split(".", 1)[0]] += (s["end"] - s["start"]) - children[i]
        return dict(out)


class TracedMemory:
    """Stands in for a mirror during ``build_factorization``: a span per
    ``reserve_variables`` call, and the ``add_clause_direct`` calls summed
    into one span by ``record``."""

    def __init__(self, mirror, tracer: Tracer) -> None:
        self._mirror = mirror
        self._tracer = tracer
        self._calls = 0
        self._total_s = 0.0
        self._first = 0.0
        self.reserve_variables = tracer.wrap(lambda n: "client.reserve_variables", mirror.reserve_variables)

    @property
    def var_count(self) -> int:
        return self._mirror.var_count

    def add_clause_direct(self, literals) -> bool:
        start = time.perf_counter()
        try:
            return self._mirror.add_clause_direct(literals)
        finally:
            if not self._calls:
                self._first = start
            self._total_s += time.perf_counter() - start
            self._calls += 1

    def record(self) -> None:
        if self._calls:
            self._tracer.add_aggregate("client.add_clause_direct", self._first, self._total_s, self._calls)
