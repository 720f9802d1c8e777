"""In-memory CNF model: canonical clauses, duplicate suppression, layered forks."""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Sequence


class ClauseRangeError(ValueError):
    """A literal references a variable outside the visible range."""


def canonical_clause(literals: Iterable[int]) -> tuple[int, ...]:
    """Canonical form: duplicates removed, ascending |var|, negative first on polarity ties."""
    out = []
    seen = set()
    for lit in literals:
        if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
            raise ValueError(f"invalid literal: {lit!r}")
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    if not out:
        raise ValueError("empty clause")
    out.sort(key=lambda l: (abs(l), l > 0))
    return tuple(out)


class _Segment:
    """One append-only clause layer with positional dedup index."""

    __slots__ = ("clauses", "index")

    def __init__(self) -> None:
        self.clauses: list[tuple[int, ...]] = []
        self.index: dict[tuple[int, ...], int] = {}

    def add(self, clause: tuple[int, ...]) -> None:
        self.index[clause] = len(self.clauses)
        self.clauses.append(clause)


class _Family:
    """Serialization point and change counter shared by a store and all its forks."""

    __slots__ = ("lock", "version")

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.version = 0


class _Counter:
    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n


class _CnfView:
    """Common behavior of a base store and its fork views.

    A view is a chain of (segment, limit) pairs; ``limit=None`` means the
    segment is live (new entries become visible), an integer freezes the
    visible prefix. The last chain entry is the view's own writable layer.
    """

    def __init__(self, chain, counter: _Counter, family: _Family) -> None:
        self._chain: list[tuple[_Segment, int | None]] = chain
        self._counter = counter
        self._family = family

    @property
    def var_count(self) -> int:
        return self._counter.n

    @property
    def version(self) -> int:
        """Family-wide clause-change counter (cheap staleness probe)."""
        return self._family.version

    @property
    def family_lock(self) -> threading.RLock:
        return self._family.lock

    def add_variable(self) -> int:
        """Add one free variable, returning its index."""
        return self.add_variables(1)

    def add_variables(self, n: int) -> int:
        """Add ``n`` free variables, returning the first new index."""
        if n < 1:
            raise ValueError(f"variable count must be >= 1, got {n}")
        with self._family.lock:
            first = self._counter.n + 1
            self._counter.n += n
            return first

    def _check_range(self, clause: Sequence[int]) -> None:
        bound = self._counter.n
        for lit in clause:
            if abs(lit) > bound:
                raise ClauseRangeError(
                    f"literal {lit} out of range (var count {bound})"
                )

    def contains_clause(self, clause: tuple[int, ...]) -> bool:
        with self._family.lock:
            return self._visible(clause)

    def _visible(self, clause: tuple[int, ...]) -> bool:
        for seg, limit in self._chain:
            pos = seg.index.get(clause)
            if pos is not None and (limit is None or pos < limit):
                return True
        return False

    def _locally_stored(self, clause: tuple[int, ...]) -> bool:
        """Whether the view's own writable layer holds the clause."""
        return clause in self._chain[-1][0].index

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Canonicalize and store a clause; returns False if already visible."""
        return self._add_canonical(canonical_clause(literals))

    def _add_canonical(self, clause: tuple[int, ...]) -> bool:
        """``add_clause`` for a clause already in ``canonical_clause`` form."""
        with self._family.lock:
            self._check_range(clause)
            if self._visible(clause):
                return False
            self._chain[-1][0].add(clause)
            self._family.version += 1
            return True

    def iter_clauses(self) -> Iterator[tuple[int, ...]]:
        """Visible clauses in insertion order, base layer first; call under family_lock
        or on a quiescent view."""
        if len(self._chain) == 1:  # a base store: one live layer, no duplicates
            yield from self._chain[0][0].clauses
            return
        seen = set()
        for seg, limit in self._chain:
            body = seg.clauses if limit is None else seg.clauses[:limit]
            for clause in body:
                if clause not in seen:
                    seen.add(clause)
                    yield clause

    def clauses(self) -> list[list[int]]:
        """All visible clauses, canonical, insertion order with base layer first."""
        with self._family.lock:
            return [list(c) for c in self.iter_clauses()]

    def clause_tuples(self) -> list[tuple[int, ...]]:
        with self._family.lock:
            return list(self.iter_clauses())

    def clauses_since(self, cursor: tuple[int, ...] = ()) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
        """Clauses appended since ``cursor`` and the cursor to pass next time.

        The cursor holds each layer's visible length, so a call reads only
        the new clauses. ``()`` reads every visible clause. Unlike
        ``iter_clauses`` there is no dedup across layers: a clause that an
        attached origin gains after the fork already held it comes back again.
        """
        with self._family.lock:
            fresh: list[tuple[int, ...]] = []
            ends = []
            for i, (seg, limit) in enumerate(self._chain):
                end = len(seg.clauses) if limit is None else limit
                start = cursor[i] if i < len(cursor) else 0
                fresh.extend(seg.clauses[start:end])
                ends.append(end)
            return fresh, tuple(ends)

    def fork(self, detach: bool = False) -> "ForkView":
        """New layered view over this one; detached forks freeze the current state."""
        with self._family.lock:
            if detach:
                chain = [
                    (seg, len(seg.clauses) if limit is None else limit)
                    for seg, limit in self._chain
                ]
                counter = _Counter(self._counter.n)
            else:
                chain = list(self._chain)
                counter = self._counter
            chain.append((_Segment(), None))
            return ForkView(chain, counter, self._family, origin=self, detached=detach)

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        """True iff every visible clause has a satisfied literal."""
        with self._family.lock:
            if len(assignment) != self._counter.n:
                raise ValueError(
                    f"assignment length {len(assignment)} != var count {self._counter.n}"
                )
            for clause in self.iter_clauses():
                if not any(
                    assignment[lit - 1] if lit > 0 else not assignment[-lit - 1]
                    for lit in clause
                ):
                    return False
            return True


class CnfStore(_CnfView):
    """Base SAT memory: a monotone variable counter plus one clause layer."""

    def __init__(self, var_count: int = 0) -> None:
        if var_count < 0:
            raise ValueError(f"initial variable count must be >= 0, got {var_count}")
        super().__init__([(_Segment(), None)], _Counter(var_count), _Family())

    def _extend_canonical(self, clauses: list[tuple[int, ...]]) -> None:
        """Append clauses that are canonical, distinct, in range and not yet
        stored (a hub snapshot), without checking any of that."""
        with self._family.lock:
            seg = self._chain[0][0]
            start = len(seg.clauses)
            seg.clauses.extend(clauses)
            seg.index.update(zip(clauses, range(start, len(seg.clauses))))
            self._family.version += len(clauses)


class ForkView(_CnfView):
    """Writable overlay on an origin view.

    Attached forks mirror the origin's variables and see its clause updates;
    detached forks freeze the origin's state at fork time. Writes through a
    fork never reach the origin.
    """

    def __init__(self, chain, counter, family, origin: _CnfView, detached: bool) -> None:
        super().__init__(chain, counter, family)
        self.origin = origin
        self.detached = detached
