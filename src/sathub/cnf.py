"""In-memory CNF model: canonical clauses and a flat, duplicate-free store."""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Sequence


class ClauseRangeError(ValueError):
    """A literal references a variable outside the visible range, or a
    variable count would pass ``wire.MAX_VARIABLE``."""


def canonical_clause(literals: Iterable[int]) -> tuple[int, ...]:
    """Canonical form: duplicates removed, ascending |var|, negative first on polarity ties."""
    clause = tuple(literals)
    last = 0
    for lit in clause:
        if type(lit) is not int:
            break
        magnitude = lit if lit > 0 else -lit
        if magnitude <= last:
            break
        last = magnitude
    else:
        if last:
            return clause  # already canonical: ints of strictly rising magnitude
    out = []
    seen = set()
    for lit in clause:
        if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
            raise ValueError(f"invalid literal: {lit!r}")
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    if not out:
        raise ValueError("empty clause")
    out.sort(key=lambda l: (abs(l), l > 0))
    return tuple(out)


def canonical_outcomes(batch: Iterable[Iterable[int]]) -> list:
    """Each clause's ``canonical_clause`` form, or the ``ValueError`` it raised."""
    outcomes: list = []
    for literals in batch:
        try:
            outcomes.append(canonical_clause(literals))
        except ValueError as exc:
            outcomes.append(exc)
    return outcomes


def raise_first_error(outcomes: list) -> list:
    """``outcomes`` of a batch intake, unless one is an error: then raise the first."""
    for outcome in outcomes:
        if isinstance(outcome, ValueError):
            raise outcome
    return outcomes


class CnfStore:
    """One SAT memory: a monotone variable count and an append-only list of
    distinct canonical clauses, guarded by its own lock.

    Every memory (this store, a hub ``MemoryObject``, a ``MemoryMirror``)
    has one protocol, and solvers and builders use only it: ``var_count``;
    ``clauses_since(cursor)``, the clauses since a clause-count cursor and
    the next cursor; ``alive``, False once the memory is deleted or lost;
    ``reserve_variables(n) -> first``; and ``add_clauses(batch) ->
    outcomes``, one per clause, as this store's ``add_clauses`` gives them.
    """

    alive = True

    def __init__(self, var_count: int = 0) -> None:
        if var_count < 0:
            raise ValueError(f"initial variable count must be >= 0, got {var_count}")
        self.var_count = var_count
        self.lock = threading.RLock()
        self._clauses: list[tuple[int, ...]] = []
        self._seen: set[tuple[int, ...]] = set()

    @property
    def version(self) -> int:
        """The clause count: it changes exactly when a clause is added."""
        return len(self._clauses)

    def reserve_variables(self, n: int) -> int:
        """Add ``n`` free variables, returning the first new index."""
        if n < 1:
            raise ValueError(f"variable count must be >= 1, got {n}")
        with self.lock:
            first = self.var_count + 1
            self.var_count += n
            return first

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Canonicalize and store a clause; returns False if already stored."""
        return raise_first_error(self.add_clauses([literals]))[0]

    def add_clauses(self, batch: Iterable[Iterable[int]]) -> list:
        """Canonicalize clauses, outside the lock, and store them in order in
        one lock section.

        Returns one outcome per clause, as a loop of ``add_clause`` would
        meet them: True if stored now, False if already held (earlier in the
        batch too), or the ``ValueError`` (``ClauseRangeError`` out of range)
        that refused it; a refused clause does not stop the ones after it.
        """
        outcomes = canonical_outcomes(batch)
        self._add_canonical(outcomes)
        return outcomes

    def _add_canonical(
        self, outcomes: list, stop_at_refusal: bool = False
    ) -> list[tuple[int, ...]]:
        """The locked section of ``add_clauses``: replace each clause of
        ``outcomes`` in ``canonical_clause`` form by its outcome, skipping
        the errors already there; returns the clauses stored now, in order.
        With ``stop_at_refusal``, the first error ends the pass and the
        clauses after it stay unstored, in canonical form."""
        fresh = []
        with self.lock:
            bound = self.var_count
            seen = self._seen
            for i, clause in enumerate(outcomes):
                if type(clause) is not tuple:
                    if stop_at_refusal:
                        break
                    continue
                if abs(clause[-1]) > bound:  # a canonical clause ends with its largest variable
                    lit = next(lit for lit in clause if abs(lit) > bound)
                    outcomes[i] = ClauseRangeError(
                        f"literal {lit} out of range (var count {bound})"
                    )
                    if stop_at_refusal:
                        break
                elif clause in seen:
                    outcomes[i] = False
                else:
                    seen.add(clause)
                    fresh.append(clause)
                    outcomes[i] = True
            self._clauses += fresh
        return fresh

    def _extend_canonical(self, clauses: list[tuple[int, ...]]) -> None:
        """Append clauses that are canonical, distinct, in range and not yet
        stored (a snapshot or a copy), without checking any of that."""
        with self.lock:
            self._clauses.extend(clauses)
            self._seen.update(clauses)

    def iter_clauses(self) -> Iterator[tuple[int, ...]]:
        """Clauses in insertion order; call under ``lock`` or on a quiescent store."""
        return iter(self._clauses)

    def clauses(self) -> list[list[int]]:
        """All clauses, canonical, in insertion order."""
        with self.lock:
            return [list(c) for c in self._clauses]

    def clause_tuples(self) -> list[tuple[int, ...]]:
        with self.lock:
            return list(self._clauses)

    def clauses_since(self, cursor: int = 0) -> tuple[list[tuple[int, ...]], int]:
        """Clauses appended since ``cursor`` and the cursor to pass next time.

        The cursor is a clause count, so a call reads only the new clauses;
        ``0`` reads them all.
        """
        with self.lock:
            return self._clauses[cursor:], len(self._clauses)

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        """True iff every clause has a satisfied literal."""
        with self.lock:
            if len(assignment) != self.var_count:
                raise ValueError(
                    f"assignment length {len(assignment)} != var count {self.var_count}"
                )
            for clause in self._clauses:
                if not any(
                    assignment[lit - 1] if lit > 0 else not assignment[-lit - 1]
                    for lit in clause
                ):
                    return False
            return True
