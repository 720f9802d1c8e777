"""Gate-level CNF circuit builder with constant folding and literal reuse.

Every gate is a fresh variable tied to its inputs by a full equivalence
(truth-table clauses), so gate values are functionally determined by the
circuit inputs. Structurally identical gates share one output literal.
There is one AND gate; OR is its De Morgan dual over negated edges, as in
an And-Inverter Graph, so OR(a, b) and AND(-a, -b) share one variable.
One constant variable, pinned true, gives both constants.
"""

from __future__ import annotations

from typing import Iterable

from .cnf import ClauseRangeError, raise_first_error
from .exprs import AND, CONST, EQUIV, IMPL, MAJ3, NOT, OR, VAR, XOR, ExprNode


class CircuitBuilder:
    """Builds Tseitin-style gates over a SAT memory view or mirror, then
    writes them in one go at ``finalize``.

    The gates are AND (``and_many``), XOR and MAJ3; every other connective
    is one of them with negated inputs or output.

    A build does not touch the memory until ``finalize``. Variables
    ``1..base`` (the memory's count when the builder is made) are the
    inputs; gate variables are numbered ``base + 1, base + 2, ...`` from a
    local counter, and clauses wait in a list. ``finalize`` reserves every
    gate variable in one ``reserve_variables`` call (one ``ADD_VARS`` round
    trip on a mirror), renumbers the gates if another writer grew the
    memory meanwhile, and then writes the clauses in one ``add_clauses``
    call (one write of frames on a mirror). So a build that raises before
    ``finalize`` writes nothing, and a build through a mirror writes
    exactly the instance a local build writes. An ``alloc_chunk`` above 1
    rounds the reservation up to a multiple of itself and pins the extra
    variables false; only the benchmark passes one, and it goes with the
    benchmark change of ROADMAP item 0.

    The gates queue each clause canonical (``canonical_clause`` returns it
    as it is): literals in ascending variable order, the gate literal last.
    A gate variable is larger than its inputs, and renumbering shifts every
    gate by the same amount, so the order holds after it too.
    """

    def __init__(self, memory, alloc_chunk: int | None = 1) -> None:
        self._memory = memory
        self._chunk = max(1, alloc_chunk or 1)  # None, like 1, reserves exactly
        self.base = memory.var_count
        self._last = self.base  # the last gate variable numbered
        self._pending: list[list[int]] = []
        self._cache: dict[tuple, int] = {}
        self._true = 0  # the constant variable; 0, which is no literal, until first use
        self.vars_allocated = 0
        self.clauses_added = 0

    # -- allocation and output -------------------------------------------

    def fresh_var(self) -> int:
        self._last += 1
        self.vars_allocated += 1
        return self._last

    def add_clause(self, literals: list[int]) -> None:
        """Queue a clause for ``finalize``, which writes this very list then."""
        self._pending.append(literals)
        self.clauses_added += 1

    def finalize(self) -> list[list[int]]:
        """Write the build to the memory; returns the clauses written, in order.

        Gate literals handed out before a ``finalize`` that had to renumber
        them (because another writer grew the memory) are stale; the
        returned clauses and later gates use the new numbers. The builder
        may go on building after it, and the next ``finalize`` writes what
        was added since. A clause the memory refuses raises its error.
        """
        count = self._last - self.base
        if count:
            reserved = -(-count // self._chunk) * self._chunk
            first = self._memory.reserve_variables(reserved)
            if first != self.base + 1:
                self._renumber(first - self.base - 1)
            for var in range(first + count, first + reserved):
                self.add_clause([-var])
            self.base = self._last = first + reserved - 1
        clauses, self._pending = self._pending, []
        memory = self._memory
        if hasattr(memory, "add_clauses"):
            raise_first_error(memory.add_clauses(clauses))
        else:
            # the benchmark's traced mirror has only a one-clause intake; this
            # fallback goes with the benchmark change of ROADMAP item 0
            for clause in clauses:
                memory.add_clause_direct(clause)
        return clauses

    def _renumber(self, shift: int) -> None:
        """Move every gate variable queued since the last ``finalize`` up by ``shift``."""
        base = self.base

        def move(lit):
            if -base <= lit <= base:
                return lit
            return lit + shift if lit > 0 else lit - shift

        self._pending = [[move(lit) for lit in clause] for clause in self._pending]
        self._cache = {
            tuple(move(k) if isinstance(k, int) else k for k in key): move(gate)
            for key, gate in self._cache.items()
        }
        self._true = move(self._true)

    # -- constants ---------------------------------------------------------

    @property
    def true_lit(self) -> int:
        """The one constant variable, pinned true by a unit clause on first use."""
        if not self._true:
            self._true = self.fresh_var()
            self.add_clause([self._true])
        return self._true

    @property
    def false_lit(self) -> int:
        return -self.true_lit

    def const(self, value: bool) -> int:
        return self.true_lit if value else -self.true_lit

    def is_true(self, lit: int) -> bool:
        return lit == self._true

    def is_false(self, lit: int) -> bool:
        return lit == -self._true

    # -- gates -------------------------------------------------------------

    def and_(self, a: int, b: int) -> int:
        return self.and_many((a, b))

    def or_(self, a: int, b: int) -> int:
        return -self.and_many((-a, -b))

    def xor(self, a: int, b: int) -> int:
        if self.is_true(a):
            return -b
        if self.is_false(a):
            return b
        if self.is_true(b):
            return -a
        if self.is_false(b):
            return a
        if a == b:
            return self.false_lit
        if a == -b:
            return self.true_lit
        # xor(-a, b) == -xor(a, b): cache one gate per variable pair
        parity = (a < 0) != (b < 0)
        x, y = sorted((abs(a), abs(b)))
        key = ("xor", x, y)
        gate = self._cache.get(key)
        if gate is None:
            gate = self.fresh_var()
            self.add_clause([x, y, -gate])
            self.add_clause([-x, -y, -gate])
            self.add_clause([x, -y, gate])
            self.add_clause([-x, y, gate])
            self._cache[key] = gate
        return -gate if parity else gate

    def equiv(self, a: int, b: int) -> int:
        return -self.xor(a, b)

    def impl(self, a: int, b: int) -> int:
        return self.or_(-a, b)

    def maj3(self, a: int, b: int, c: int) -> int:
        if a == b or a == c:
            return a
        if b == c:
            return b
        if a == -b:
            return c
        if a == -c:
            return b
        if b == -c:
            return a
        for lit, rest in ((a, (b, c)), (b, (a, c)), (c, (a, b))):
            if self.is_true(lit):
                return self.or_(*rest)
            if self.is_false(lit):
                return self.and_(*rest)
        # maj(-a, -b, -c) == -maj(a, b, c)
        flip = sum(1 for lit in (a, b, c) if lit < 0) >= 2
        if flip:
            a, b, c = -a, -b, -c
        key = ("maj",) + tuple(sorted((a, b, c)))
        gate = self._cache.get(key)
        if gate is None:
            gate = self.fresh_var()
            pairs = [sorted(pair, key=abs) for pair in ((a, b), (a, c), (b, c))]
            for x, y in pairs:
                self.add_clause([x, y, -gate])
            for x, y in pairs:
                self.add_clause([-x, -y, gate])
            self._cache[key] = gate
        return -gate if flip else gate

    def and_many(self, lits: Iterable[int]) -> int:
        """The one AND/OR gate: constants fold, repeats drop, a complementary pair is false.

        Each distinct input set gets one variable and its truth-table clauses.
        """
        t = self._true
        out: list[int] = []
        seen: set[int] = set()
        for lit in lits:
            if lit == -t or -lit in seen:
                return self.false_lit
            if lit != t and lit not in seen:
                seen.add(lit)
                out.append(lit)
        if len(out) < 2:
            return out[0] if out else self.true_lit
        key = tuple(sorted(out, key=abs))
        gate = self._cache.get(key)
        if gate is None:
            gate = self.fresh_var()
            for lit in out:
                self.add_clause([lit, -gate])
            self.add_clause([-lit for lit in key] + [gate])
            self._cache[key] = gate
        return gate

    def or_many(self, lits: Iterable[int]) -> int:
        """OR as the De Morgan dual of AND: -and_many(-lit for each lit)."""
        return -self.and_many([-lit for lit in lits])


def build_expression_circuit(root: ExprNode, builder: CircuitBuilder) -> int:
    """Emit clauses tying a fresh literal to the expression's value; returns it.

    Shared subexpressions (by node identity or gate structure) emit their
    clauses once. Plain negations reuse the child's literal.
    """
    memo: dict[int, int] = {}

    def go(node: ExprNode) -> int:
        key = id(node)
        if key in memo:
            return memo[key]
        kind = node.kind
        if kind == VAR:
            if node.var_index > builder.base:
                raise ClauseRangeError(
                    f"variable x{node.var_index} beyond memory var count {builder.base}"
                )
            lit = node.var_index
        elif kind == CONST:
            lit = builder.const(node.bool_value)
        elif kind == NOT:
            lit = -go(node.children[0])
        elif kind == AND:
            lit = builder.and_many([go(c) for c in node.children])
        elif kind == OR:
            lit = builder.or_many([go(c) for c in node.children])
        elif kind == XOR:
            lit = builder.xor(go(node.children[0]), go(node.children[1]))
        elif kind == MAJ3:
            lit = builder.maj3(*(go(c) for c in node.children))
        elif kind == IMPL:
            lit = builder.impl(go(node.children[0]), go(node.children[1]))
        elif kind == EQUIV:
            lit = builder.equiv(go(node.children[0]), go(node.children[1]))
        else:
            raise ValueError(f"unknown node kind {kind}")
        memo[key] = lit
        return lit

    return go(root)
