"""Gate-level CNF circuit builder with constant folding and literal reuse.

Every gate is a fresh variable tied to its inputs by a full equivalence
(truth-table clauses), so gate values are functionally determined by the
circuit inputs. Structurally identical gates share one output literal.
There is one AND gate; OR is its De Morgan dual over negated edges, as in
an And-Inverter Graph, so OR(a, b) and AND(-a, -b) share one variable.
One constant variable, pinned true, gives both constants.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .cnf import ClauseRangeError
from .exprs import AND, CONST, EQUIV, IMPL, MAJ3, NOT, OR, VAR, XOR, ExprNode


class CircuitBuilder:
    """Emits Tseitin-style gates into a SAT memory view or mirror.

    The gates are AND (``and_many``), XOR and MAJ3; every other connective
    is one of them with negated inputs or output.

    Variable allocation goes through ``reserve_variables`` when the target
    offers it (remote mirrors) in chunks, to amortize lock round-trips;
    plain views allocate one variable at a time. Call ``finalize`` when a
    build is complete so leftover reserved variables get pinned false.
    """

    def __init__(self, memory, alloc_chunk: Optional[int] = None) -> None:
        self.memory = memory
        self._reserve = getattr(memory, "reserve_variables", None)
        self._add = getattr(memory, "add_clause_direct", None) or memory.add_clause
        if alloc_chunk is None:
            alloc_chunk = 64 if self._reserve is not None else 1
        self._chunk = max(1, alloc_chunk)
        self._pool_next = 0
        self._pool_end = -1
        self._cache: dict[tuple, int] = {}
        self._true = 0  # the constant variable; 0, which is no literal, until first use
        self.vars_allocated = 0
        self.clauses_added = 0

    # -- allocation ------------------------------------------------------

    def fresh_var(self) -> int:
        if self._pool_next > self._pool_end:
            if self._reserve is not None:
                first = self._reserve(self._chunk)
            else:
                first = self.memory.add_variables(self._chunk)
            self._pool_next = first
            self._pool_end = first + self._chunk - 1
        var = self._pool_next
        self._pool_next += 1
        self.vars_allocated += 1
        return var

    def finalize(self) -> None:
        """Pin unused reserved variables false so they stay determined."""
        while self._pool_next <= self._pool_end:
            self.add_clause([-self._pool_next])
            self._pool_next += 1

    def add_clause(self, literals: Sequence[int]) -> None:
        self._add(literals)
        self.clauses_added += 1

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
            self.add_clause([-gate, x, y])
            self.add_clause([-gate, -x, -y])
            self.add_clause([gate, x, -y])
            self.add_clause([gate, -x, y])
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
            self.add_clause([-gate, a, b])
            self.add_clause([-gate, a, c])
            self.add_clause([-gate, b, c])
            self.add_clause([gate, -a, -b])
            self.add_clause([gate, -a, -c])
            self.add_clause([gate, -b, -c])
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
        key = tuple(sorted(out))
        gate = self._cache.get(key)
        if gate is None:
            gate = self.fresh_var()
            for lit in out:
                self.add_clause([-gate, lit])
            self.add_clause([gate] + [-lit for lit in out])
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
            if node.var_index > builder.memory.var_count:
                raise ClauseRangeError(
                    f"variable x{node.var_index} beyond memory var count "
                    f"{builder.memory.var_count}"
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
