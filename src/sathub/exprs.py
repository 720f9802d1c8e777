"""Boolean expression DAGs and their equisatisfiable CNF lowering.

``lower_to_cnf`` builds a DAG as a circuit with ``sathub.circuits`` (one
Tseitin gate per connective, with constant folding and structural sharing)
and asserts the output literal with a unit clause. Every gate is a full
equivalence, so CNF models extend formula models uniquely.
"""

from __future__ import annotations

from typing import Sequence

from .circuits import CircuitBuilder
from .cnf import ClauseRangeError

VAR = "VAR"
CONST = "CONST"
NOT = "NOT"
AND = "AND"
OR = "OR"
XOR = "XOR"
MAJ3 = "MAJ3"
IMPL = "IMPL"
EQUIV = "EQUIV"

_ARITY = {NOT: 1, XOR: 2, IMPL: 2, EQUIV: 2, MAJ3: 3}


class ExprNode:
    """One node of a Boolean expression DAG (children may be shared)."""

    __slots__ = ("kind", "children", "var_index", "bool_value")

    def __init__(self, kind, children=(), var_index=None, bool_value=None):
        if kind in _ARITY and len(children) != _ARITY[kind]:
            raise ValueError(f"{kind} expects {_ARITY[kind]} children, got {len(children)}")
        if kind in (AND, OR) and len(children) < 2:
            raise ValueError(f"{kind} expects at least 2 children")
        if kind == VAR and (not isinstance(var_index, int) or var_index < 1):
            raise ValueError(f"bad variable index: {var_index!r}")
        self.kind = kind
        self.children = tuple(children)
        self.var_index = var_index
        self.bool_value = bool_value

    @classmethod
    def var(cls, index: int) -> "ExprNode":
        return cls(VAR, var_index=index)

    @classmethod
    def const(cls, value: bool) -> "ExprNode":
        return cls(CONST, bool_value=bool(value))

    @classmethod
    def not_(cls, a) -> "ExprNode":
        return cls(NOT, (a,))

    @classmethod
    def and_(cls, *children) -> "ExprNode":
        return cls(AND, children)

    @classmethod
    def or_(cls, *children) -> "ExprNode":
        return cls(OR, children)

    @classmethod
    def xor(cls, a, b) -> "ExprNode":
        return cls(XOR, (a, b))

    @classmethod
    def maj3(cls, a, b, c) -> "ExprNode":
        return cls(MAJ3, (a, b, c))

    @classmethod
    def impl(cls, a, b) -> "ExprNode":
        return cls(IMPL, (a, b))

    @classmethod
    def equiv(cls, a, b) -> "ExprNode":
        return cls(EQUIV, (a, b))

    def max_var(self) -> int:
        """Largest variable index appearing in the DAG (0 when none)."""
        best = 0
        seen = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.kind == VAR:
                best = max(best, node.var_index)
            stack.extend(node.children)
        return best

    def __repr__(self) -> str:
        if self.kind == VAR:
            return f"x{self.var_index}"
        if self.kind == CONST:
            return "T" if self.bool_value else "F"
        return f"{self.kind}({', '.join(map(repr, self.children))})"


def eval_expr(node: ExprNode, assignment: Sequence[bool]) -> bool:
    """Evaluate the DAG under a 0-indexed assignment list (variable i at i-1)."""
    memo: dict[int, bool] = {}

    def go(n: ExprNode) -> bool:
        key = id(n)
        if key in memo:
            return memo[key]
        if n.kind == VAR:
            value = assignment[n.var_index - 1]
        elif n.kind == CONST:
            value = n.bool_value
        elif n.kind == NOT:
            value = not go(n.children[0])
        elif n.kind == AND:
            value = all(go(c) for c in n.children)
        elif n.kind == OR:
            value = any(go(c) for c in n.children)
        elif n.kind == XOR:
            value = go(n.children[0]) != go(n.children[1])
        elif n.kind == MAJ3:
            value = sum(go(c) for c in n.children) >= 2
        elif n.kind == IMPL:
            value = (not go(n.children[0])) or go(n.children[1])
        elif n.kind == EQUIV:
            value = go(n.children[0]) == go(n.children[1])
        else:
            raise ValueError(f"unknown node kind {n.kind}")
        memo[key] = value
        return value

    return go(node)


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


def lower_to_cnf(formula: ExprNode, view) -> list[list[int]]:
    """Emit an equisatisfiable CNF for ``formula`` into ``view``; returns the clauses.

    Grows the view's variable count to cover the formula if needed, builds
    the formula as a circuit and asserts its output literal. Fresh gate
    variables are functionally determined by the originals.
    """
    needed = formula.max_var()
    if view.var_count < needed:
        view.reserve_variables(needed - view.var_count)
    builder = CircuitBuilder(view)
    builder.add_clause([build_expression_circuit(formula, builder)])
    return builder.finalize()
