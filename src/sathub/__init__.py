"""Shared SAT memory and shared SAT solvers over a small RPC/socket fabric."""

from .bitvec import BitVec, product_with, sum_with
from .circuits import CircuitBuilder
from .client import MemoryMirror, connect
from .cnf import ClauseRangeError, CnfStore, canonical_clause
from .dpll import DpllSolver, SolveControl, SolveOutcome, run
from .exprs import ExprNode, build_expression_circuit, eval_expr, lower_to_cnf
from .factoring import FactorizationSpec, build_factorization, decode_model
from .node import ServerNode
from .service import MemoryService
from .solving import (
    DiversificationSettings,
    SolveCall,
    SolverRegistry,
    SolverWorker,
    parallelize,
)

__all__ = [
    "BitVec",
    "CircuitBuilder",
    "ClauseRangeError",
    "CnfStore",
    "DiversificationSettings",
    "DpllSolver",
    "ExprNode",
    "FactorizationSpec",
    "MemoryMirror",
    "MemoryService",
    "ServerNode",
    "SolveCall",
    "SolveControl",
    "SolveOutcome",
    "SolverRegistry",
    "SolverWorker",
    "build_expression_circuit",
    "build_factorization",
    "canonical_clause",
    "connect",
    "decode_model",
    "eval_expr",
    "lower_to_cnf",
    "parallelize",
    "product_with",
    "run",
    "sum_with",
]

__version__ = "0.1.0"
