"""DIMACS CNF reader/writer with a strict header and whitespace-tolerant body."""

from __future__ import annotations

from dataclasses import dataclass, field

from .cnf import CnfStore, raise_first_error


class DimacsError(ValueError):
    """Malformed DIMACS input."""


@dataclass
class DimacsDocument:
    var_count: int
    clauses: list[list[int]] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)

    def to_store(self) -> CnfStore:
        """A store of the document's clauses, loaded in one batch; raises the
        first refused clause's error."""
        store = CnfStore(self.var_count)
        raise_first_error(store.add_clauses(self.clauses))
        return store


def dumps(store, comments: list[str] | None = None) -> str:
    """Serialize a store or view: header, optional comments, one clause per line."""
    clauses = store.clauses()
    lines = [f"c {text}" for text in (comments or [])]
    lines.append(f"p cnf {store.var_count} {len(clauses)}")
    for clause in clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def loads(text: str) -> DimacsDocument:
    """Parse DIMACS text; comment lines are preserved in order of appearance."""
    var_count = None
    clause_count = None
    comments: list[str] = []
    tokens: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            comments.append(line[2:] if line.startswith("c ") else line[1:])
            continue
        if line.startswith("p"):
            if var_count is not None:
                raise DimacsError("duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed problem line: {line!r}")
            try:
                var_count = int(parts[2])
                clause_count = int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed problem line: {line!r}") from None
            if var_count < 0 or clause_count < 0:
                raise DimacsError(f"negative counts in problem line: {line!r}")
            continue
        if var_count is None:
            raise DimacsError("clause data before problem line")
        tokens.extend(line.split())

    if var_count is None:
        raise DimacsError("missing problem line")

    clauses: list[list[int]] = []
    current: list[int] = []
    for token in tokens:
        try:
            lit = int(token)
        except ValueError:
            raise DimacsError(f"bad literal token: {token!r}") from None
        if lit == 0:
            if not current:
                raise DimacsError("empty clause")
            clauses.append(current)
            current = []
            continue
        if abs(lit) > var_count:
            raise DimacsError(f"literal {lit} out of range (var count {var_count})")
        current.append(lit)
    if current:
        raise DimacsError("clause not terminated by 0")
    if len(clauses) != clause_count:
        raise DimacsError(
            f"header declares {clause_count} clauses, body has {len(clauses)}"
        )
    return DimacsDocument(var_count=var_count, clauses=clauses, comments=comments)


def read_store(text: str) -> CnfStore:
    return loads(text).to_store()
