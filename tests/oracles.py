"""Independent brute-force oracles used by the test suite.

Truth tables over n variables are packed into a single int of 2**n bits:
bit a is the value of the function under the assignment whose i-th variable
(1-based) is bit (i-1) of a. Keeps exhaustive checks fast for n <= 13.
"""

from __future__ import annotations


def table_context(n: int):
    """Return (var_masks, full) where var_masks[i] is the table of variable i."""
    size = 1 << n
    full = (1 << size) - 1
    masks = {}
    for i in range(1, n + 1):
        half = 1 << (i - 1)
        unit = ((1 << half) - 1) << half
        step = half * 2
        m = 0
        for base in range(0, size, step):
            m |= unit << base
        masks[i] = m
    return masks, full


def literal_mask(lit: int, masks, full: int) -> int:
    m = masks[abs(lit)]
    return m if lit > 0 else m ^ full


def clause_mask(clause, masks, full: int) -> int:
    m = 0
    for lit in clause:
        m |= literal_mask(lit, masks, full)
    return m


def cnf_mask(clauses, masks, full: int) -> int:
    m = full
    for clause in clauses:
        m &= clause_mask(clause, masks, full)
        if m == 0:
            break
    return m


def cnf_satisfiable(clauses, n: int) -> bool:
    masks, full = table_context(n)
    return cnf_mask(clauses, masks, full) != 0


def cnf_model_count(clauses, n: int) -> int:
    masks, full = table_context(n)
    return bin(cnf_mask(clauses, masks, full)).count("1")


def cnf_models(clauses, n: int):
    """All satisfying assignments as bool tuples (ascending numeric order)."""
    masks, full = table_context(n)
    m = cnf_mask(clauses, masks, full)
    out = []
    a = 0
    while m:
        if m & 1:
            out.append(tuple(bool((a >> i) & 1) for i in range(n)))
        m >>= 1
        a += 1
    return out


def expr_mask(node, masks, full: int) -> int:
    """Truth table of an expression DAG as a packed int (semantic evaluation)."""
    memo = {}

    def go(n):
        key = id(n)
        if key in memo:
            return memo[key]
        kind = n.kind
        if kind == "VAR":
            value = masks[n.var_index]
        elif kind == "CONST":
            value = full if n.bool_value else 0
        elif kind == "NOT":
            value = go(n.children[0]) ^ full
        elif kind == "AND":
            value = full
            for c in n.children:
                value &= go(c)
        elif kind == "OR":
            value = 0
            for c in n.children:
                value |= go(c)
        elif kind == "XOR":
            value = go(n.children[0]) ^ go(n.children[1])
        elif kind == "MAJ3":
            a, b, c = (go(ch) for ch in n.children)
            value = (a & b) | (a & c) | (b & c)
        elif kind == "IMPL":
            value = (go(n.children[0]) ^ full) | go(n.children[1])
        elif kind == "EQUIV":
            value = (go(n.children[0]) ^ go(n.children[1])) ^ full
        else:
            raise ValueError(kind)
        memo[key] = value
        return value

    return go(node)


def eval_clause(clause, assignment) -> bool:
    return any(
        assignment[lit - 1] if lit > 0 else not assignment[-lit - 1] for lit in clause
    )


def eval_cnf(clauses, assignment) -> bool:
    return all(eval_clause(c, assignment) for c in clauses)


def two_factor_pairs(product: int, lo: int, hi: int):
    """All (u, v) with u*v == product and lo <= v <= u <= hi."""
    pairs = []
    for v in range(lo, hi + 1):
        for u in range(v, hi + 1):
            if u * v == product:
                pairs.append((u, v))
    return pairs


def to_bits(value: int, width: int):
    """LSB-first bit list of ``value`` truncated to ``width`` bits."""
    return [bool((value >> i) & 1) for i in range(width)]


def from_bits(bits) -> int:
    v = 0
    for i, b in enumerate(bits):
        if b:
            v |= 1 << i
    return v


def karatsuba_terms(u: int, v: int, width: int) -> tuple[int, int, int, int]:
    """Integer-level decomposition: the three weighted terms and their total.

    u*v = (2^(2n) + 2^n) * U1*V1 + 2^n * (U1 - U0) * (V0 - V1) + (2^n + 1) * U0*V0
    with n = width/2 and U1, U0 (V1, V0) the high and low halves.
    """
    n = width // 2
    mask = (1 << n) - 1
    u1, u0 = u >> n, u & mask
    v1, v0 = v >> n, v & mask
    t_hi = ((1 << (2 * n)) + (1 << n)) * (u1 * v1)
    t_mid = (1 << n) * ((u1 - u0) * (v0 - v1))
    t_lo = ((1 << n) + 1) * (u0 * v0)
    return t_hi, t_mid, t_lo, t_hi + t_mid + t_lo


def php_clauses(pigeons: int, holes: int):
    """Pigeonhole principle CNF; variable (p-1)*holes + h is 'pigeon p in hole h'."""
    var = lambda p, h: (p - 1) * holes + h
    clauses = [[var(p, h) for h in range(1, holes + 1)] for p in range(1, pigeons + 1)]
    for h in range(1, holes + 1):
        for p1 in range(1, pigeons + 1):
            for p2 in range(p1 + 1, pigeons + 1):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses, pigeons * holes


def propagates_to_conflict(clauses, assumed) -> bool:
    """Whether unit propagation over ``clauses`` from the literals ``assumed`` falsifies a clause."""
    true = set()
    for lit in assumed:
        if -lit in true:
            return True
        true.add(lit)
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            unit = None
            open_count = 0
            for lit in clause:
                if lit in true:
                    break
                if -lit not in true:
                    open_count += 1
                    unit = lit
            else:
                if open_count == 0:
                    return True
                if open_count == 1:
                    true.add(unit)
                    changed = True
    return False


def rup_refutes(clauses, lemmas) -> bool:
    """Forward RUP check of a refutation.

    Each lemma in turn, then the empty clause, must yield a conflict by unit
    propagation from its negation over ``clauses`` plus the lemmas before
    it. So every lemma is implied by ``clauses``, and ``clauses`` is
    unsatisfiable.
    """
    derived = [list(c) for c in clauses]
    for lemma in [*lemmas, ()]:
        if not propagates_to_conflict(derived, [-lit for lit in lemma]):
            return False
        derived.append(list(lemma))
    return True


class ModelFamily:
    """The variable count that an origin or detached fork shares with the
    attached forks below it."""

    def __init__(self, var_count: int) -> None:
        self.var_count = var_count


class ModelMemory:
    """One memory of ``SharedMemoryModel``: a canonical clause list in arrival
    order, its family, its parent (set only while attached), the attached
    forks it feeds, and ``alive``."""

    def __init__(self, family: ModelFamily, clauses=(), parent=None) -> None:
        self.family = family
        self.clauses = list(clauses)
        self.parent = parent
        self.children: list[ModelMemory] = []
        self.alive = True

    @property
    def var_count(self) -> int:
        return self.family.var_count


class SharedMemoryModel:
    """The shared memory's semantics as one sequential, single-threaded model.

    Clauses are kept in canonical form (no repeated literal, ascending
    variable, negative first) and stored once per memory, in arrival order. A
    clause is refused as ``"invalid"`` (an empty clause or a non-positive
    literal) or ``"range"`` (a variable past the count); a refusal does not
    stop the clauses after it. A memory feeds each newly stored clause to
    its attached forks, which store it unless they hold it already, and they
    feed theirs. An origin or detached fork and the attached forks below it
    share one variable count. A deleted memory leaves its family and hands
    its attached forks to its parent.
    """

    def create(self, var_count: int) -> ModelMemory:
        return ModelMemory(ModelFamily(var_count))

    @staticmethod
    def canonical(literals):
        if not literals or any(type(lit) is not int or lit == 0 for lit in literals):
            return "invalid"
        return tuple(sorted(set(literals), key=lambda lit: (abs(lit), lit > 0)))

    def add_clauses(self, memory: ModelMemory, batch) -> list:
        """One outcome per clause: True (stored), False (held), "invalid" or "range"."""
        outcomes = []
        for literals in batch:
            clause = self.canonical(literals)
            if clause == "invalid":
                outcomes.append(clause)
            elif abs(clause[-1]) > memory.var_count:
                outcomes.append("range")
            elif clause in memory.clauses:
                outcomes.append(False)
            else:
                outcomes.append(True)
                self._store(memory, clause)
        return outcomes

    def _store(self, memory: ModelMemory, clause) -> None:
        memory.clauses.append(clause)
        for child in memory.children:
            if clause not in child.clauses:
                self._store(child, clause)

    def reserve(self, memory: ModelMemory, n: int) -> int:
        first = memory.var_count + 1
        memory.family.var_count += n
        return first

    def fork(self, memory: ModelMemory, detach: bool) -> ModelMemory:
        if detach:
            return ModelMemory(ModelFamily(memory.var_count), memory.clauses)
        child = ModelMemory(memory.family, memory.clauses, parent=memory)
        memory.children.append(child)
        return child

    def delete(self, memory: ModelMemory) -> None:
        memory.alive = False
        memory.family = ModelFamily(memory.var_count)  # it shares nothing any more
        for child in memory.children:
            child.parent = memory.parent
        if memory.parent is not None:
            memory.parent.children.remove(memory)
            memory.parent.children.extend(memory.children)
        memory.children = []
