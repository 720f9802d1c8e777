"""Deterministic CDCL reference solver with pause/resume/cancel support.

Literals are flat codes: variable v is 2v when true and 2v+1 when false,
so negation is ``code ^ 1`` and one list indexed by code holds every
literal's value. Each clause is a plain list of codes watched by its first
two entries (MiniSat, Eén & Sörensson 2003). A conflict is analysed back
to its first unique implication point; the learned clause is kept and the
search backjumps to the level where that clause becomes unit (GRASP,
Marques-Silva & Sakallah 1999).

Decisions take the lowest-index unassigned variable. Its phase is the
value it held last (phase saving), or before that the diversification
phases map (default false). There are no restarts, no activity heuristic
and no clause deletion, so ``DpllSolver.learned`` holds every learned
clause in derivation order: with the input clauses, a clausal proof of an
UNSAT answer. Control flags and new clauses from live memory views are
checked at decision boundaries only; ``load`` is the one way canonical
clauses enter a solver, before or during a search.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence

from .solving import DiversificationSettings, SolveOutcome

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

# Longest learned clause, in literals, that an exporting solve sends to its memory.
EXPORT_MAX_LEN = 2

# Most variables a solve allocates for (about 185 bytes each); a view that
# counts more answers UNKNOWN with TOO_MANY_VARIABLES.
MAX_SOLVE_VARIABLES = 1 << 18


class _TooManyVariables(Exception):
    """The view counts more than ``MAX_SOLVE_VARIABLES`` variables."""


class SolveControl:
    """Pause/resume/cancel signals observed by a running search; each one
    notifies ``cv`` (a solver worker's, or a fresh condition)."""

    def __init__(self, cv: Optional[threading.Condition] = None) -> None:
        self._cv = cv or threading.Condition()
        self._paused = False
        self._cancelled = False

    def pause(self) -> None:
        with self._cv:
            self._paused = True

    def resume(self) -> None:
        with self._cv:
            self._paused = False
            self._cv.notify_all()

    def cancel(self) -> None:
        with self._cv:
            self._cancelled = True
            self._paused = False
            self._cv.notify_all()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def paused(self) -> bool:
        return self._paused

    def wait_while_paused(self) -> None:
        with self._cv:
            while self._paused and not self._cancelled:
                self._cv.wait()


def _code(lit: int) -> int:
    return lit << 1 if lit > 0 else (-lit << 1) | 1


def _lit(code: int) -> int:
    return -(code >> 1) if code & 1 else code >> 1


def _halted(control: Optional[SolveControl]) -> bool:
    """Observe pause and cancel at a decision boundary; True once cancelled."""
    if control is None:
        return False
    if control.paused:
        control.wait_while_paused()
    return control.cancelled


class DpllSolver:
    """Incremental CDCL engine; clauses may be added between (or during) solves."""

    def __init__(self, var_count: int = 0) -> None:
        self.var_count = 0
        self.vals: list[Optional[bool]] = [None, None]  # by literal code
        self.watches: list[list[list[int]]] = [[], []]  # by literal code
        self.level: list[int] = [0]  # by variable, as are the lists below
        self.reason: list[Optional[list[int]]] = [None]
        self.phase: list[int] = [1]  # low bit of the next decision's code
        self.seen: list[bool] = [False]
        self.phases: dict[int, bool] = {}
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.cursor = 1  # every variable below it is assigned
        self.qhead = 0
        self.empty_clause = False
        self.learnts: list[list[int]] = []  # learned clauses, in derivation order
        self.ensure_vars(var_count)

    @property
    def learned(self) -> list[tuple[int, ...]]:
        """Every learned clause in derivation order, as DIMACS literals."""
        return [tuple(map(_lit, clause)) for clause in self.learnts]

    def ensure_vars(self, n: int) -> None:
        grow = n - self.var_count
        if grow <= 0:
            return
        self.phase.extend(
            0 if self.phases.get(v) else 1 for v in range(self.var_count + 1, n + 1)
        )
        self.var_count = n
        self.vals.extend([None] * (2 * grow))
        self.watches.extend([] for _ in range(2 * grow))
        self.level.extend([0] * grow)
        self.reason.extend([None] * grow)
        self.seen.extend([False] * grow)

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause at level 0 (no search in progress)."""
        codes = self._clean(literals)
        if codes is not None:
            self._add_level0(codes)

    def load(self, clauses: Iterable[Sequence[int]]) -> None:
        """Attach canonical clauses over variables already ensured, at level 0 or
        mid-search; a tautology is watched, and never propagates."""
        attach = self._attach
        for clause in clauses:
            attach([lit << 1 if lit > 0 else (-lit << 1) | 1 for lit in clause])

    def _clean(self, literals: Iterable[int]) -> Optional[list[int]]:
        """Distinct codes of a clause with its variables ensured; None for a tautology."""
        distinct = dict.fromkeys(_code(lit) for lit in literals)
        if any(code ^ 1 in distinct for code in distinct):
            return None
        codes = list(distinct)
        if codes:
            self.ensure_vars(max(code >> 1 for code in codes))
        return codes

    def _assign(self, code: int, reason: Optional[list[int]]) -> None:
        self.vals[code] = True
        self.vals[code ^ 1] = False
        self.level[code >> 1] = len(self.trail_lim)
        self.reason[code >> 1] = reason
        self.trail.append(code)

    def _watch(self, codes: list[int]) -> None:
        self.watches[codes[0]].append(codes)
        self.watches[codes[1]].append(codes)

    def _add_level0(self, codes: list[int]) -> None:
        """Attach a clause of distinct codes while no decision is on the trail."""
        vals = self.vals
        if len(codes) > 1 and vals[codes[0]] is None and vals[codes[1]] is None:
            self._watch(codes)
            return
        free = []
        for code in codes:
            value = vals[code]
            if value:
                return  # satisfied for good
            if value is None:
                free.append(code)
        if not free:
            self.empty_clause = True
        elif len(free) == 1:
            self._assign(free[0], None)
        else:
            codes[:] = free + [code for code in codes if vals[code] is False]
            self._watch(codes)

    def _attach(self, codes: list[int]) -> None:
        """Watch a clause mid-search if two of its literals are not false;
        otherwise rewind to level 0 and attach it there."""
        if self.trail_lim:
            vals = self.vals
            free = [code for code in codes if vals[code] is not False]
            if len(free) > 1:
                self._watch(free + [code for code in codes if vals[code] is False])
                return
            self._backjump(0)
        self._add_level0(codes)

    def _propagate(self) -> Optional[list[int]]:
        """Unit propagation over the watches; returns a falsified clause or None."""
        vals = self.vals
        watches = self.watches
        level = self.level
        reason = self.reason
        trail = self.trail
        depth = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            ws = watches[false_lit]
            n = len(ws)
            i = j = 0
            while i < n:
                clause = ws[i]
                i += 1
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if vals[first]:
                    ws[j] = clause
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if vals[lit] is not False:
                        clause[1] = lit
                        clause[k] = false_lit
                        watches[lit].append(clause)
                        break
                else:
                    ws[j] = clause
                    j += 1
                    if vals[first] is False:
                        del ws[j:i]
                        self.qhead = len(trail)
                        return clause
                    vals[first] = True
                    vals[first ^ 1] = False
                    level[first >> 1] = depth
                    reason[first >> 1] = clause
                    trail.append(first)
            del ws[j:]
        self.qhead = qhead
        return None

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP clause of a conflict and the level to backjump to.

        The asserting literal comes first and a literal of the backjump level
        second, which are the two watches. Level-0 literals are left out: they
        are false for good.
        """
        seen = self.seen
        level = self.level
        reason = self.reason
        trail = self.trail
        depth = len(self.trail_lim)
        learnt = [0]
        pending = 0
        i = len(trail)
        clause = conflict
        while True:
            for code in clause:
                var = code >> 1
                if not seen[var] and level[var]:
                    seen[var] = True
                    if level[var] == depth:
                        pending += 1
                    else:
                        learnt.append(code)
            i -= 1
            while not seen[trail[i] >> 1]:
                i -= 1
            pending -= 1
            if not pending:
                break
            # the implied literal heads its reason and is already seen
            clause = reason[trail[i] >> 1]
        learnt[0] = trail[i] ^ 1
        for code in trail[i:]:
            seen[code >> 1] = False
        for code in learnt:
            seen[code >> 1] = False
        back = 0
        for k in range(1, len(learnt)):
            if level[learnt[k] >> 1] > back:
                back = level[learnt[k] >> 1]
                learnt[1], learnt[k] = learnt[k], learnt[1]
        return learnt, back

    def _backjump(self, depth: int) -> None:
        """Undo every level above ``depth``, saving each variable's phase."""
        if len(self.trail_lim) <= depth:
            return
        vals = self.vals
        phase = self.phase
        mark = self.trail_lim[depth]
        undone = self.trail[mark:]
        for code in undone:
            vals[code] = vals[code ^ 1] = None
            phase[code >> 1] = code & 1
        del self.trail[mark:]
        del self.trail_lim[depth:]
        if undone:  # the lowest variable undone is now the lowest unassigned one
            self.cursor = min(self.cursor, min(undone) >> 1)
        self.qhead = mark

    def solve(
        self,
        assumptions: Sequence[int] = (),
        phases: Optional[dict[int, bool]] = None,
        control: Optional[SolveControl] = None,
        on_decision: Optional[Callable[[int], None]] = None,
        poll_clauses: Optional[Callable[[], list]] = None,
        exporter: Optional[Callable[[list[int]], None]] = None,
    ) -> SolveOutcome:
        self.phases = phases or {}
        self.phase[1:] = [0 if self.phases.get(v) else 1 for v in range(1, self.var_count + 1)]
        assumed = [_code(lit) for lit in assumptions]
        for code in assumed:
            self.ensure_vars(code >> 1)
        vals = self.vals
        trail_lim = self.trail_lim
        self.cursor = 1
        decisions = 0
        try:
            while True:
                if self.empty_clause:
                    return SolveOutcome(UNSAT)
                conflict = self._propagate()
                if conflict is not None:
                    if not trail_lim:
                        self.empty_clause = True
                        return SolveOutcome(UNSAT)
                    learnt, back = self._analyze(conflict)
                    self._backjump(back)
                    self.learnts.append(learnt)
                    if exporter is not None and len(learnt) <= EXPORT_MAX_LEN:
                        exporter([_lit(code) for code in learnt])
                    if len(learnt) > 1:
                        self._watch(learnt)
                        self._assign(learnt[0], learnt)
                    else:
                        self._assign(learnt[0], None)
                    continue

                # decision boundary: new clauses from the view, hook, control signals
                if poll_clauses is not None:
                    fresh = poll_clauses()
                    if fresh:
                        self.load(fresh)
                        if self.qhead < len(self.trail) or self.empty_clause:
                            continue
                if len(trail_lim) < len(assumed):
                    code = assumed[len(trail_lim)]
                    if vals[code] is False:
                        return SolveOutcome(UNSAT)
                    trail_lim.append(len(self.trail))  # empty if the assumption already holds
                    if vals[code] is None:
                        self._assign(code, None)
                    continue

                var = self.cursor
                n = self.var_count
                while var <= n and vals[var << 1] is not None:
                    var += 1
                self.cursor = var
                if var > n:
                    return SolveOutcome(SAT, model=vals[2::2])
                decisions += 1
                if on_decision is not None:
                    on_decision(decisions)
                if _halted(control):
                    return SolveOutcome(UNKNOWN)
                trail_lim.append(len(self.trail))
                self._assign((var << 1) | self.phase[var], None)
        finally:
            self._backjump(0)  # level-0 assignments persist: they are forced


def _satisfies(model: list[bool], clauses: list[tuple[int, ...]]) -> bool:
    true = {var if value else -var for var, value in enumerate(model, 1)}
    return not any(map(true.isdisjoint, clauses))


def run(
    view,
    settings: Optional[DiversificationSettings] = None,
    control: Optional[SolveControl] = None,
    *,
    export: bool = False,
    on_decision: Optional[Callable[[int], None]] = None,
) -> SolveOutcome:
    """Solve the CNF visible through ``view`` (a store, a mirror or a hub memory).

    Returns SAT with a full model, UNSAT, or UNKNOWN after a cancel, with
    ``MEMORY_UNAVAILABLE`` once the view is lost, or with
    ``TOO_MANY_VARIABLES`` before it allocates for more than
    ``MAX_SOLVE_VARIABLES`` (at the start or at any poll). At each decision
    boundary the solver loads the clauses appended since a clause-count
    cursor; the first read, from 0, is the snapshot. With ``export``
    enabled, learned clauses of at most ``EXPORT_MAX_LEN`` literals are
    pushed back to the view. A SAT model is checked against every clause
    taken before it is returned.
    """
    settings = settings or DiversificationSettings()
    count = view.var_count
    if count > MAX_SOLVE_VARIABLES:
        return SolveOutcome(UNKNOWN, error="TOO_MANY_VARIABLES")
    solver = DpllSolver(count)
    taken: list[tuple[int, ...]] = []
    cursor = 0

    def poll_live() -> list:
        nonlocal count, cursor
        if getattr(view, "alive", True) is False:
            raise ConnectionError("memory view lost")
        fresh, cursor = view.clauses_since(cursor)
        count = view.var_count
        if count > MAX_SOLVE_VARIABLES:
            raise _TooManyVariables
        if fresh:
            solver.ensure_vars(count)
            taken.extend(fresh)
        return fresh

    exporter = None
    if export:
        def exporter(clause: list[int]) -> None:
            export_learned(view, clause)

    try:
        outcome = solver.solve(
            phases=settings.phases or {},
            control=control,
            on_decision=on_decision,
            poll_clauses=poll_live,
            exporter=exporter,
        )
    except _TooManyVariables:
        return SolveOutcome(UNKNOWN, error="TOO_MANY_VARIABLES")
    except ConnectionError:
        return SolveOutcome(UNKNOWN, error="MEMORY_UNAVAILABLE")
    except Exception as exc:  # surface as UNKNOWN per solver contract
        return SolveOutcome(UNKNOWN, error=str(exc))
    if outcome.result == SAT:
        # the last poll's count: the search polls just before it answers SAT
        model = outcome.model + [False] * (count - len(outcome.model))
        if not _satisfies(model, taken):
            return SolveOutcome(UNKNOWN, error="MODEL_CHECK_FAILED")
        outcome = SolveOutcome(SAT, model=model)
    return outcome


def export_learned(view, clause: Sequence[int]) -> None:
    """Push a learned clause to the solver's own memory view."""
    adder = getattr(view, "add_clause_direct", None) or view.add_clause
    adder(list(clause))
