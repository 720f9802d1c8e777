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
UNSAT answer. A solver reads its memory, and observes control flags, at
decision boundaries only: clauses enter it only by being in its memory.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .cnf import canonical_clause, raise_first_error

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


@dataclass
class SolveOutcome:
    """Solver verdict; ``model`` is present exactly for SAT, ``error`` annotates failures."""

    result: Optional[str]
    model: Optional[list[bool]] = None
    error: Optional[str] = None

    def as_json(self) -> dict:
        if self.result is None:
            return {"error": self.error or "ERROR"}
        out: dict = {"result": self.result}
        if self.model is not None:
            out["model"] = list(self.model)
        if self.error is not None:
            out["error"] = self.error
        return out


class SolveControl:
    """One solve's pause and cancel signals, and the web process that started
    it; the search observes the signals at decision boundaries (``halted``).
    A resume or cancel notifies ``cv`` (a solver worker's, or a fresh
    condition). A cancel leaves ``paused`` as it was, so a paused solve reads
    PAUSED until it exits."""

    def __init__(self, cv: Optional[threading.Condition] = None) -> None:
        self._cv = cv or threading.Condition()
        self.web_pid = ""  # set by the worker that takes it
        self.paused = False
        self.cancelled = False

    def pause(self) -> None:
        with self._cv:
            self.paused = True

    def resume(self) -> None:
        with self._cv:
            self.paused = False
            self._cv.notify_all()

    def cancel(self) -> None:
        with self._cv:
            self.cancelled = True
            self._cv.notify_all()

    def halted(self) -> bool:
        """Wait while paused and not cancelled; True once cancelled."""
        if self.paused:
            with self._cv:
                self._cv.wait_for(lambda: self.cancelled or not self.paused)
        return self.cancelled


def _code(lit: int) -> int:
    return lit << 1 if lit > 0 else (-lit << 1) | 1


def _lit(code: int) -> int:
    return -(code >> 1) if code & 1 else code >> 1


class DpllSolver:
    """Incremental CDCL engine over one memory of ``CnfStore``'s protocol.

    Each decision boundary reads the clauses the memory appended since a
    clause-count cursor (the first read, from 0, is the snapshot), so an
    incremental caller adds clauses to the memory and solves again. With
    ``export``, learned clauses of at most ``EXPORT_MAX_LEN`` literals are
    written to the memory, one batch per read, and that read skips them.
    """

    def __init__(self, memory, export: bool = False) -> None:
        self.memory = memory
        self.export = export
        self.clauses_read = 0  # the memory's clause-count cursor
        self.exports: list[tuple[int, ...]] = []  # canonical, learned since the last read
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

    def load(self, clauses: list[tuple[int, ...]]) -> None:
        """Attach canonical clauses read from the memory, over variables already
        ensured, at level 0 or mid-search; a tautology is watched, and never
        propagates."""
        attach = self._attach
        for clause in clauses:
            attach([lit << 1 if lit > 0 else (-lit << 1) | 1 for lit in clause])

    def _read(self) -> list[tuple[int, ...]]:
        """Write the pending exports, then load the memory's clauses past the
        cursor, less those exports; returns the clauses loaded."""
        memory = self.memory
        if not memory.alive:
            raise ConnectionError("memory view lost")
        sent = self._flush()
        fresh, self.clauses_read = memory.clauses_since(self.clauses_read)
        count = memory.var_count
        if count > MAX_SOLVE_VARIABLES:
            raise _TooManyVariables
        self.ensure_vars(count)
        if sent:
            fresh = [clause for clause in fresh if clause not in sent]
        self.load(fresh)
        return fresh

    def _flush(self) -> set[tuple[int, ...]]:
        """Write the pending exports to the memory as one batch; returns them."""
        sent = set(self.exports)
        if sent:
            raise_first_error(self.memory.add_clauses(self.exports))
            self.exports = []
        return sent

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
    ) -> SolveOutcome:
        """SAT with a model over the memory's variables, UNSAT (under the
        assumptions), or UNKNOWN once ``control`` is cancelled.

        Raises ``ConnectionError`` once the memory is lost and
        ``_TooManyVariables`` when it counts more than ``MAX_SOLVE_VARIABLES``.
        """
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
                        self._flush()  # every other answer comes right after a read
                        return SolveOutcome(UNSAT)
                    learnt, back = self._analyze(conflict)
                    self._backjump(back)
                    self.learnts.append(learnt)
                    if self.export and len(learnt) <= EXPORT_MAX_LEN:
                        self.exports.append(canonical_clause(map(_lit, learnt)))
                    if len(learnt) > 1:
                        self._watch(learnt)
                        self._assign(learnt[0], learnt)
                    else:
                        self._assign(learnt[0], None)
                    continue

                # decision boundary: the memory's new clauses, then control signals
                if self._read() and (self.qhead < len(self.trail) or self.empty_clause):
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
                if control is not None and control.halted():
                    return SolveOutcome(UNKNOWN)
                trail_lim.append(len(self.trail))
                self._assign((var << 1) | self.phase[var], None)
        finally:
            self._backjump(0)  # level-0 assignments persist: they are forced


def _satisfies(model: list[bool], memory, count: int) -> bool:
    """Whether ``model`` satisfies the first ``count`` clauses of ``memory``. A
    memory only grows, and the exports its solver skipped are implied."""
    true = {var if value else -var for var, value in enumerate(model, 1)}
    return not any(map(true.isdisjoint, memory.clauses_since(0)[0][:count]))


def run(
    view,
    phases: Optional[dict[int, bool]] = None,
    control: Optional[SolveControl] = None,
    *,
    export: bool = False,
    on_decision: Optional[Callable[[int], None]] = None,
) -> SolveOutcome:
    """Solve the CNF in ``view``, any memory of ``CnfStore``'s protocol, with a
    fresh ``DpllSolver`` that decides by ``phases`` when given.

    Returns SAT with a full model, UNSAT, or UNKNOWN after a cancel, with
    ``MEMORY_UNAVAILABLE`` once the view is lost, or with
    ``TOO_MANY_VARIABLES`` before it allocates for more than
    ``MAX_SOLVE_VARIABLES`` (at the start or at any read). A SAT model is
    checked against the memory up to the solver's last read before it is returned.
    """
    if view.var_count > MAX_SOLVE_VARIABLES:
        return SolveOutcome(UNKNOWN, error="TOO_MANY_VARIABLES")
    solver = DpllSolver(view, export)
    try:
        outcome = solver.solve(phases=phases, control=control, on_decision=on_decision)
    except _TooManyVariables:
        return SolveOutcome(UNKNOWN, error="TOO_MANY_VARIABLES")
    except ConnectionError:
        return SolveOutcome(UNKNOWN, error="MEMORY_UNAVAILABLE")
    except Exception as exc:  # surface as UNKNOWN per solver contract
        return SolveOutcome(UNKNOWN, error=str(exc))
    if outcome.result == SAT and not _satisfies(outcome.model, view, solver.clauses_read):
        return SolveOutcome(UNKNOWN, error="MODEL_CHECK_FAILED")
    return outcome
