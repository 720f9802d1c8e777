"""Deterministic DPLL reference solver with pause/resume/cancel support.

Plain chronological DPLL over two watched literals: decisions pick the
lowest-index unassigned variable, the first decision phase honors the
diversification phases map (default false). Control flags and clause
fold-in from live memory views are checked at decision boundaries only.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence

from .solving import DiversificationSettings, SolveOutcome

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


class SolveControl:
    """Pause/resume/cancel signals observed by a running search."""

    def __init__(self) -> None:
        self._cv = threading.Condition()
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


class DpllSolver:
    """Incremental DPLL engine; clauses may be added between (or during) solves."""

    def __init__(self, var_count: int = 0) -> None:
        self.var_count = 0
        self.clauses: list[list[int]] = []
        self.watches: dict[int, list[int]] = {}
        self.assign: list[Optional[bool]] = [None]
        self.level: list[int] = [0]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.units: list[int] = []
        self.empty_clause = False
        self.num_assigned = 0
        self.ensure_vars(var_count)

    def ensure_vars(self, n: int) -> None:
        while self.var_count < n:
            self.var_count += 1
            self.assign.append(None)
            self.level.append(0)
            self.watches[self.var_count] = []
            self.watches[-self.var_count] = []

    def value(self, lit: int) -> Optional[bool]:
        v = self.assign[abs(lit)]
        if v is None:
            return None
        return v if lit > 0 else not v

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause at level 0 (no search in progress)."""
        lits = []
        seen = set()
        for lit in literals:
            if lit not in seen:
                seen.add(lit)
                lits.append(lit)
        if not lits:
            self.empty_clause = True
            return
        self.ensure_vars(max(abs(l) for l in lits))
        if len(lits) == 1:
            self.units.append(lits[0])
            return
        idx = len(self.clauses)
        self.clauses.append(lits)
        self.watches[lits[0]].append(idx)
        self.watches[lits[1]].append(idx)

    def _enqueue(self, lit: int, level: int) -> None:
        var = abs(lit)
        self.assign[var] = lit > 0
        self.level[var] = level
        self.trail.append(lit)
        self.num_assigned += 1

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a falsified clause index or None."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            falsified = -lit
            watch_list = self.watches[falsified]
            kept = []
            i = 0
            n = len(watch_list)
            while i < n:
                ci = watch_list[i]
                i += 1
                clause = self.clauses[ci]
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                other = clause[0]
                other_val = self.value(other)
                if other_val is True:
                    kept.append(ci)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self.value(clause[k]) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches[clause[1]].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if other_val is False:
                    kept.extend(watch_list[i:])
                    self.watches[falsified] = kept
                    return ci
                self._enqueue(other, len(self.trail_lim))
            self.watches[falsified] = kept
        return None

    def _push_level(self) -> None:
        self.trail_lim.append(len(self.trail))

    def _undo_level(self) -> None:
        mark = self.trail_lim.pop()
        while len(self.trail) > mark:
            lit = self.trail.pop()
            self.assign[abs(lit)] = None
            self.num_assigned -= 1
        self.qhead = len(self.trail)

    def _backtrack_to(self, level: int, decisions: list) -> None:
        while len(self.trail_lim) > level:
            self._undo_level()
            decisions.pop()

    def _integrate_level0(self) -> bool:
        """Apply pending unit clauses at level 0; False means UNSAT."""
        for lit in self.units:
            val = self.value(lit)
            if val is False:
                return False
            if val is None:
                self._enqueue(lit, 0)
        self.units = []
        return True

    def solve(
        self,
        assumptions: Sequence[int] = (),
        phases: Optional[dict[int, bool]] = None,
        control: Optional[SolveControl] = None,
        on_decision: Optional[Callable[[int], None]] = None,
        poll_clauses: Optional[Callable[[], list]] = None,
        exporter: Optional[Callable[[list[int]], None]] = None,
        export_max_len: int = 0,
    ) -> SolveOutcome:
        phases = phases or {}
        # decisions: [literal, flipped, is_assumption, saved cursor]
        decisions: list[list] = []
        cursor = 1
        decision_count = 0

        if exporter is not None and assumptions:
            raise ValueError("clause export is unsound under assumptions")
        if poll_clauses is not None and assumptions:
            raise ValueError("live fold-in not supported under assumptions")

        try:
            if self.empty_clause or not self._integrate_level0():
                return SolveOutcome(UNSAT)
            if self._propagate() is not None:
                return SolveOutcome(UNSAT)

            for lit in assumptions:
                self.ensure_vars(abs(lit))
                val = self.value(lit)
                if val is False:
                    return SolveOutcome(UNSAT)
                if val is None:
                    self._push_level()
                    decisions.append([lit, True, True, cursor])
                    self._enqueue(lit, len(self.trail_lim))
                    if self._propagate() is not None:
                        return SolveOutcome(UNSAT)

            while True:
                conflict = self._propagate()
                if conflict is not None:
                    if exporter is not None and export_max_len > 0:
                        learned = [-d[0] for d in decisions if not d[2]]
                        if 0 < len(learned) <= export_max_len:
                            exporter(learned)
                    while True:
                        if not decisions:
                            return SolveOutcome(UNSAT)
                        lit, flipped, is_assumption, saved = decisions[-1]
                        if is_assumption:
                            return SolveOutcome(UNSAT)
                        self._undo_level()
                        decisions.pop()
                        cursor = saved
                        if not flipped:
                            self._push_level()
                            decisions.append([-lit, True, False, saved])
                            self._enqueue(-lit, len(self.trail_lim))
                            break
                    continue

                # decision boundary: control signals, live-view fold-in, hooks
                if control is not None:
                    if control.cancelled:
                        return SolveOutcome(UNKNOWN)
                    if control.paused:
                        control.wait_while_paused()
                        if control.cancelled:
                            return SolveOutcome(UNKNOWN)
                if poll_clauses is not None:
                    status = self._fold_in(poll_clauses, decisions)
                    if status == "rewound":
                        cursor = 1
                        continue
                    if status == "unsat":
                        return SolveOutcome(UNSAT)

                if self.num_assigned == self.var_count:
                    model = [bool(self.assign[v]) for v in range(1, self.var_count + 1)]
                    return SolveOutcome(SAT, model=model)

                while self.assign[cursor] is not None:
                    cursor += 1
                var = cursor
                phase = phases.get(var, False)
                decision_count += 1
                if on_decision is not None:
                    on_decision(decision_count)
                    if control is not None:
                        if control.cancelled:
                            return SolveOutcome(UNKNOWN)
                        if control.paused:
                            control.wait_while_paused()
                            if control.cancelled:
                                return SolveOutcome(UNKNOWN)
                self._push_level()
                lit = var if phase else -var
                decisions.append([lit, False, False, cursor])
                self._enqueue(lit, len(self.trail_lim))
        finally:
            while self.trail_lim:
                self._undo_level()
            self.qhead = 0
            # level-0 trail persists: those assignments are forced

    def _fold_in(self, poll_clauses: Callable[[], list], decisions: list) -> str:
        """Integrate clauses that appeared on the live view mid-search."""
        new_clauses = poll_clauses()
        if not new_clauses:
            return "ok"
        rewound = False
        for lits in new_clauses:
            lits = list(lits)
            if not lits:
                self.empty_clause = True
                return "unsat"
            self.ensure_vars(max(abs(l) for l in lits))
            if not rewound:
                non_false = [l for l in lits if self.value(l) is not False]
                if len(non_false) >= 2:
                    idx = len(self.clauses)
                    self.clauses.append(
                        non_false + [l for l in lits if self.value(l) is False]
                    )
                    self.watches[non_false[0]].append(idx)
                    self.watches[non_false[1]].append(idx)
                    continue
                # unit or falsified under the current trail: rewind to level 0
                self._backtrack_to(0, decisions)
                rewound = True
            self.add_clause(lits)
        if rewound:
            if self.empty_clause or not self._integrate_level0():
                return "unsat"
            # rescanning the level-0 trail lets the fresh clauses propagate
            # even when their initial watches are already-false literals
            self.qhead = 0
            return "rewound"
        return "ok"


def _view_reader(view):
    """Adapter for memory views: snapshot plus incremental clause polling."""
    seen: set[tuple[int, ...]] = set()
    last_version = -1

    def poll() -> list:
        nonlocal last_version
        version = view.version
        if version == last_version:
            return []
        last_version = version
        fresh = []
        for clause in view.clause_tuples():
            if clause not in seen:
                seen.add(clause)
                fresh.append(clause)
        return fresh

    return poll


def run(
    view,
    settings: Optional[DiversificationSettings] = None,
    control: Optional[SolveControl] = None,
    *,
    export: bool = False,
    export_max_len: int = 2,
    on_decision: Optional[Callable[[int], None]] = None,
) -> SolveOutcome:
    """Solve the CNF visible through ``view`` (a store, fork, or memory mirror).

    Returns SAT with a full model, UNSAT, or UNKNOWN after a cancel. New
    clauses appearing on the view during the search are folded in at decision
    boundaries; with ``export`` enabled, short conflict-derived clauses are
    pushed back to the view.
    """
    settings = settings or DiversificationSettings()
    solver = DpllSolver(view.var_count)
    poll = _view_reader(view)
    for clause in poll():
        solver.add_clause(clause)

    exporter = None
    if export:
        def exporter(clause: list[int]) -> None:
            export_learned(view, clause)

    def poll_live() -> list:
        if getattr(view, "alive", True) is False:
            raise ConnectionError("memory view lost")
        solver.ensure_vars(view.var_count)
        return poll()

    try:
        outcome = solver.solve(
            phases=settings.phases or {},
            control=control,
            on_decision=on_decision,
            poll_clauses=poll_live,
            exporter=exporter,
            export_max_len=export_max_len if export else 0,
        )
    except ConnectionError:
        return SolveOutcome(UNKNOWN, error="MEMORY_UNAVAILABLE")
    except Exception as exc:  # surface as UNKNOWN per solver contract
        return SolveOutcome(UNKNOWN, error=str(exc))
    if outcome.result == SAT and len(outcome.model or []) < view.var_count:
        model = list(outcome.model or [])
        model += [False] * (view.var_count - len(model))
        outcome = SolveOutcome(SAT, model=model)
    return outcome


def export_learned(view, clause: Sequence[int]) -> None:
    """Push a conflict-derived clause to the solver's own memory view."""
    adder = getattr(view, "add_clause_direct", None) or view.add_clause
    adder(list(clause))
