"""Shared-solver contract: diversification, registry, workers and parallelize."""

from __future__ import annotations

import itertools
import re
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Optional, Sequence

from . import client, dpll
from .dpll import SolveOutcome

IDLE = "IDLE"
BUSY = "BUSY"
PAUSED = "PAUSED"

_PHASE_KEY = re.compile(r"^x([1-9][0-9]*)$")


class SolverBusy(Exception):
    """The solver is working on another instance and did not free up in time."""


class SolverStateError(Exception):
    """Operation not permitted in the solver's current state."""


class WebPidMismatch(Exception):
    """Control call from a web process other than the one that started the solve."""


class NoSolverAvailable(Exception):
    """No registered solver became IDLE within the timeout."""


@dataclass
class DiversificationSettings:
    """Portfolio settings: solver index, portfolio size, initial variable phases."""

    rank: int = 0
    size: int = 1
    phases: Optional[dict[int, bool]] = None

    def __post_init__(self) -> None:
        if not 0 <= self.rank < self.size:
            raise ValueError(f"rank {self.rank} outside [0, {self.size})")
        if self.phases is not None:
            for var, value in self.phases.items():
                if not isinstance(var, int) or var < 1:
                    raise ValueError(f"bad phase variable: {var!r}")
                if not isinstance(value, bool):
                    raise ValueError(f"phase for x{var} must be a boolean")

    @classmethod
    def from_json(cls, obj) -> "DiversificationSettings":
        """Settings from a web-call value; ValueError says what is malformed."""
        obj = {} if obj is None else obj
        if not isinstance(obj, dict):
            raise ValueError("must be a JSON object")
        phases = obj.get("phases")
        if phases is not None:
            if not isinstance(phases, dict):
                raise ValueError("phases must be a JSON object")
            by_var = {}
            for key, value in phases.items():
                match = _PHASE_KEY.match(str(key))
                if not match:
                    raise ValueError(f"bad phase key: {key!r}")
                by_var[int(match.group(1))] = value  # __post_init__ checks it is a boolean
            phases = by_var
        rank, size = obj.get("rank", 0), obj.get("size", 1)
        for name, value in (("rank", rank), ("size", size)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be a JSON integer, got {value!r}")
        return cls(rank=rank, size=size, phases=phases)


@dataclass
class SolverRecord:
    solver_id: str
    solver_type: str
    endpoint: str = ""
    state: str = IDLE
    current_web_pid: Optional[str] = None

    def as_json(self) -> dict:
        return {
            "solverId": self.solver_id,
            "solverType": self.solver_type,
            "endpoint": self.endpoint,
            "state": self.state,
        }


class SolverRegistry:
    """Root-memory analog: the set of registered solver workers, by registration
    order. Its condition is every registered worker's too."""

    def __init__(self) -> None:
        self._cv = threading.Condition()
        self._workers: dict[str, "SolverWorker"] = {}

    def register(self, worker: "SolverWorker") -> SolverRecord:
        with self._cv:
            self._workers[worker.record.solver_id] = worker
            self._cv.notify_all()
        return worker.record

    def get(self, solver_id: str) -> Optional["SolverWorker"]:
        with self._cv:
            return self._workers.get(solver_id)

    def workers(self) -> list["SolverWorker"]:
        with self._cv:
            return list(self._workers.values())

    def list_solvers(self) -> list[SolverRecord]:
        with self._cv:
            return [w.record for w in self._workers.values()]

    def find_available(self, timeout: float = 0.0) -> "SolverWorker":
        """First IDLE worker in registration order, waiting up to ``timeout`` seconds."""
        with self._cv:
            end = time.monotonic() + max(0.0, timeout)
            while True:
                for worker in self._workers.values():
                    if worker.record.state == IDLE:
                        return worker
                remaining = end - time.monotonic()
                if remaining <= 0:
                    raise NoSolverAvailable("no IDLE solver within timeout")
                self._cv.wait(remaining)


class SolverWorker:
    """Hosts one reference solver and enforces the one-instance-at-a-time rule."""

    def __init__(
        self,
        registry: Optional[SolverRegistry] = None,
        endpoint: str = "",
        export: bool = False,
    ) -> None:
        self.record = SolverRecord(
            solver_id=uuid.uuid4().hex, solver_type="ReferenceDpll", endpoint=endpoint
        )
        self.export = export
        self._cv = registry._cv if registry is not None else threading.Condition()
        self._control = None
        if registry is not None:
            registry.register(self)

    def _set_state(self, state: str) -> None:
        self.record.state = state
        self._cv.notify_all()

    def solve(
        self,
        memory,
        *,
        timeout: float = 0.0,
        diversification: Optional[DiversificationSettings] = None,
        web_pid: str = "",
        on_decision=None,
        control=None,
    ) -> SolveOutcome:
        """Run the reference solver on ``memory`` (a direct URL or a local view).

        Blocks until an outcome is available. If the worker is busy and does
        not free up within ``timeout`` seconds, raises SolverBusy. A
        ``control`` (``dpll.SolveControl``) that is cancelled before the
        worker is taken answers UNKNOWN without solving.
        """
        control = control or dpll.SolveControl(self._cv)
        with self._cv:
            end = time.monotonic() + max(0.0, timeout)
            while self.record.state != IDLE and not control.cancelled:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    raise SolverBusy("solver busy")
                self._cv.wait(remaining)
            if control.cancelled:
                return SolveOutcome(dpll.UNKNOWN)
            self._control = control
            self.record.current_web_pid = web_pid
            self._set_state(BUSY)

        mirror = None
        try:
            if isinstance(memory, str):
                try:
                    mirror = client.connect(memory)
                except OSError:
                    return SolveOutcome(dpll.UNKNOWN, error="MEMORY_UNAVAILABLE")
                view = mirror
            else:
                view = memory
            return dpll.run(
                view,
                diversification,
                control,
                export=self.export,
                on_decision=on_decision,
            )
        finally:
            if mirror is not None:
                mirror.close()
            with self._cv:
                self._control = None
                self.record.current_web_pid = None
                self._set_state(IDLE)

    def _check_pid(self, web_pid: str) -> None:
        if self.record.current_web_pid != web_pid:
            raise WebPidMismatch("control call from a different web process")

    def pause(self, web_pid: str = "") -> None:
        with self._cv:
            if self.record.state != BUSY:
                raise SolverStateError(f"cannot pause in state {self.record.state}")
            self._check_pid(web_pid)
            self._control.pause()
            self._set_state(PAUSED)

    def resume(self, web_pid: str = "") -> None:
        with self._cv:
            if self.record.state != PAUSED:
                raise SolverStateError(f"cannot resume in state {self.record.state}")
            self._check_pid(web_pid)
            self._control.resume()
            self._set_state(BUSY)

    def cancel(self, web_pid: str = "") -> None:
        """Abort the in-flight solve; returns once the solve call has exited."""
        with self._cv:
            if self.record.state not in (BUSY, PAUSED):
                raise SolverStateError(f"cannot cancel in state {self.record.state}")
            self._check_pid(web_pid)
            self._control.cancel()
            while self.record.state != IDLE:
                self._cv.wait()


@dataclass
class SolveCall:
    """One child of a parallelize group."""

    memory: object
    solver_id: Optional[str] = None
    timeout: float = 0.0
    diversification: Optional[DiversificationSettings] = None


def parallelize(
    registry: SolverRegistry,
    calls: Sequence[SolveCall],
    *,
    first_sat_cancels: bool = False,
    web_pid: str = "",
) -> list[SolveOutcome]:
    """Run solve calls on threads; results align positionally with ``calls``.

    Calls without a ``solver_id`` take the registry's workers round-robin.
    Per-child failures (BUSY, unknown solver, an exception) occupy that
    child's slot rather than aborting the group. With ``first_sat_cancels``,
    the first SAT/UNSAT child cancels every sibling call, running or not yet
    started, and those report UNKNOWN.
    """
    pool = itertools.cycle(registry.workers())
    assigned = [
        registry.get(call.solver_id) if call.solver_id is not None else next(pool, None)
        for call in calls
    ]
    # on the registry's condition, so a cancel wakes a sibling waiting for its worker
    controls = [dpll.SolveControl(registry._cv) for _ in calls]
    results: list[Optional[SolveOutcome]] = [None] * len(calls)

    def run_child(slot: int) -> None:
        call, worker = calls[slot], assigned[slot]
        try:
            if worker is None:
                code = "NO_SUCH_SOLVER" if call.solver_id else "NONE_AVAILABLE"
                outcome = SolveOutcome(None, error=code)
            else:
                outcome = worker.solve(
                    call.memory,
                    timeout=call.timeout,
                    diversification=call.diversification,
                    web_pid=web_pid,
                    control=controls[slot],
                )
        except SolverBusy:
            outcome = SolveOutcome(None, error="BUSY")
        except Exception as exc:
            outcome = SolveOutcome(None, error=str(exc) or type(exc).__name__)
        results[slot] = outcome
        if first_sat_cancels and outcome.result in ("SAT", "UNSAT"):
            for other, control in enumerate(controls):
                if other != slot:
                    control.cancel()

    threads = [
        threading.Thread(target=run_child, args=(slot,), daemon=True) for slot in range(len(calls))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results
