"""Shared-solver contract: diversification, outcomes, registry, and parallelize/join."""

from __future__ import annotations

import re
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Optional, Sequence

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
    def from_json(cls, obj: Optional[dict]) -> "DiversificationSettings":
        obj = obj or {}
        phases = None
        if obj.get("phases") is not None:
            phases = {}
            for key, value in obj["phases"].items():
                match = _PHASE_KEY.match(str(key))
                if not match:
                    raise ValueError(f"bad phase key: {key!r}")
                phases[int(match.group(1))] = bool(value)
        return cls(rank=int(obj.get("rank", 0)), size=int(obj.get("size", 1)), phases=phases)


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
    """Root-memory analog: the set of registered solver workers, by registration order."""

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

    def _state_changed(self) -> None:
        with self._cv:
            self._cv.notify_all()


class SolverWorker:
    """Hosts one reference solver and enforces the one-instance-at-a-time rule."""

    def __init__(
        self,
        registry: Optional[SolverRegistry] = None,
        endpoint: str = "",
        export: bool = False,
        export_max_len: int = 2,
    ) -> None:
        self.record = SolverRecord(
            solver_id=uuid.uuid4().hex, solver_type="ReferenceDpll", endpoint=endpoint
        )
        self.registry = registry
        self.export = export
        self.export_max_len = export_max_len
        self._cv = threading.Condition()
        self._control = None
        if registry is not None:
            registry.register(self)

    def _set_state(self, state: str) -> None:
        self.record.state = state
        self._cv.notify_all()
        if self.registry is not None:
            self.registry._state_changed()

    def solve(
        self,
        memory,
        *,
        timeout: float = 0.0,
        diversification: Optional[DiversificationSettings] = None,
        web_pid: str = "",
        on_decision=None,
    ) -> SolveOutcome:
        """Run the reference solver on ``memory`` (a direct URL or a local view).

        Blocks until an outcome is available. If the worker is busy and does
        not free up within ``timeout`` seconds, raises SolverBusy.
        """
        from . import dpll  # deferred: dpll depends on this module's types

        with self._cv:
            end = time.monotonic() + max(0.0, timeout)
            while self.record.state != IDLE:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    raise SolverBusy("solver busy")
                self._cv.wait(remaining)
            control = dpll.SolveControl()
            self._control = control
            self.record.current_web_pid = web_pid
            self._set_state(BUSY)

        mirror = None
        try:
            if isinstance(memory, str):
                from .client import connect

                try:
                    mirror = connect(memory)
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
                export_max_len=self.export_max_len,
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


class JoinGroup:
    """Counter-based join: completes when every expected slot has been filled once."""

    _EMPTY = object()

    def __init__(self, expected: int) -> None:
        self.expected = expected
        self.counter = 0
        self.results = [self._EMPTY] * expected
        self._cv = threading.Condition()

    def join(self, slot: int, value) -> None:
        with self._cv:
            if self.results[slot] is not self._EMPTY:
                raise ValueError(f"slot {slot} already filled")
            self.results[slot] = value
            self.counter += 1
            if self.counter == self.expected:
                self._cv.notify_all()

    def wait(self, timeout: Optional[float] = None) -> list:
        with self._cv:
            if not self._cv.wait_for(lambda: self.counter == self.expected, timeout):
                raise TimeoutError("join group incomplete")
            return list(self.results)


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
    """Dispatch solve calls in parallel; results align positionally with ``calls``.

    Per-child failures (BUSY, unknown solver) occupy that child's slot rather
    than aborting the group. With ``first_sat_cancels``, the first SAT/UNSAT
    child cancels its still-running siblings, which then report UNKNOWN.
    """
    if not calls:
        return []
    group = JoinGroup(len(calls))
    workers_in_order = registry.workers()
    short_circuit = threading.Event()
    assigned: list[Optional[SolverWorker]] = []
    auto_index = 0
    for call in calls:
        if call.solver_id is not None:
            assigned.append(registry.get(call.solver_id))
        elif workers_in_order:
            assigned.append(workers_in_order[auto_index % len(workers_in_order)])
            auto_index += 1
        else:
            assigned.append(None)

    def run_child(slot: int, call: SolveCall, worker: Optional[SolverWorker]) -> None:
        if worker is None:
            code = "NO_SUCH_SOLVER" if call.solver_id else "NONE_AVAILABLE"
            group.join(slot, SolveOutcome(None, error=code))
            return
        if first_sat_cancels and short_circuit.is_set():
            group.join(slot, SolveOutcome("UNKNOWN"))
            return
        try:
            outcome = worker.solve(
                call.memory,
                timeout=call.timeout,
                diversification=call.diversification,
                web_pid=web_pid,
            )
        except SolverBusy:
            outcome = SolveOutcome(None, error="BUSY")
        group.join(slot, outcome)
        if first_sat_cancels and outcome.result in ("SAT", "UNSAT"):
            short_circuit.set()
            for other_slot, other in enumerate(assigned):
                if other is None or other_slot == slot:
                    continue
                try:
                    other.cancel(web_pid=web_pid)
                except (SolverStateError, WebPidMismatch):
                    pass

    threads = [
        threading.Thread(target=run_child, args=(i, call, assigned[i]), daemon=True)
        for i, call in enumerate(calls)
    ]
    for t in threads:
        t.start()
    results = group.wait()
    for t in threads:
        t.join()
    return results
