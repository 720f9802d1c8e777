"""One serve node: HTTP web-call endpoint in front of the memory service,
the solver registry, and a pool of reference solver workers."""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from . import wire
from .client import parse_direct_url
from .cnf import raise_first_error
from .service import MemoryService, NoSuchMemory
from .solving import (
    NoSolverAvailable,
    SolveCall,
    SolverBusy,
    SolverRegistry,
    SolverWorker,
    parallelize,
)

# Largest web-call body a node reads; a longer request is refused unread.
MAX_REQUEST_BYTES = 16 * 1024 * 1024

# Most calls one Kernel.parallelize takes; it starts one thread per call.
MAX_PARALLEL_CALLS = 64

# Seconds a web-call connection may stall on one socket read or write
# before the node drops it.
REQUEST_TIMEOUT = 10.0

# Seconds between the HTTP server's checks for a shutdown request; ``stop``
# waits up to this long.
POLL_INTERVAL = 0.05

# A phase key names one variable, "x" and its index, as the whole key.
_PHASE_KEY = re.compile(r"x([1-9][0-9]*)")


class MalformedArgument(ValueError):
    """A web-call argument of the wrong type or shape."""


def _count(argument: dict, key: str) -> int:
    """``argument[key]``, default 0, if it is a JSON integer; MalformedArgument if not."""
    value = argument.get(key, 0)
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedArgument(f"{key}: must be a JSON integer, got {value!r}")
    return value


def _timeout(argument: dict) -> float:
    """``argument["timeout"]``, default 0, if it is a JSON number a wait accepts.

    A wait takes at most ``threading.TIMEOUT_MAX`` seconds; anything else
    (a bool, a string, NaN, an infinity or a number of larger magnitude)
    is a MalformedArgument.
    """
    value = argument.get("timeout", 0.0)
    # NaN fails the comparison too
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        if abs(value) <= threading.TIMEOUT_MAX:
            return float(value)
    raise MalformedArgument(
        f"timeout: must be a JSON number of magnitude at most {threading.TIMEOUT_MAX:.0f}, got {value!r}"
    )


def _string(obj: dict, key: str) -> Optional[str]:
    """``obj[key]``, None when absent or null, if it is a string; MalformedArgument if not."""
    value = obj.get(key)
    if value is not None and not isinstance(value, str):
        raise MalformedArgument(f"{key}: must be a string, got {value!r}")
    return value


def _flag(argument: dict, key: str) -> bool:
    """``argument[key]``, default false, if it is a JSON boolean; MalformedArgument if not."""
    value = argument.get(key, False)
    if not isinstance(value, bool):
        raise MalformedArgument(f"{key}: must be a JSON boolean, got {value!r}")
    return value


def _phases(argument: dict) -> Optional[dict[int, bool]]:
    """The phases under ``argument["diversification"]``, by variable, or None
    when there are none; MalformedArgument if invalid. The diversification's
    other keys are ignored."""
    diversification = argument.get("diversification")
    if diversification is None:
        return None
    if not isinstance(diversification, dict):
        raise MalformedArgument("diversification: must be a JSON object")
    phases = diversification.get("phases")
    if phases is None:
        return None
    if not isinstance(phases, dict):
        raise MalformedArgument("diversification: phases must be a JSON object")
    by_var = {}
    for key in phases:
        match = _PHASE_KEY.fullmatch(key)
        if not match:
            raise MalformedArgument(f"diversification: bad phase key: {key!r}")
        by_var[int(match.group(1))] = phases[key]
    for var, value in by_var.items():
        if not isinstance(value, bool):
            raise MalformedArgument(f"diversification: phase for x{var} must be a boolean")
    return by_var


def _memory_url(argument: dict) -> str:
    """``argument["satMemoryUrl"]`` if it is a tcp://host:port URL; MalformedArgument if not."""
    url = argument.get("satMemoryUrl")
    if url is None:
        raise MalformedArgument("satMemoryUrl: missing")
    if not isinstance(url, str):
        raise MalformedArgument(f"satMemoryUrl: must be a string, got {url!r}")
    try:
        parse_direct_url(url)
    except ValueError as exc:
        raise MalformedArgument(f"satMemoryUrl: {exc}") from None
    return url


class ServerNode:
    """Long-running service: SAT memories, solver workers, one /webcall endpoint."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one solver worker, got {workers}")
        self.memory = MemoryService(host=host)
        self.registry = SolverRegistry()

        node = self

        class Handler(BaseHTTPRequestHandler):
            timeout = REQUEST_TIMEOUT

            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                if self.path != "/webcall":
                    self.send_error(404)
                    return
                header = self.headers.get("Content-Length") or "0"
                try:
                    length = int(header)
                except ValueError:
                    length = -1
                if length < 0:
                    self._reply({"error": f"MALFORMED_ENVELOPE: bad Content-Length {header!r}"})
                    return
                if length > MAX_REQUEST_BYTES:
                    self._reply({"error": "REQUEST_TOO_LARGE"})
                    return
                try:
                    body = self.rfile.read(length)
                except OSError:
                    return
                if len(body) < length:
                    return  # the client hung up mid-body: nobody to answer
                try:
                    envelope = json.loads(body)
                except ValueError as exc:
                    result = {"error": f"MALFORMED_ENVELOPE: {exc}"}
                else:
                    result = node.handle_web_call(envelope)
                self._reply(result)

            def _reply(self, result: dict) -> None:
                data = json.dumps(result).encode("utf-8")
                try:
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data)
                except OSError:
                    pass  # the client is gone or stalled; the connection closes

            def log_message(self, fmt, *args) -> None:
                pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.endpoint = f"http://{host}:{self._httpd.server_address[1]}"
        self.workers = [
            SolverWorker(self.registry, endpoint=self.endpoint) for _ in range(workers)
        ]
        self._serving = False

    def serve(self) -> None:
        """Answer web calls on the calling thread until ``stop``."""
        self._serving = True
        self._httpd.serve_forever(POLL_INTERVAL)

    def start(self) -> "ServerNode":
        self._serving = True  # a ``stop`` before the thread runs still waits for it
        threading.Thread(target=self.serve, daemon=True).start()
        return self

    def stop(self) -> None:
        if self._serving:
            # shutdown() waits for serve_forever, which never ran without serve()
            self._httpd.shutdown()
        self._httpd.server_close()
        self.memory.shutdown()

    def _solve_target(self, argument: dict):
        """What a solve of ``argument["satMemoryUrl"]`` reads: the memory itself
        when the URL is exactly a live memory's ``directUrl`` on this node,
        otherwise the URL, which the worker mirrors."""
        url = _memory_url(argument)
        return self.memory.by_url(url) or url

    def handle_web_call(self, envelope) -> dict:
        """Route one envelope to the memory service, a solver, or the kernel.

        Every web call goes through here; failures land in the reply's "error".
        """
        if not isinstance(envelope, dict):
            return {"error": "MALFORMED_ENVELOPE: envelope must be a JSON object"}
        try:
            method = _string(envelope, "method") or ""
            object_ref = _string(envelope, "objectRef") or ""
            web_pid = _string(envelope, "webPid") or ""
            argument = envelope.get("argument")
            if argument is None:
                argument = {}
            if not isinstance(argument, dict):
                raise MalformedArgument("argument must be a JSON object")
            if method == "SatCnf.create":
                count = _count(argument, "initialVariableCount")
                if not 0 <= count <= wire.MAX_VARIABLE:
                    raise MalformedArgument(
                        f"initialVariableCount: must be in 0..{wire.MAX_VARIABLE}, got {count}"
                    )
                obj = self.memory.create_memory(count)
                return {"objectRef": obj.object_id, "directUrl": obj.direct_url}
            if method.startswith("SatCnf."):
                obj = self.memory.get(object_ref)
                if obj is None:
                    return {"error": "NO_SUCH_OBJECT"}
                if method == "SatCnf.addVariable":
                    return {"index": obj.reserve_variables(1)}
                if method == "SatCnf.addClause":
                    clause = argument.get("clause")
                    if not isinstance(clause, list):
                        raise MalformedArgument(f"clause: must be a list, got {clause!r}")
                    return {"added": raise_first_error(obj.add_clauses([clause]))[0]}
                if method == "SatCnf.clauses":
                    return {"clauses": obj.view.clauses()}
                if method == "SatCnf.fork":
                    child = self.memory.fork_memory(obj, _flag(argument, "detach"))
                    return {"forkId": child.object_id, "directUrl": child.direct_url}
                if method == "SatCnf.delete":
                    self.memory.delete_memory(obj.object_id)
                    return {}
            elif method.startswith("SatSolver."):
                worker = self.registry.get(object_ref)
                if worker is None:
                    return {"error": "NO_SUCH_OBJECT"}
                if method == "SatSolver.solve":
                    # a bad timeout or diversification is named before a bad URL
                    timeout = _timeout(argument)
                    phases = _phases(argument)
                    outcome = worker.solve(
                        self._solve_target(argument),
                        timeout=timeout,
                        phases=phases,
                        web_pid=web_pid,
                    )
                    return outcome.as_json()
                if method in ("SatSolver.pause", "SatSolver.resume", "SatSolver.cancel"):
                    getattr(worker, method.removeprefix("SatSolver."))(web_pid=web_pid)
                    return {}
            elif method == "Kernel.parallelize":
                items = [] if argument.get("calls") is None else argument["calls"]
                if not isinstance(items, list) or not all(isinstance(i, dict) for i in items):
                    raise MalformedArgument("calls: must be a list of objects")
                if len(items) > MAX_PARALLEL_CALLS:
                    raise MalformedArgument(
                        f"calls: at most {MAX_PARALLEL_CALLS} calls, got {len(items)}"
                    )
                # every call's diversification is checked before any call's URL
                phases = [_phases(item) for item in items]
                calls = [
                    SolveCall(
                        solver_id=_string(item, "solverId"),
                        timeout=_timeout(item),
                        phases=item_phases,
                        memory=self._solve_target(item),
                    )
                    for item, item_phases in zip(items, phases)
                ]
                results = parallelize(
                    self.registry,
                    calls,
                    first_sat_cancels=_flag(argument, "firstSatCancels"),
                    web_pid=web_pid,
                )
                return {"results": [r.as_json() for r in results]}
            elif method == "Kernel.listSolvers":
                return {"solvers": [w.as_json() for w in self.registry.workers()]}
            elif method == "Kernel.findAvailable":
                worker = self.registry.find_available(_timeout(argument))
                return {"solverId": worker.solver_id}
            return {"error": "NO_SUCH_METHOD"}
        except NoSuchMemory:
            return {"error": "NO_SUCH_OBJECT"}
        except SolverBusy:
            return {"error": "BUSY"}
        except NoSolverAvailable:
            return {"error": "NONE_AVAILABLE"}
        except MalformedArgument as exc:
            return {"error": f"MALFORMED_ENVELOPE: {exc}"}
        except Exception as exc:
            return {"error": str(exc)}
