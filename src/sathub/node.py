"""One serve node: HTTP web-call endpoint in front of the memory service,
the solver registry, and a pool of reference solver workers."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from .service import MemoryService
from .solving import (
    DiversificationSettings,
    NoSolverAvailable,
    SolveCall,
    SolverBusy,
    SolverRegistry,
    SolverWorker,
    parallelize,
)

# Largest web-call body a node reads; a longer request is refused unread.
MAX_REQUEST_BYTES = 16 * 1024 * 1024

# Seconds a web-call connection may stall on one socket read or write
# before the node drops it.
REQUEST_TIMEOUT = 10.0


class MalformedArgument(ValueError):
    """A web-call argument of the wrong type or shape."""


def _number(argument: dict, key: str, convert, default):
    """``convert(argument[key])``; MalformedArgument if that fails."""
    value = argument.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise MalformedArgument(f"{key} must be a number, got {value!r}") from None


class ServerNode:
    """Long-running service: SAT memories, solver workers, one /webcall endpoint."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        lock_timeout: float = 10.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one solver worker, got {workers}")
        self.memory = MemoryService(host=host, lock_timeout=lock_timeout)
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
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ServerNode":
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self.memory.shutdown()

    def handle_web_call(self, envelope) -> dict:
        """Route one envelope to the memory service, a solver, or the kernel.

        Every web call goes through here; failures land in the reply's "error".
        """
        if not isinstance(envelope, dict):
            return {"error": "MALFORMED_ENVELOPE: envelope must be a JSON object"}
        method = envelope.get("method") or ""
        web_pid = envelope.get("webPid") or ""
        object_ref = envelope.get("objectRef") or ""
        argument = envelope.get("argument")
        if argument is None:
            argument = {}
        if not isinstance(method, str):
            return {"error": "MALFORMED_ENVELOPE: method must be a string"}
        if not isinstance(argument, dict):
            return {"error": "MALFORMED_ENVELOPE: argument must be a JSON object"}
        try:
            if method == "SatCnf.create":
                obj = self.memory.create_memory(_number(argument, "initialVariableCount", int, 0))
                return {"objectRef": obj.object_id, "directUrl": obj.direct_url}
            if method.startswith("SatCnf."):
                obj = self.memory.get(object_ref)
                if obj is None:
                    return {"error": "NO_SUCH_OBJECT"}
                if method == "SatCnf.addVariable":
                    return {"index": obj.add_variables(1)}
                if method == "SatCnf.addClause":
                    return {"added": obj.add_clause(argument.get("clause") or [])}
                if method == "SatCnf.clauses":
                    return {"clauses": obj.view.clauses()}
                if method == "SatCnf.fork":
                    child = self.memory.fork_memory(obj, bool(argument.get("detach", False)))
                    return {"forkId": child.object_id, "directUrl": child.direct_url}
                if method == "SatCnf.delete":
                    self.memory.delete_memory(obj.object_id)
                    return {}
            elif method.startswith("SatSolver."):
                worker = self.registry.get(object_ref)
                if worker is None:
                    return {"error": "NO_SUCH_OBJECT"}
                if method == "SatSolver.solve":
                    outcome = worker.solve(
                        argument.get("satMemoryUrl") or "",
                        timeout=_number(argument, "timeout", float, 0.0),
                        diversification=DiversificationSettings.from_json(
                            argument.get("diversification")
                        ),
                        web_pid=web_pid,
                    )
                    return outcome.as_json()
                if method in ("SatSolver.pause", "SatSolver.resume", "SatSolver.cancel"):
                    getattr(worker, method.removeprefix("SatSolver."))(web_pid=web_pid)
                    return {}
            elif method == "Kernel.parallelize":
                items = argument.get("calls") or []
                if not isinstance(items, list) or not all(isinstance(i, dict) for i in items):
                    raise MalformedArgument("calls must be a list of objects")
                calls = [
                    SolveCall(
                        memory=item.get("satMemoryUrl"),
                        solver_id=item.get("solverId"),
                        timeout=_number(item, "timeout", float, 0.0),
                        diversification=DiversificationSettings.from_json(
                            item.get("diversification")
                        ),
                    )
                    for item in items
                ]
                results = parallelize(
                    self.registry,
                    calls,
                    first_sat_cancels=bool(argument.get("firstSatCancels", False)),
                    web_pid=web_pid,
                )
                return {"results": [r.as_json() for r in results]}
            elif method == "Kernel.listSolvers":
                return {"solvers": [r.as_json() for r in self.registry.list_solvers()]}
            elif method == "Kernel.findAvailable":
                worker = self.registry.find_available(_number(argument, "timeout", float, 0.0))
                return {"solverId": worker.record.solver_id}
            return {"error": "NO_SUCH_METHOD"}
        except SolverBusy:
            return {"error": "BUSY"}
        except NoSolverAvailable:
            return {"error": "NONE_AVAILABLE"}
        except MalformedArgument as exc:
            return {"error": f"MALFORMED_ENVELOPE: {exc}"}
        except Exception as exc:
            return {"error": str(exc)}
