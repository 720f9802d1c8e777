"""A fresh ``sathub serve`` subprocess per run, and its resource counters.

The node is started with ``python -u -m sathub.cli serve --port 0
--workers 1``: unbuffered, because ``serve`` prints its endpoint and then
sleeps, so a buffered line would never reach the pipe. Resource numbers
come from ``/proc/<pid>/status`` and ``/proc/<pid>/stat`` of that process.
"""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
import time

from sathub.rpc import TransportError, web_call

_ENDPOINT = re.compile(r"serving at (http://\S+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class NodeError(RuntimeError):
    """The node did not start or stopped answering."""


class LiveNode:
    """One ``sathub serve`` process; use as a context manager so it is always reaped."""

    def __init__(self, src_dir: str, start_timeout: float = 30.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "sathub.cli", "serve", "--port", "0", "--workers", "1"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            env=env,
        )
        self.pid = self.proc.pid
        try:
            self.endpoint = self._read_endpoint(started + start_timeout)
            self._await_solver(started + start_timeout)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def _read_endpoint(self, deadline: float) -> str:
        buffered = b""
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise NodeError("node printed no endpoint in time")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise NodeError(f"node exited with code {self.proc.wait()} before serving")
            buffered += chunk
            match = _ENDPOINT.search(buffered.decode("utf-8", "replace"))
            if match:
                return match.group(1)

    def _await_solver(self, deadline: float) -> None:
        """Block until the first ``Kernel.listSolvers`` reply names a solver."""
        while True:
            try:
                if web_call(self.endpoint, "Kernel.listSolvers", timeout=5.0).get("solvers"):
                    return
            except TransportError:
                pass
            if time.perf_counter() > deadline:
                raise NodeError("node lists no solver in time")
            time.sleep(0.005)

    # -- /proc counters ------------------------------------------------------

    def _status(self, key: str) -> int:
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
        raise NodeError(f"no {key} in /proc/{self.pid}/status")

    def threads(self) -> int:
        return self._status("Threads")

    def rss_mb(self) -> float:
        return self._status("VmRSS") / 1024.0

    def cpu_s(self) -> float:
        """User plus system CPU time of the node so far."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # fields[0] is the state (field 3); utime and stime are fields 14 and 15
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def settled_threads(self, quiet_s: float = 0.2, limit_s: float = 5.0) -> int:
        """Thread count once it has not changed for ``quiet_s``.

        HTTP handler and hub connection threads exit shortly after their
        reply or their peer's close; this waits them out so the count is
        what the node keeps, not what was in flight.
        """
        end = time.perf_counter() + limit_s
        last = self.threads()
        stable_since = time.perf_counter()
        while time.perf_counter() < end:
            time.sleep(0.02)
            now = self.threads()
            if now != last:
                last, stable_since = now, time.perf_counter()
            elif time.perf_counter() - stable_since >= quiet_s:
                break
        return last

    # -- lifecycle -----------------------------------------------------------

    def stop(self) -> None:
        """Terminate the node and wait until it has exited."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "LiveNode":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
