"""Client access to a remote SAT memory: a local replica kept in sync by the hub.

``connect`` opens the direct socket named by a memory's ``directUrl``,
applies the initial snapshot, and then mirrors every synchronization
message. Locally originated additions are applied to the replica once at
send time; the hub never echoes them back. Clause sends are
fire-and-forget; variable operations await their indexed responses.
Outbound frames are queued and sent, coalesced, by one writer thread.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from itertools import chain

from . import wire
from .cnf import ClauseRangeError, CnfStore, canonical_clause
from .service import FrameWriter


# Seconds a mirror waits for a reply from the hub, and for ``close`` to finish.
REQUEST_TIMEOUT = 30.0


class MirrorProtocolError(ConnectionError):
    """The server sent something the mirror cannot reconcile."""


class LockTimeout(Exception):
    """The variable lock was denied or force-released mid-sequence."""


def parse_direct_url(url: str) -> tuple[str, int]:
    if not url.startswith("tcp://"):
        raise ValueError(f"expected tcp:// direct URL, got {url!r}")
    host, _, port = url[len("tcp://"):].partition(":")
    if not host or not port.isdigit():
        raise ValueError(f"malformed direct URL: {url!r}")
    return host, int(port)


def connect(direct_url: str, timeout: float = 5.0) -> "MemoryMirror":
    """Open a mirror of the memory at ``direct_url`` (snapshot applied)."""
    host, port = parse_direct_url(direct_url)
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(None)
    return MemoryMirror(sock, direct_url)


def _snapshot_in_range(var_count: int, clauses: list[list[int]]) -> bool:
    """Every clause non-empty and every literal a variable 1..var_count."""
    lits = set(chain.from_iterable(clauses))
    if not all(clauses) or 0 in lits:
        return False
    return not lits or (min(lits) >= -var_count and max(lits) <= var_count)


class MemoryMirror:
    """Local replica of a remote SAT memory plus its direct-protocol channel."""

    def __init__(self, sock: socket.socket, direct_url: str) -> None:
        self.direct_url = direct_url
        self.alive = True
        self.pending_lock = False
        self._sock = sock
        self._stream = sock.makefile("rb")
        self._request_lock = threading.Lock()
        self._responses: queue.Queue = queue.Queue()

        opcode, payload = wire.read_message(self._stream)
        if opcode != wire.SNAPSHOT:
            raise MirrorProtocolError(f"expected snapshot on connect, got opcode {opcode}")
        var_count, clauses = payload
        if not _snapshot_in_range(var_count, clauses):
            self._stream.close()
            sock.close()
            raise MirrorProtocolError("snapshot holds an empty clause or a literal out of range")
        self.store = CnfStore(var_count)
        # the hub's clauses are already canonical and distinct
        self.store._extend_canonical([tuple(c) for c in clauses])

        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()
        self._writer = FrameWriter(sock, socket.SHUT_WR)

    # -- replica views -------------------------------------------------------

    @property
    def var_count(self) -> int:
        return self.store.var_count

    @property
    def version(self) -> int:
        return self.store.version

    def clauses(self) -> list[list[int]]:
        return self.store.clauses()

    def clause_tuples(self) -> list[tuple[int, ...]]:
        return self.store.clause_tuples()

    def clauses_since(self, cursor: tuple[int, ...] = ()):
        return self.store.clauses_since(cursor)

    def evaluate(self, assignment) -> bool:
        return self.store.evaluate(assignment)

    # -- channel ---------------------------------------------------------------

    def _read_loop(self) -> None:
        try:
            while True:
                opcode, payload = wire.read_message(self._stream)
                if opcode == wire.ADD_CLAUSE:
                    self.store.add_clause(payload)
                elif opcode == wire.ADD_VARS:
                    self.store.add_variables(payload)
                else:
                    self._responses.put((opcode, payload))
        except (wire.ConnectionClosed, wire.MalformedFrame, OSError, ValueError):
            pass
        finally:
            self.alive = False
            self._responses.put(None)

    def _send(self, data: bytes) -> None:
        """Queue frames to go out after every frame queued before them."""
        if not (self.alive and self._writer.send(data)):
            self.alive = False
            raise ConnectionError("mirror connection lost")

    def _request(self, data: bytes, expected: int):
        with self._request_lock:
            self._send(data)
            return self._response(expected)

    def _response(self, expected: int):
        """Await the next response; raise the error it carries unless it is ``expected``."""
        try:
            item = self._responses.get(timeout=REQUEST_TIMEOUT)
        except queue.Empty:
            raise TimeoutError("no response from memory service") from None
        if item is None:
            self._responses.put(None)  # every later wait fails at once too
            raise ConnectionError("mirror connection lost")
        opcode, payload = item
        if opcode == expected:
            return payload
        if opcode == wire.ERROR:
            code, message = payload
            if code == wire.ERR_LOCKED:
                raise LockTimeout(message)
            if code == wire.ERR_OUT_OF_RANGE:
                raise ClauseRangeError(message)
            raise MirrorProtocolError(message)
        raise MirrorProtocolError(f"unexpected response opcode {opcode}")

    # -- operations --------------------------------------------------------------

    def add_clause_direct(self, literals) -> bool:
        """Validate locally, apply to the replica, and send (no acknowledgement)."""
        clause = canonical_clause(literals)
        added = self.store._add_canonical(clause)
        self._send(wire.encode_add_clause(clause))
        return added

    def add_variable(self) -> int:
        """One new variable, reserved like ``reserve_variables(1)``.

        ``ADD_VARIABLE`` would release the hub's lock with its reply, so
        another peer's reservation could reach the replica first.
        """
        return self.reserve_variables(1)

    def reserve_variables(self, n: int) -> int:
        """Lock, add ``n`` variables, unlock; returns the first new index.

        LOCK_VARS and ADD_VARS leave in one write and both replies are
        awaited together. UNLOCK_VARS is sent only once the replica holds
        the new variables, so no other peer's reservation can reach the
        replica ahead of them.
        """
        if n < 1:
            raise ValueError(f"variable count must be >= 1, got {n}")
        if self.pending_lock:
            raise LockTimeout("a lock sequence is already pending on this mirror")
        self.pending_lock = True
        try:
            with self._request_lock:
                self._send(wire.encode_lock_vars() + wire.encode_add_vars(n))
                try:
                    self._response(wire.LOCK_GRANTED)
                except LockTimeout:
                    # denied because this connection already holds the lock:
                    # the hub still applies ADD_VARS, so the replica follows it
                    self._sync_var_count(self._response(wire.FIRST_INDEX), n)
                    raise
                try:
                    first = self._response(wire.FIRST_INDEX)
                    self._sync_var_count(first, n)
                finally:
                    # also after a failed sync: the hub must not keep the lock
                    self._writer.send(wire.encode_unlock_vars())
                return first
        finally:
            self.pending_lock = False

    def request_snapshot(self) -> tuple[int, list[list[int]]]:
        """Fetch a fresh full snapshot (replica is already converged; returns raw data)."""
        return self._request(wire.encode_snapshot_request(), wire.SNAPSHOT)

    def _sync_var_count(self, first: int, n: int) -> None:
        with self.store.family_lock:
            if first != self.store.var_count + 1:
                self.alive = False
                raise MirrorProtocolError(
                    f"index {first} does not follow replica var count {self.store.var_count}"
                )
            self.store.add_variables(n)

    def close(self) -> None:
        """Send every queued frame, then wait until the hub has applied them all.

        The mirror half-closes its socket after the last frame; the hub
        closes its side only once it has applied every frame before that.
        Waits at most ``REQUEST_TIMEOUT``, then closes regardless.
        """
        self.alive = False
        deadline = time.monotonic() + REQUEST_TIMEOUT
        self._writer.close()
        self._writer.join(REQUEST_TIMEOUT)
        self._reader.join(max(0.0, deadline - time.monotonic()))
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._stream.close()
        self._sock.close()
