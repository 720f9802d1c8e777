"""Client access to a remote SAT memory: a local replica kept in sync by the hub.

``connect`` opens the direct socket named by a memory's ``directUrl``,
applies the initial snapshot, and then mirrors every synchronization
message on one reader thread. Each call's frames go out in one
``sendall`` from the calling thread. A batch of clauses takes
``CnfStore``'s outcomes in one replica-lock section, and the clauses the
replica newly stored go out fire-and-forget; the hub never echoes them
back. A variable reservation is one frame: the reader thread adds the
block to the replica where it reads the index reply in the hub's ordered
stream, then hands the reply to the waiting caller. Inbound, the snapshot
and then each read's worth of frames are decoded together and applied in
stream order, each run of clauses in one batch.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time
from collections import deque
from itertools import chain, groupby
from operator import itemgetter

from . import wire
from .cnf import ClauseRangeError, CnfStore, canonical_outcomes, raise_first_error


# Seconds a mirror waits for a reply from the hub, and for ``close`` to finish.
REQUEST_TIMEOUT = 30.0

log = logging.getLogger(__name__)


class MirrorProtocolError(ConnectionError):
    """The server sent something the mirror cannot reconcile."""


class LockTimeout(Exception):
    """The hub denied or force-released an explicit variable lock (``ERR_LOCKED``)."""


def parse_direct_url(url: str) -> tuple[str, int]:
    if not url.startswith("tcp://"):
        raise ValueError(f"expected tcp:// direct URL, got {url!r}")
    host, _, port = url[len("tcp://"):].partition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise ValueError(f"malformed direct URL: {url!r}")
    return host, int(port)


def connect(direct_url: str, timeout: float = 5.0) -> "MemoryMirror":
    """Open a mirror of the memory at ``direct_url`` (snapshot applied).

    ``timeout`` bounds the connect, and then the whole snapshot; the socket
    blocks without a timeout only once the snapshot is applied. A peer that
    sends no valid snapshot in time raises ``OSError``: ``TimeoutError``, or
    ``MirrorProtocolError`` for a truncated, misplaced or out-of-range one.
    """
    host, port = parse_direct_url(direct_url)
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return MemoryMirror(sock, direct_url)


def _snapshot_in_range(var_count: int, clauses: list[list[int]]) -> bool:
    """Every clause non-empty and every literal a variable 1..var_count."""
    lits = set(chain.from_iterable(clauses))
    if not all(clauses) or 0 in lits:
        return False
    return not lits or (min(lits) >= -var_count and max(lits) <= var_count)


def _read_snapshot(batches) -> tuple[int, list[list[int]], list]:
    """The variable count and clauses of the SNAPSHOT frame that opens a
    stream, and the messages read after it."""
    try:
        messages = next(batches)
    except wire.MalformedFrame as exc:
        raise MirrorProtocolError(f"bad snapshot: {exc}") from None
    opcode, payload = messages[0]
    if opcode != wire.SNAPSHOT:
        raise MirrorProtocolError(f"expected snapshot on connect, got opcode {opcode}")
    if not _snapshot_in_range(*payload):
        raise MirrorProtocolError("snapshot holds an empty clause or a literal out of range")
    return (*payload, messages[1:])


class MemoryMirror:
    """Local replica of a remote SAT memory plus its direct-protocol channel."""

    def __init__(self, sock: socket.socket, direct_url: str) -> None:
        """Apply the snapshot that ``sock`` opens with, all of it within the
        socket's timeout, then mirror its stream; on any failure, close it
        and raise."""
        self.direct_url = direct_url
        self.alive = True
        self.lost: str | None = None  # why the stream ended, once it has
        self._sock = sock
        timeout = sock.gettimeout()
        self._deadline = None if timeout is None else time.monotonic() + timeout
        self._request_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._responses: queue.Queue = queue.Queue()
        self._reserving: deque = deque()  # sizes of reservations awaiting their index

        self._batches = wire.read_batches(self._recv)
        try:
            var_count, clauses, rest = _read_snapshot(self._batches)
        except BaseException:
            sock.close()
            raise
        self._deadline = None
        sock.settimeout(None)
        self.store = CnfStore(var_count)
        # the hub's clauses are already canonical and distinct
        self.store._extend_canonical([tuple(c) for c in clauses])

        self._reader = threading.Thread(target=self._read_loop, args=(rest,), daemon=True)
        self._reader.start()

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

    def clauses_since(self, cursor: int = 0):
        return self.store.clauses_since(cursor)

    def evaluate(self, assignment) -> bool:
        return self.store.evaluate(assignment)

    # -- channel ---------------------------------------------------------------

    def _recv(self, size: int) -> bytes:
        """``sock.recv``, refused once the snapshot deadline has passed and
        otherwise bounded by the time left, while that deadline is set."""
        if self._deadline is not None:
            left = self._deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("snapshot not received within the connect timeout")
            self._sock.settimeout(left)
        return self._sock.recv(size)

    def _read_loop(self, messages: list) -> None:
        try:
            while True:
                self._apply(messages)
                messages = next(self._batches)
        except wire.ConnectionClosed as exc:
            self.lost = f"ConnectionClosed: {exc}"
        except (wire.MalformedFrame, OSError, ValueError) as exc:
            # MirrorProtocolError is an OSError, ClauseRangeError a ValueError
            self.lost = f"{type(exc).__name__}: {exc}"
            log.warning("mirror of %s lost: %s", self.direct_url, self.lost)
        finally:
            self.alive = False
            self._responses.put(None)

    def _apply(self, messages: list) -> None:
        """Apply one read's messages to the replica, in stream order, each run
        of ``ADD_CLAUSE`` messages in one batch; a clause the replica refuses
        raises its error, which ends the reader, once the run's clauses
        before it are stored."""
        store = self.store
        for opcode, run in groupby(messages, itemgetter(0)):
            if opcode == wire.ADD_CLAUSE:
                clauses = canonical_outcomes([literals for _, literals in run])
                store._add_canonical(clauses, stop_at_refusal=True)
                raise_first_error(clauses)
                continue
            for _, payload in run:
                if opcode == wire.ADD_VARS:
                    store.reserve_variables(payload)
                else:
                    if opcode in (wire.FIRST_INDEX, wire.VAR_INDEX):
                        self._apply_reservation(payload)  # before the caller sees it
                    self._responses.put((opcode, payload))

    def _apply_reservation(self, first: int) -> None:
        """Add the oldest reservation's block at its place in the hub's stream.

        Raises ``MirrorProtocolError`` (which ends the reader) if no
        reservation is in flight or ``first`` does not extend the replica.
        """
        if not self._reserving:
            raise MirrorProtocolError(f"index {first} answers no reservation")
        if first != self.store.var_count + 1:
            raise MirrorProtocolError(
                f"index {first} does not follow replica var count {self.store.var_count}"
            )
        self.store.reserve_variables(self._reserving.popleft())

    def _send(self, data: bytes) -> None:
        """Write frames in one ``sendall``, after every frame sent before them."""
        with self._send_lock:
            if self.alive:
                try:
                    self._sock.sendall(data)
                    return
                except OSError:
                    self.alive = False
            raise ConnectionError("mirror connection lost")

    def _request(self, data: bytes, expected: int, reserving: int = 0):
        """Send ``data`` and await its reply, which adds ``reserving`` variables if nonzero."""
        with self._request_lock:
            if reserving:
                self._reserving.append(reserving)
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
        """Add one clause as ``add_clauses`` does; a refused clause raises its error."""
        return raise_first_error(self.add_clauses([literals]))[0]

    def add_clauses(self, batch) -> list:
        """Store clauses in the replica as ``CnfStore.add_clauses`` does, with
        the same outcomes, and send the ones it newly stored as one write (no
        acknowledgement); a clause it already held is at the hub or on its way."""
        outcomes = canonical_outcomes(batch)
        fresh = self.store._add_canonical(outcomes)
        if fresh:
            self._send(b"".join(map(wire.encode_add_clause, fresh)))
        return outcomes

    def add_variable(self) -> int:
        """Add one variable (``ADD_VARIABLE``); returns its index once the replica holds it."""
        return self._request(wire.encode_add_variable(), wire.VAR_INDEX, reserving=1)

    def reserve_variables(self, n: int) -> int:
        """Add ``n`` variables (``ADD_VARS``); returns the first once the replica holds them."""
        if n < 1:
            raise ValueError(f"variable count must be >= 1, got {n}")
        return self._request(wire.encode_add_vars(n), wire.FIRST_INDEX, reserving=n)

    def request_snapshot(self) -> tuple[int, list[list[int]]]:
        """Fetch a fresh full snapshot (replica is already converged; returns raw data)."""
        return self._request(wire.encode_snapshot_request(), wire.SNAPSHOT)

    def close(self) -> None:
        """Let a send in progress finish, half-close the socket, and wait for
        the hub to close its side, which it does once it has applied every
        frame before that. Waits at most ``REQUEST_TIMEOUT``, then closes
        regardless, which ends a send still blocked with ``ConnectionError``."""
        self.alive = False
        deadline = time.monotonic() + REQUEST_TIMEOUT
        if self._send_lock.acquire(timeout=REQUEST_TIMEOUT):
            try:
                self._sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            self._send_lock.release()
            self._reader.join(max(0.0, deadline - time.monotonic()))
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
