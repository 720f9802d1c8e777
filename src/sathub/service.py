"""Network-facing SAT memory: memory registry plus the binary direct-access hub.

Each memory object (origin store or fork) gets its own TCP listener; its
``directUrl`` is the address of that socket. A new connection receives a
full snapshot first, then every state change exactly once. Clause and
variable additions from one peer are applied to the store and rebroadcast
to all other peers of every view that newly sees them; the originator is
never echoed. Mutations and broadcast enqueues happen under one family
lock per instance, so all peers observe updates in a single global order.

The variable lock guards variable-count changes only: variable additions
from other connections queue FIFO behind the holder and are applied after
the unlock (or after the configurable force-release timeout).
"""

from __future__ import annotations

import queue
import socket
import threading
import uuid
from collections import deque
from typing import Optional

from . import wire
from .cnf import ClauseRangeError, CnfStore, canonical_clause


class FrameWriter:
    """Ordered outbound frames for one socket, sent by one writer thread.

    Each time the thread wakes it sends every frame queued so far in one
    ``sendall``, in the order they were queued; it never waits for more.
    ``close`` lets the queue drain and then shuts the socket down with
    ``how``; a full shutdown (the hub's side) also closes the socket.
    A hub peer's writer is also its identity (lock token, broadcast target).
    """

    def __init__(self, sock: socket.socket, how: int = socket.SHUT_RDWR) -> None:
        self.sock = sock
        self.dead = False
        self._how = how
        self._out: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._write_loop, daemon=True)
        self._thread.start()

    def send(self, data: bytes) -> bool:
        """Queue one frame; False once a send has failed."""
        if self.dead:
            return False
        self._out.put(data)
        return True

    def close(self) -> None:
        self._out.put(None)

    def join(self, timeout: Optional[float] = None) -> None:
        self._thread.join(timeout)

    def _write_loop(self) -> None:
        out = self._out
        open_ = True
        while open_:
            batch = []
            item = out.get()
            while True:
                if item is None:
                    open_ = False
                    break
                batch.append(item)
                if out.empty():
                    break
                item = out.get()
            if batch:
                try:
                    self.sock.sendall(b"".join(batch))
                except OSError:
                    self.dead = True
                    break
        try:
            self.sock.shutdown(self._how)
        except OSError:
            pass
        if self._how == socket.SHUT_RDWR:
            self.sock.close()


class LockManager:
    """FIFO variable lock for one variable-counter owner."""

    def __init__(self, timeout: float = 10.0) -> None:
        self.timeout = timeout
        self._cv = threading.Condition()
        self._holder = None
        self._tickets: deque = deque()
        self._timer: Optional[threading.Timer] = None

    def acquire(self, token) -> bool:
        """Block FIFO until the lock is free; False if token already holds it."""
        with self._cv:
            if self._holder is token:
                return False
            if self._holder is None and not self._tickets:
                self._holder = token
                return True
            ticket = object()
            self._tickets.append(ticket)
            while not (self._holder is None and self._tickets[0] is ticket):
                self._cv.wait()
            self._tickets.popleft()
            self._holder = token
            self._cv.notify_all()
            return True

    def release(self, token) -> bool:
        with self._cv:
            if self._holder is not token:
                return False
            self._holder = None
            self._cancel_timer()
            self._cv.notify_all()
            return True

    def arm_force_release(self, token, on_expire) -> None:
        """Schedule force-release of an explicit lock after the hold timeout."""
        def fire() -> None:
            with self._cv:
                if self._holder is not token:
                    return
                self._holder = None
                self._cv.notify_all()
            on_expire()

        with self._cv:
            self._cancel_timer()
            self._timer = threading.Timer(self.timeout, fire)
            self._timer.daemon = True
            self._timer.start()

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


class MemoryObject:
    """One addressable SAT memory view: an origin store or a fork."""

    def __init__(self, service: "MemoryService", view, parent: Optional["MemoryObject"], attached: bool) -> None:
        self.service = service
        self.view = view
        self.object_id = uuid.uuid4().hex
        self.children: list[tuple[MemoryObject, bool]] = []
        self.peers: list[FrameWriter] = []
        self.closed = False
        if parent is not None and attached:
            self.var_owner = parent.var_owner
            self.lock_mgr = parent.lock_mgr
        else:
            self.var_owner = self
            self.lock_mgr = LockManager(service.lock_timeout)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((service.host, 0))
        self._listener.listen(16)
        self.direct_url = f"tcp://{service.host}:{self._listener.getsockname()[1]}"
        threading.Thread(target=self._accept_loop, daemon=True).start()

    # -- hub ---------------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._serve_connection, args=(FrameWriter(sock),), daemon=True
            ).start()

    def _snapshot_frame(self) -> bytes:
        """The view's whole state as one SNAPSHOT frame; caller holds the family lock."""
        return wire.encode_snapshot(
            self.view.var_count, [list(c) for c in self.view.iter_clauses()]
        )

    def _serve_connection(self, conn: FrameWriter) -> None:
        with self.view.family_lock:
            conn.send(self._snapshot_frame())
            self.peers.append(conn)
        stream = conn.sock.makefile("rb")
        try:
            while True:
                try:
                    opcode, payload = wire.read_message(stream)
                except wire.ConnectionClosed:
                    return
                except (wire.MalformedFrame, OSError) as exc:
                    conn.send(wire.encode_error(wire.ERR_MALFORMED, str(exc)))
                    return
                if not self._dispatch(conn, opcode, payload):
                    return
        finally:
            with self.view.family_lock:
                if conn in self.peers:
                    self.peers.remove(conn)
            self.lock_mgr.release(conn)
            conn.close()
            stream.close()

    def _dispatch(self, conn: FrameWriter, opcode: int, payload) -> bool:
        """Handle one frame; False closes the connection."""
        if opcode == wire.ADD_CLAUSE:
            try:
                self.add_clause(payload, origin=conn)
            except ClauseRangeError as exc:
                conn.send(wire.encode_error(wire.ERR_OUT_OF_RANGE, str(exc)))
            except ValueError as exc:
                conn.send(wire.encode_error(wire.ERR_MALFORMED, str(exc)))
            return True

        if opcode in (wire.ADD_VARIABLE, wire.ADD_VARS):
            n = 1 if opcode == wire.ADD_VARIABLE else payload
            if n < 1:
                conn.send(wire.encode_error(wire.ERR_OUT_OF_RANGE, f"bad variable count {n}"))
                return True
            reply = wire.encode_var_index if opcode == wire.ADD_VARIABLE else wire.encode_first_index
            self.add_variables(n, origin=conn, reply=reply)
            return True

        if opcode == wire.LOCK_VARS:
            if not self.lock_mgr.acquire(conn):
                conn.send(wire.encode_error(wire.ERR_LOCKED, "lock already held"))
                return True
            self.lock_mgr.arm_force_release(
                conn,
                lambda: conn.send(
                    wire.encode_error(wire.ERR_LOCKED, "lock force-released after timeout")
                ),
            )
            conn.send(wire.encode_lock_granted())
            return True

        if opcode == wire.UNLOCK_VARS:
            if not self.lock_mgr.release(conn):
                conn.send(wire.encode_error(wire.ERR_LOCKED, "not the lock holder"))
            return True

        if opcode == wire.SNAPSHOT_REQUEST:
            with self.view.family_lock:
                conn.send(self._snapshot_frame())
            return True

        conn.send(wire.encode_error(wire.ERR_MALFORMED, f"unexpected opcode {opcode}"))
        return False

    # -- writes: direct frames and web calls -------------------------------------

    def add_clause(self, literals, origin: Optional[FrameWriter] = None) -> bool:
        """Add one clause and broadcast it to every peer that newly sees it but ``origin``.

        Raises ``ClauseRangeError`` out of range, ``ValueError`` if malformed.
        """
        clause = canonical_clause(literals)
        with self.view.family_lock:
            added = self.view._add_canonical(clause)
            if added:
                self._broadcast_clause(clause, exclude=origin)
        return added

    def add_variables(self, n: int, origin: Optional[FrameWriter] = None, reply=None) -> int:
        """Add ``n`` variables under the variable lock and broadcast them; returns the first.

        The lock is taken for this call unless ``origin`` already holds it.
        The frame ``reply(first)`` is queued to ``origin`` in the same
        family-lock section as the broadcast, so it keeps its global order.
        """
        token = origin or object()
        acquired = self.lock_mgr.acquire(token)  # False: origin already holds it
        try:
            with self.view.family_lock:
                first = self.view.add_variables(n)
                if reply is not None:
                    origin.send(reply(first))
                self.var_owner._broadcast_vars(n, exclude=origin)
        finally:
            if acquired:
                self.lock_mgr.release(token)
        return first

    def _broadcast_clause(
        self, clause: tuple, exclude: Optional[FrameWriter], data: Optional[bytes] = None
    ) -> None:
        """Send a newly visible clause down the attached-view tree; caller holds the lock.

        The frame is encoded once, and only if some peer receives it."""
        for peer in self.peers:
            if peer is not exclude:
                if data is None:
                    data = wire.encode_add_clause(clause)
                peer.send(data)
        for child, attached in self.children:
            if attached and not child.view._locally_stored(clause):
                child._broadcast_clause(clause, exclude, data)

    def _broadcast_vars(self, n: int, exclude: Optional[FrameWriter]) -> None:
        data = wire.encode_add_vars(n)
        for peer in self.peers:
            if peer is not exclude:
                peer.send(data)
        for child, attached in self.children:
            if attached:
                child._broadcast_vars(n, exclude)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self.closed = True
        try:
            # wakes _accept_loop, which would otherwise pin this object forever
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        with self.view.family_lock:
            peers, self.peers = self.peers, []
        for peer in peers:
            peer.close()


class MemoryService:
    """Registry of live SAT memory instances."""

    def __init__(self, host: str = "127.0.0.1", lock_timeout: float = 10.0) -> None:
        self.host = host
        self.lock_timeout = lock_timeout
        self._objects: dict[str, MemoryObject] = {}
        self._lock = threading.Lock()

    def create_memory(self, initial_variable_count: int = 0) -> MemoryObject:
        obj = MemoryObject(self, CnfStore(initial_variable_count), parent=None, attached=True)
        with self._lock:
            self._objects[obj.object_id] = obj
        return obj

    def get(self, object_id: str) -> Optional[MemoryObject]:
        with self._lock:
            return self._objects.get(object_id)

    def fork_memory(self, obj: MemoryObject, detach: bool) -> MemoryObject:
        child = MemoryObject(self, obj.view.fork(detach=detach), parent=obj, attached=not detach)
        with obj.view.family_lock:
            obj.children.append((child, not detach))
        with self._lock:
            self._objects[child.object_id] = child
        return child

    def delete_memory(self, object_id: str) -> bool:
        with self._lock:
            obj = self._objects.pop(object_id, None)
        if obj is None:
            return False
        obj.close()
        return True

    def shutdown(self) -> None:
        with self._lock:
            objects = list(self._objects.values())
            self._objects.clear()
        for obj in objects:
            obj.close()
