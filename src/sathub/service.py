"""Network-facing SAT memory: memory registry plus the binary direct-access hub.

Each memory object (an origin memory or a fork) gets its own TCP listener;
its ``directUrl`` is the address of that socket. A new connection receives
a full snapshot first, then every state change exactly once. Clause and
variable additions from one peer are applied to the store and rebroadcast
to all other peers; the originator is never echoed. Each connection's
thread reads whatever bytes its socket has ready and applies the frames
they complete in order: a run of ``ADD_CLAUSE`` frames in one hub-lock
section, with one error reply per bad clause, and the clauses it newly
stores sent on to each other peer as one write.

A fork starts as a copy of its parent's store. The hub keeps an attached
fork fed: every clause its parent newly stores is applied to the fork's
store too and broadcast to its peers. An origin or detached fork and the
attached forks below it form one ``Family``: one hub lock, so mutations and
broadcast enqueues across the family happen in one global order; one
variable count, grown in every member's store; one variable lock. A
detached fork shares nothing with its parent after the copy. A deleted
memory leaves its family at once; the forks of a deleted origin keep
sharing variables with each other.

The variable lock guards variable-count changes only: variable additions
from other connections wait FIFO behind the holder and are applied after
the unlock (or after the ``LOCK_TIMEOUT`` force-release).
"""

from __future__ import annotations

import queue
import socket
import threading
import uuid
from collections import deque
from itertools import groupby
from operator import itemgetter
from typing import Optional

from . import wire
from .cnf import ClauseRangeError, CnfStore, canonical_outcomes

# Seconds an explicit variable lock may be held before the hub force-releases it.
LOCK_TIMEOUT = 10.0


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


class NoSuchMemory(LookupError):
    """The memory was deleted: it forks nothing and takes no variables."""


class Family:
    """An origin or detached fork and every attached fork below it.

    The members share one hub lock (the first member's store lock), so
    mutations and broadcast enqueues across the family happen in one global
    order. They share one variable count, kept equal in every member's store.
    They share one variable lock, which is plain state under the hub lock:
    its holder (a connection that sent ``LOCK_VARS``), a FIFO of waiting
    tickets and the timer that force-releases the holder.
    """

    def __init__(self, first: "MemoryObject") -> None:
        self.lock = first.view.lock
        self.members = [first]
        self.holder: Optional[FrameWriter] = None
        self.tickets: deque = deque()
        self.turn = threading.Condition(self.lock)
        self.timer: Optional[threading.Timer] = None

    def wait_turn(self) -> None:
        """Wait FIFO until the variable lock is free; caller holds the hub lock."""
        ticket = object()
        self.tickets.append(ticket)
        while not (self.holder is None and self.tickets[0] is ticket):
            self.turn.wait()
        self.tickets.popleft()
        self.turn.notify_all()

    def lock_vars(self, conn: FrameWriter) -> None:
        """Answer ``LOCK_VARS``: make ``conn`` the holder once it is its turn,
        until it unlocks or ``LOCK_TIMEOUT`` passes."""
        with self.lock:
            if self.holder is conn:
                conn.send(wire.encode_error(wire.ERR_LOCKED, "lock already held"))
                return
            self.wait_turn()
            self.holder = conn
            self.timer = threading.Timer(LOCK_TIMEOUT, self._expire, (conn,))
            self.timer.daemon = True
            self.timer.start()
            conn.send(wire.encode_lock_granted())

    def unlock_vars(self, conn: FrameWriter) -> bool:
        """Release the variable lock; False if ``conn`` does not hold it."""
        with self.lock:
            if self.holder is not conn:
                return False
            self.holder = None
            self.timer.cancel()
            self.timer = None  # the timer refers to this family
            self.turn.notify_all()
        return True

    def _expire(self, conn: FrameWriter) -> None:
        if self.unlock_vars(conn):
            conn.send(wire.encode_error(wire.ERR_LOCKED, "lock force-released after timeout"))


class MemoryObject:
    """One addressable SAT memory: a store, its peers, and the attached forks it feeds.

    An origin or a detached fork starts a ``Family``; an attached fork joins
    its parent's. A deleted memory leaves its family and hands its attached
    forks to its parent, if it has one.
    """

    def __init__(self, service: "MemoryService", view: CnfStore, parent: Optional["MemoryObject"] = None) -> None:
        self.view = view
        self.object_id = uuid.uuid4().hex
        self.parent = parent
        self.children: list[MemoryObject] = []
        self.peers: list[FrameWriter] = []
        self.alive = True  # False once deleted
        if parent is None:
            self.family = Family(self)
        else:
            # the caller holds the family lock
            self.family = parent.family
            self.family.members.append(self)
            parent.children.append(self)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((service.host, 0))
        self._listener.listen(16)
        self.direct_url = f"tcp://{service.host}:{self._listener.getsockname()[1]}"
        threading.Thread(target=self._accept_loop, daemon=True).start()

    # -- the memory protocol (``CnfStore``'s docstring) for a worker of this node --

    @property
    def var_count(self) -> int:
        return self.view.var_count

    def clauses_since(self, cursor: int = 0):
        return self.view.clauses_since(cursor)

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
        """The store's whole state as one SNAPSHOT frame; caller holds the lock."""
        return wire.encode_snapshot(self.view.var_count, self.view.iter_clauses())

    def _serve_connection(self, conn: FrameWriter) -> None:
        with self.family.lock:
            conn.send(self._snapshot_frame())
            self.peers.append(conn)
        try:
            for messages in wire.read_batches(conn.sock.recv):
                if not self._apply_frames(conn, messages):
                    return
        except wire.ConnectionClosed:
            return
        except (wire.MalformedFrame, OSError) as exc:
            conn.send(wire.encode_error(wire.ERR_MALFORMED, str(exc)))
            return
        finally:
            with self.family.lock:
                if conn in self.peers:
                    self.peers.remove(conn)
            self.family.unlock_vars(conn)
            conn.close()

    def _apply_frames(self, conn: FrameWriter, messages: list) -> bool:
        """Handle one read's frames in order, each run of ``ADD_CLAUSE`` frames
        as one batch; False closes the connection."""
        for opcode, run in groupby(messages, itemgetter(0)):
            if opcode == wire.ADD_CLAUSE:
                for outcome in self.add_clauses([literals for _, literals in run], origin=conn):
                    if isinstance(outcome, ClauseRangeError):
                        conn.send(wire.encode_error(wire.ERR_OUT_OF_RANGE, str(outcome)))
                    elif isinstance(outcome, ValueError):
                        conn.send(wire.encode_error(wire.ERR_MALFORMED, str(outcome)))
            else:
                for _, payload in run:
                    if not self._dispatch(conn, opcode, payload):
                        return False
        return True

    def _dispatch(self, conn: FrameWriter, opcode: int, payload) -> bool:
        """Handle one frame other than ``ADD_CLAUSE``; False closes the connection."""
        if opcode in (wire.ADD_VARIABLE, wire.ADD_VARS):
            n = 1 if opcode == wire.ADD_VARIABLE else payload
            if n < 1:
                conn.send(wire.encode_error(wire.ERR_OUT_OF_RANGE, f"bad variable count {n}"))
                return True
            reply = wire.encode_var_index if opcode == wire.ADD_VARIABLE else wire.encode_first_index
            try:
                self.reserve_variables(n, origin=conn, reply=reply)
            except NoSuchMemory:
                return False
            except ClauseRangeError as exc:
                # the mirror cannot pair an error with its pending reservation
                conn.send(wire.encode_error(wire.ERR_OUT_OF_RANGE, str(exc)))
                return False
            return True

        if opcode == wire.LOCK_VARS:
            self.family.lock_vars(conn)
            return True

        if opcode == wire.UNLOCK_VARS:
            if not self.family.unlock_vars(conn):
                conn.send(wire.encode_error(wire.ERR_LOCKED, "not the lock holder"))
            return True

        if opcode == wire.SNAPSHOT_REQUEST:
            with self.family.lock:
                conn.send(self._snapshot_frame())
            return True

        conn.send(wire.encode_error(wire.ERR_MALFORMED, f"unexpected opcode {opcode}"))
        return False

    # -- writes: direct frames and web calls -------------------------------------

    def add_clauses(self, batch: list, origin: Optional[FrameWriter] = None) -> list:
        """Add clauses in order in one hub-lock section, and broadcast the newly
        stored ones, in that order, to every peer that newly sees them but ``origin``.

        Returns one outcome per clause: True if stored now, False if already
        held, or the ``ValueError`` (``ClauseRangeError`` out of range) that
        refused it.
        """
        outcomes = canonical_outcomes(batch)  # outside the hub lock
        with self.family.lock:
            fresh = self.view._add_canonical(outcomes)
            if fresh:
                self._broadcast_clauses(fresh, exclude=origin)
        return outcomes

    def reserve_variables(self, n: int, origin: Optional[FrameWriter] = None, reply=None) -> int:
        """Add ``n`` variables to every store of the family and broadcast them; returns the first.

        Waits FIFO behind the variable lock's holder unless ``origin`` holds it.
        The frame ``reply(first)`` is queued to ``origin`` in the same hub-lock
        section as the broadcast, so it keeps its global order. Raises
        ``ClauseRangeError``, adding nothing, past ``wire.MAX_VARIABLE``.
        """
        family = self.family
        with family.lock:
            if origin is None or family.holder is not origin:
                family.wait_turn()
            if self not in family.members:
                raise NoSuchMemory(self.object_id)
            count = self.view.var_count
            if count + n > wire.MAX_VARIABLE:
                raise ClauseRangeError(
                    f"{n} more variables pass the bound {wire.MAX_VARIABLE} (var count {count})"
                )
            first = count + 1
            data = wire.encode_add_vars(n)
            for member in family.members:
                member.view.reserve_variables(n)
                for peer in member.peers:
                    if peer is not origin:
                        peer.send(data)
            if reply is not None:
                origin.send(reply(first))
        return first

    def _broadcast_clauses(
        self, clauses: list, exclude: Optional[FrameWriter], data: Optional[bytes] = None
    ) -> None:
        """Send newly stored clauses to the peers as one run of frames, and feed
        each attached fork the ones it does not hold yet; caller holds the lock.

        The frames are encoded once, and only if some peer receives them."""
        for peer in self.peers:
            if peer is not exclude:
                if data is None:
                    data = b"".join(map(wire.encode_add_clause, clauses))
                peer.send(data)
        for child in self.children:
            fresh = child.view._add_canonical(list(clauses))
            if fresh:
                same = len(fresh) == len(clauses)
                child._broadcast_clauses(fresh, exclude, data if same else None)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self.alive = False
        try:
            # wakes _accept_loop, which would otherwise pin this object forever
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        with self.family.lock:
            self.family.members.remove(self)
            peers, self.peers = self.peers, []
            children, self.children = self.children, []
            # the parent, if any, feeds this memory's attached forks from now on
            for child in children:
                child.parent = self.parent
            if self.parent is not None:
                self.parent.children.remove(self)
                self.parent.children.extend(children)
        for peer in peers:
            peer.close()


class MemoryService:
    """Registry of live SAT memory instances."""

    def __init__(self, host: str = "127.0.0.1") -> None:
        self.host = host
        self._objects: dict[str, MemoryObject] = {}
        self._lock = threading.Lock()

    def create_memory(self, initial_variable_count: int = 0) -> MemoryObject:
        obj = MemoryObject(self, CnfStore(initial_variable_count))
        with self._lock:
            self._objects[obj.object_id] = obj
        return obj

    def get(self, object_id: str) -> Optional[MemoryObject]:
        with self._lock:
            return self._objects.get(object_id)

    def by_url(self, direct_url: str) -> Optional[MemoryObject]:
        """The live memory whose ``directUrl`` is exactly ``direct_url``, if any."""
        with self._lock:
            return next((o for o in self._objects.values() if o.direct_url == direct_url), None)

    def fork_memory(self, obj: MemoryObject, detach: bool) -> MemoryObject:
        """A new memory holding a copy of ``obj``'s store; unless ``detach``,
        ``obj`` feeds it every later clause and its family every variable.
        Raises ``NoSuchMemory`` once ``obj`` is deleted."""
        with obj.family.lock:
            if obj not in obj.family.members:
                raise NoSuchMemory(obj.object_id)
            store = CnfStore(obj.view.var_count)
            store._extend_canonical(obj.view.clause_tuples())
            child = MemoryObject(self, store, parent=None if detach else obj)
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
