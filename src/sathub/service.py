"""Network-facing SAT memory: memory registry plus the binary direct-access hub.

Each memory (an origin or a fork) has a TCP listener at its ``directUrl``. A
new connection receives a snapshot, then every state change exactly once; a
peer's additions are rebroadcast to every other peer, never echoed to it.
One thread, ``sathub-hub``, runs a ``selectors`` loop over every socket of a
``MemoryService``, and only it changes hub state: web calls and workers hand
it their writes, forks and deletes. It starts with the first memory, exits
once none is left, and closes a peer whose unsent bytes pass ``OUTBOUND_LIMIT``.
An origin or detached fork and the attached forks it feeds form one
``Family``: one variable count and one variable lock, for which an addition
from anyone but the holder waits its turn, FIFO.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
import uuid
from collections import deque
from concurrent.futures import Future
from functools import partial
from itertools import groupby
from operator import itemgetter
from selectors import EVENT_READ, EVENT_WRITE, DefaultSelector

from . import wire
from .cnf import ClauseRangeError, CnfStore, canonical_outcomes

# Seconds an explicit variable lock may be held before the hub force-releases it.
LOCK_TIMEOUT = 10.0
# Unsent bytes past which the hub closes a peer that does not read.
OUTBOUND_LIMIT = 64 << 20

log = logging.getLogger(__name__)


class NoSuchMemory(LookupError):
    """The memory was deleted: it forks nothing and takes no variables."""


def _settle(future: Future, fn, *args) -> None:
    """Give ``fn(*args)``'s result, or its exception, to ``future``."""
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)


class Peer:
    """One direct connection, its identity as lock holder and broadcast target. It is
    ``held`` while its frames wait for the variable lock, and ``ending`` once closing."""

    def __init__(self, sock: socket.socket, memory: "MemoryObject") -> None:
        self.sock, self.memory = sock, memory
        self.decoder = wire.FrameDecoder()
        self.inbox, self.out = bytearray(), bytearray()  # read but not decoded; not yet sent
        self.held = self.ending = False
        self.events = 0  # what the selector watches it for

    def send(self, data: bytes) -> None:
        """Queue frames; the loop sends them once it has handled what woke it."""
        if not self.ending:
            self.out += data
            self.memory.service._dirty.add(self)


class Family:
    """An origin or detached fork and the attached forks below it: one variable count and lock."""

    def __init__(self, first: "MemoryObject") -> None:
        self.members = [first]
        self.holder: Peer | None = None
        self.deadline = 0.0  # when the hub force-releases the holder
        self.waiting: deque = deque()  # callables, each run in its turn

    def free_for(self, who) -> bool:  # whether ``who`` may change the variable count now
        return not self.waiting if self.holder is None else self.holder is who

    def unlock_vars(self, peer: Peer) -> bool:
        """Release ``peer``'s lock and run the waiting turns until one takes it."""
        if self.holder is not peer:
            return False
        self.holder = None
        while self.holder is None and self.waiting:
            self.waiting.popleft()()
        return True


class MemoryObject:
    """One addressable SAT memory: a store, its peers, and the attached forks it feeds."""

    def __init__(self, service: "MemoryService", view: CnfStore, parent: MemoryObject | None = None) -> None:
        self.service, self.view = service, view
        self.object_id = uuid.uuid4().hex
        self.parent = parent
        self.children: list[MemoryObject] = []  # the attached forks it feeds
        self.peers: list[Peer] = []
        self.alive = True  # False once deleted
        self.family = Family(self) if parent is None else parent.family
        if parent is not None:
            self.family.members.append(self)
            parent.children.append(self)
        self._listener = socket.create_server((service.host, 0), backlog=16)
        self._listener.setblocking(False)
        service._selector.register(self._listener, EVENT_READ, self)
        self.direct_url = f"tcp://{service.host}:{self._listener.getsockname()[1]}"
        with service._lock:
            service._objects[self.object_id] = self

    # the memory protocol (``CnfStore``'s docstring) for a worker of this node
    @property
    def var_count(self) -> int:
        return self.view.var_count

    def clauses_since(self, cursor: int = 0):
        return self.view.clauses_since(cursor)

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:  # no connection is pending
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        peer = Peer(sock, self)
        peer.send(wire.encode_snapshot(self.view.var_count, self.view.iter_clauses()))
        self.peers.append(peer)
        self.service._watch(peer)

    def _take(self, conn: Peer, messages: list, turn: bool = False) -> None:
        """Apply ``conn``'s frames, then watch it again or close it."""
        if not conn.ending:
            conn.held = False
            if self._apply_frames(conn, messages, turn):
                self.service._watch(conn)
            else:
                self.service._close_peer(conn, drain=True)

    def _apply_frames(self, conn: Peer, messages: list, turn: bool = False) -> bool:
        """Handle frames in order, each run of ``ADD_CLAUSE`` frames as one batch; a frame
        that waits its turn for the variable lock holds those after it. False closes."""
        done = 0
        for opcode, run in groupby(messages, itemgetter(0)):
            if opcode == wire.ADD_CLAUSE:
                clauses = [literals for _, literals in run]
                done += len(clauses)
                for outcome in self._store(canonical_outcomes(clauses), origin=conn):
                    if isinstance(outcome, ClauseRangeError):
                        conn.send(wire.encode_error(wire.ERR_OUT_OF_RANGE, str(outcome)))
                    elif isinstance(outcome, ValueError):
                        conn.send(wire.encode_error(wire.ERR_MALFORMED, str(outcome)))
                continue
            for _, payload in run:
                waits = opcode in (wire.ADD_VARIABLE, wire.ADD_VARS, wire.LOCK_VARS)
                if waits and not (turn and done == 0) and not self.family.free_for(conn):
                    conn.held = True
                    self.family.waiting.append(partial(self._take, conn, messages[done:], True))
                    return True
                if not self._dispatch(conn, opcode, payload):
                    return False
                done += 1
        return True

    def _dispatch(self, conn: Peer, opcode, payload) -> bool:
        """Handle one frame other than ``ADD_CLAUSE``; False closes the connection."""
        if opcode in (wire.ADD_VARIABLE, wire.ADD_VARS):
            n = 1 if opcode == wire.ADD_VARIABLE else payload
            if n < 1:
                conn.send(wire.encode_error(wire.ERR_OUT_OF_RANGE, f"bad variable count {n}"))
                return True
            reply = wire.encode_var_index if opcode == wire.ADD_VARIABLE else wire.encode_first_index
            try:
                self._reserve(n, origin=conn, reply=reply)
            except NoSuchMemory:
                return False
            except ClauseRangeError as exc:
                # the mirror cannot pair an error with its pending reservation
                conn.send(wire.encode_error(wire.ERR_OUT_OF_RANGE, str(exc)))
                return False
        elif opcode == wire.LOCK_VARS:
            if self.family.holder is conn:
                conn.send(wire.encode_error(wire.ERR_LOCKED, "lock already held"))
            else:  # held until it unlocks or closes, or LOCK_TIMEOUT passes
                self.family.holder, self.family.deadline = conn, time.monotonic() + LOCK_TIMEOUT
                conn.send(wire.encode_lock_granted())
        elif opcode == wire.UNLOCK_VARS:
            if not self.family.unlock_vars(conn):
                conn.send(wire.encode_error(wire.ERR_LOCKED, "not the lock holder"))
        elif opcode == wire.SNAPSHOT_REQUEST:
            conn.send(wire.encode_snapshot(self.view.var_count, self.view.iter_clauses()))
        else:  # opcode None ends the stream; its payload is the error that ended it
            if opcode is not None:
                conn.send(wire.encode_error(wire.ERR_MALFORMED, f"unexpected opcode {opcode}"))
            elif isinstance(payload, wire.MalformedFrame):
                conn.send(wire.encode_error(wire.ERR_MALFORMED, str(payload)))
            return False
        return True

    def add_clauses(self, batch: list) -> list:
        """Add clauses in order, in the loop, and broadcast the newly stored ones.
        Returns one outcome per clause: True if stored now, False if already
        held, or the ``ValueError`` (``ClauseRangeError`` out of range) that refused it."""
        return self.service._call(_settle, self._store, canonical_outcomes(batch))

    def _store(self, outcomes: list, origin: Peer | None = None) -> list:
        fresh = self.view._add_canonical(outcomes)
        if fresh:
            self._broadcast_clauses(fresh, exclude=origin)
        return outcomes

    def reserve_variables(self, n: int) -> int:
        """``_reserve``, in the loop, once the variable lock is free."""
        return self.service._call(self._turn, n)

    def _turn(self, future: Future, n: int) -> None:
        turn = partial(_settle, future, self._reserve, n)
        turn() if self.family.free_for(None) else self.family.waiting.append(turn)

    def _reserve(self, n: int, origin: Peer | None = None, reply=None) -> int:
        """Add ``n`` variables to the family, broadcast them and send ``reply(first)`` to ``origin``;
        returns the first. Raises ``ClauseRangeError``, adding none, past ``wire.MAX_VARIABLE``."""
        if not self.alive:
            raise NoSuchMemory(self.object_id)
        count = self.view.var_count
        if count + n > wire.MAX_VARIABLE:
            raise ClauseRangeError(f"{n} more variables pass {wire.MAX_VARIABLE} (var count {count})")
        data = wire.encode_add_vars(n)
        for member in self.family.members:
            member.view.reserve_variables(n)
            for peer in member.peers:
                if peer is not origin:
                    peer.send(data)
        if reply is not None:
            origin.send(reply(count + 1))
        return count + 1

    def _broadcast_clauses(self, clauses: list, exclude: Peer | None, data: bytes | None = None) -> None:
        """Send newly stored clauses to the peers, encoded once, and to the attached forks."""
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

    def close(self) -> None:
        """Delete this memory, in the loop: close its listener and its peers, and
        hand its attached forks to its parent, if it has one."""
        self.alive = False
        self.service._selector.unregister(self._listener)
        self._listener.close()
        self.family.members.remove(self)
        children, self.children = self.children, []
        for child in children:
            child.parent = self.parent
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent.children.extend(children)
        for peer in list(self.peers):
            self.service._close_peer(peer)


class MemoryService:
    """Registry of live SAT memory instances, and the loop that serves them."""

    def __init__(self, host: str = "127.0.0.1") -> None:
        self.host = host
        self._objects: dict[str, MemoryObject] = {}
        self._lock = threading.Lock()  # guards the registry, the calls, and the loop's start and exit
        self._calls: deque = deque()  # actions for the loop, in arrival order
        self._thread: threading.Thread | None = None  # the loop, with its selector and wake socket
        self._dirty: set[Peer] = set()  # peers with bytes queued since the loop last sent

    def create_memory(self, initial_variable_count: int = 0) -> MemoryObject:
        return self._call(_settle, MemoryObject, self, CnfStore(initial_variable_count))

    def get(self, object_id: str) -> MemoryObject | None:
        with self._lock:
            return self._objects.get(object_id)

    def by_url(self, direct_url: str) -> MemoryObject | None:
        """The live memory whose ``directUrl`` is exactly ``direct_url``, if any."""
        with self._lock:
            return next((o for o in self._objects.values() if o.direct_url == direct_url), None)

    def fork_memory(self, obj: MemoryObject, detach: bool) -> MemoryObject:
        """A new memory holding a copy of ``obj``'s store and, unless ``detach``,
        in its family; raises ``NoSuchMemory`` once ``obj`` is deleted."""
        return self._call(_settle, self._fork, obj, detach)

    def _fork(self, obj: MemoryObject, detach: bool) -> MemoryObject:
        if not obj.alive:
            raise NoSuchMemory(obj.object_id)
        store = CnfStore(obj.view.var_count)
        store._extend_canonical(obj.view.clause_tuples())
        return MemoryObject(self, store, None if detach else obj)

    def delete_memory(self, object_id: str) -> bool:
        return self._call(_settle, self._delete, [object_id])

    def shutdown(self) -> None:
        if self._objects:  # with none, there is no loop to start
            self._call(_settle, self._delete, None)

    def _delete(self, object_ids: list | None) -> bool:
        """Delete the memories named, or every memory; False if none was live."""
        with self._lock:
            ids = list(self._objects) if object_ids is None else object_ids
            objects = [self._objects.pop(i) for i in ids if i in self._objects]
        for obj in objects:
            obj.close()
        return bool(objects)

    def _call(self, fn, *args):
        """Run ``fn(future, *args)`` in the loop, started if need be, and return what ``future`` gets."""
        future: Future = Future()
        with self._lock:
            if self._thread is None:
                waker, self._wake = socket.socketpair()
                self._thread = threading.Thread(target=self._loop, args=(waker, self._wake),
                                                name="sathub-hub", daemon=True)
                self._thread.start()
            self._calls.append(partial(fn, future, *args))
            self._wake.send(b"\0")  # each caller waits for its call, so this never blocks
        return future.result()

    def _loop(self, waker: socket.socket, wake: socket.socket) -> None:
        """Handle sockets, calls and lock deadlines until no memory is left."""
        selector = self._selector = DefaultSelector()
        selector.register(waker, EVENT_READ)
        while True:
            held = [obj.family for obj in self._objects.values() if obj.family.holder]
            deadline = min((family.deadline for family in held), default=None)
            for key, events in selector.select(deadline and max(0.0, deadline - time.monotonic())):
                peer = key.data
                if peer is None:
                    waker.recv(4096)
                    with self._lock:
                        calls, self._calls = self._calls, deque()
                    while calls:
                        calls.popleft()()
                elif isinstance(peer, MemoryObject):
                    peer._accept()
                else:
                    if events & peer.events & EVENT_READ:
                        self._read(peer)
                    if events & EVENT_WRITE:
                        self._dirty.add(peer)
            for family in held:
                holder = family.holder
                if holder and family.deadline <= time.monotonic():
                    holder.send(wire.encode_error(wire.ERR_LOCKED, "lock force-released after timeout"))
                    family.unlock_vars(holder)
            while self._dirty:
                self._flush(self._dirty.pop())
            with self._lock:
                if not self._objects and not self._calls:
                    self._thread = None
                    break
        for closing in (selector, waker, wake):
            closing.close()

    def _read(self, peer: Peer) -> None:
        """Apply the frames that ``peer``'s next bytes complete; its end is a frame of opcode None."""
        try:
            data = peer.sock.recv(wire.READ_SIZE)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        peer.inbox += data
        messages, used, error = peer.decoder.decode(peer.inbox)
        del peer.inbox[:used]
        if error is not None or not data:
            messages.append((None, error or peer.decoder.ended(peer.inbox)))
        peer.memory._take(peer, messages)

    def _watch(self, peer: Peer) -> None:
        """Watch ``peer`` for reads unless held or ending, and for writes while it has bytes to send."""
        events = (0 if peer.held or peer.ending else EVENT_READ) | (EVENT_WRITE if peer.out else 0)
        if events != peer.events:
            if peer.events:
                self._selector.unregister(peer.sock)
            if events:
                self._selector.register(peer.sock, events, peer)
            peer.events = events

    def _flush(self, peer: Peer) -> None:
        """Send what the socket takes; close the peer once ending and sent, or past
        ``OUTBOUND_LIMIT`` (with no ERROR frame: it would queue behind the backlog)."""
        try:
            del peer.out[: peer.sock.send(peer.out)]
        except BlockingIOError:
            pass
        except OSError:
            peer.out.clear()  # the other side is gone; reading it says so
        if len(peer.out) > OUTBOUND_LIMIT:
            log.warning("memory %s dropped a peer past the outbound limit", peer.memory.direct_url)
            self._close_peer(peer)
        elif peer.ending and not peer.out:
            self._close_peer(peer)
        else:
            self._watch(peer)

    def _close_peer(self, peer: Peer, drain: bool = False) -> None:
        """Release its lock and send it nothing more; close it now, or with ``drain`` once sent."""
        peer.ending = True
        peer.memory.family.unlock_vars(peer)
        if drain and peer.out:
            return self._watch(peer)
        if peer in peer.memory.peers:
            peer.memory.peers.remove(peer)
        if peer.events:
            self._selector.unregister(peer.sock)
            peer.events = 0
        peer.sock.close()
