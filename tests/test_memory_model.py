"""The hub checked against the sequential reference model in ``oracles``.

A ``hypothesis`` state machine drives a real in-process ``MemoryService``
with at most 3 mirrors and 2 forks. Each step ends quiescent: every write
has reached the hub and every replica before the next step starts, so one
model describes the whole history, in order.
"""

import time
from types import SimpleNamespace

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from sathub import wire
from sathub.client import connect
from sathub.cnf import ClauseRangeError
from sathub.node import ServerNode
from sathub.service import MemoryService

from oracles import SharedMemoryModel

MAX_MIRRORS = 3
MAX_FORKS = 2

picks = st.integers(0, 5)
clauses = st.lists(st.integers(-8, 8), max_size=3)  # an empty clause and 0 are refused
batches = st.lists(clauses, min_size=1, max_size=4)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return predicate()


def kind(outcome):
    """An outcome of a memory's ``add_clauses`` in the model's terms."""
    if isinstance(outcome, ClauseRangeError):
        return "range"
    if isinstance(outcome, ValueError):
        return "invalid"
    return outcome


class Memory(SimpleNamespace):
    """One memory as the test sees it: web reference, hub object, model memory."""


class Received(SimpleNamespace):
    """What one mirror's reader was sent: the ``ADD_CLAUSE`` frames it applied,
    against its memory's model clauses when it connected and its own new ones."""


class SharedMemoryMachine(RuleBasedStateMachine):
    # forks made up front, so that most histories write to a memory that feeds one
    @initialize(
        var_count=st.integers(0, 4),
        forks=st.lists(st.booleans(), max_size=MAX_FORKS),
    )
    def create(self, var_count, forks):
        self.service = MemoryService()
        self.node = SimpleNamespace(memory=self.service, registry=None)
        self.model = SharedMemoryModel()
        self.live: list[Memory] = []
        self.deleted: list[Memory] = []
        self.mirrors: list[tuple] = []  # (mirror, memory)
        self.received: dict = {}  # by mirror
        self.forks = 0
        created = self.call("SatCnf.create", argument={"initialVariableCount": var_count})
        self._add(created["objectRef"], self.model.create(var_count))
        for detach in forks:  # each a fork of the one before
            self.fork(len(self.live) - 1, detach)

    def teardown(self):
        for mirror, _ in self.mirrors:
            mirror.close()
        self.service.shutdown()

    def call(self, method, ref="", argument=None):
        envelope = {"method": method, "webPid": "model", "objectRef": ref, "argument": argument or {}}
        return ServerNode.handle_web_call(self.node, envelope)

    def _add(self, ref, model):
        self.live.append(Memory(ref=ref, obj=self.service.get(ref), model=model))

    # -- writes -----------------------------------------------------------------

    @precondition(lambda self: self.mirrors)
    @rule(pick=picks, batch=batches)
    def add_through_a_mirror(self, pick, batch):
        mirror, memory = self.mirrors[pick % len(self.mirrors)]
        outcomes = list(map(kind, mirror.add_clauses(batch)))
        assert outcomes == self.model.add_clauses(memory.model, batch)
        self.received[mirror].own += outcomes.count(True)

    @rule(pick=picks, batch=batches)
    def add_through_the_hub(self, pick, batch):
        memory = self.live[pick % len(self.live)]
        outcomes = list(map(kind, memory.obj.add_clauses(batch)))
        assert outcomes == self.model.add_clauses(memory.model, batch)

    @rule(pick=picks, clause=clauses)
    def add_by_web_call(self, pick, clause):
        memory = self.live[pick % len(self.live)]
        reply = self.call("SatCnf.addClause", memory.ref, {"clause": clause})
        expected = self.model.add_clauses(memory.model, [clause])[0]
        if isinstance(expected, bool):
            assert reply == {"added": expected}
        else:
            assert list(reply) == ["error"], reply

    @precondition(lambda self: self.mirrors)
    @rule(pick=picks, n=st.integers(1, 3))
    def reserve_through_a_mirror(self, pick, n):
        mirror, memory = self.mirrors[pick % len(self.mirrors)]
        assert mirror.reserve_variables(n) == self.model.reserve(memory.model, n)

    @rule(pick=picks)
    def add_variable_by_web_call(self, pick):
        memory = self.live[pick % len(self.live)]
        reply = self.call("SatCnf.addVariable", memory.ref)
        assert reply == {"index": self.model.reserve(memory.model, 1)}

    # -- lifecycle ----------------------------------------------------------------

    @precondition(lambda self: self.forks < MAX_FORKS)
    @rule(pick=picks, detach=st.booleans())
    def fork(self, pick, detach):
        memory = self.live[pick % len(self.live)]
        reply = self.call("SatCnf.fork", memory.ref, {"detach": detach})
        self.forks += 1
        self._add(reply["forkId"], self.model.fork(memory.model, detach))

    @precondition(lambda self: len(self.live) > 1)
    @rule(pick=picks)
    def delete(self, pick):
        memory = self.live.pop(pick % len(self.live))
        assert self.call("SatCnf.delete", memory.ref) == {}
        self.model.delete(memory.model)
        self.deleted.append(memory)
        for mirror, of in [m for m in self.mirrors if m[1] is memory]:
            assert wait_until(lambda: not mirror.alive), "a deleted memory's peer stays open"
            mirror.close()
            self.mirrors.remove((mirror, of))

    @precondition(lambda self: len(self.mirrors) < MAX_MIRRORS)
    @rule(pick=picks)
    def connect(self, pick):
        memory = self.live[pick % len(self.live)]
        mirror = connect(memory.obj.direct_url)
        received = self.received[mirror] = Received(frames=0, before=len(memory.model.clauses), own=0)
        apply = mirror._apply

        def counting(messages):
            received.frames += sum(opcode == wire.ADD_CLAUSE for opcode, _ in messages)
            return apply(messages)

        mirror._apply = counting
        self.mirrors.append((mirror, memory))

    @precondition(lambda self: self.mirrors)
    @rule(pick=picks)
    def close(self, pick):
        mirror, memory = self.mirrors.pop(pick % len(self.mirrors))
        mirror.close()
        # close is a barrier: the hub has applied every clause the mirror sent
        assert memory.obj.view.clause_tuples() == memory.model.clauses

    @precondition(lambda self: self.mirrors)
    @rule(pick=picks, batch=batches)
    def add_then_close(self, pick, batch):
        # no quiescent point between the two: only close's barrier makes the hub current
        self.add_through_a_mirror(pick, batch)
        self.close(pick)

    # -- checks at each quiescent point ---------------------------------------------

    @invariant()
    def hub_stores_equal_the_model(self):
        for memory in self.live:
            store, model = memory.obj.view, memory.model
            assert wait_until(
                lambda: store.clause_tuples() == model.clauses and store.var_count == model.var_count
            ), (store.clause_tuples(), store.var_count, model.clauses, model.var_count)

    @invariant()
    def replicas_equal_their_hub_store_in_order(self):
        for mirror, memory in self.mirrors:
            store = memory.obj.view
            assert wait_until(
                lambda: mirror.clause_tuples() == store.clause_tuples()
                and mirror.var_count == store.var_count
            ), (mirror.clause_tuples(), store.clause_tuples())
            assert mirror.alive

    @invariant()
    def each_mirror_is_sent_each_new_clause_of_others_once(self):
        # a clause echoed to the mirror that sent it is a duplicate there, so
        # only the frame count shows it
        for mirror, memory in self.mirrors:
            received = self.received[mirror]
            expected = len(memory.model.clauses) - received.before - received.own
            assert wait_until(lambda: received.frames == expected), (received, expected)

    @invariant()
    def attached_forks_hold_their_origin_clauses(self):
        by_model = {id(memory.model): memory for memory in self.live}
        for memory in self.live:
            parent = memory.model.parent
            if parent is not None:
                held = set(memory.obj.view.clause_tuples())
                assert held >= set(by_model[id(parent)].obj.view.clause_tuples())

    @invariant()
    def deleted_memories_answer_no_such_object(self):
        for memory in self.deleted:
            assert self.call("SatCnf.clauses", memory.ref) == {"error": "NO_SUCH_OBJECT"}
            assert self.call("SatCnf.addVariable", memory.ref) == {"error": "NO_SUCH_OBJECT"}


# at 100 examples, a mirror whose close() does not wait for the hub went unseen
SharedMemoryMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=20, deadline=None, derandomize=True, database=None
)
TestSharedMemory = SharedMemoryMachine.TestCase
