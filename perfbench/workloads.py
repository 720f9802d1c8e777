"""The three workloads: seeded inputs, one operation each, and its output check.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. No operation holds more than two
connections to the node at a time.

factor  ``sathub.cli.main(["factor", N, "--l", "8", ...])`` in-process. About
        3/4 of the N are semiprimes p*q with primes p, q < 2^7 (SAT), the rest
        primes < 2^14 (UNSAT). The user's request end to end; the only
        workload in which the node's solver runs.
encode  create a memory, connect a watcher and a writer mirror, encode an
        l=16 instance through the writer, wait until the watcher has
        converged, close both, delete the memory. The write path: lock round
        trips, ~8k fire-and-forget ADD_CLAUSE frames, hub fan-out to one peer.
attach  ``connect(directUrl)`` and ``close()`` on a memory that set-up filled
        with an l=32 instance (~26.9k clauses). The bulk read path: snapshot
        encoded by the node, decoded and rebuilt by the client.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import time

from sathub import cli
from sathub.client import connect
from sathub.factoring import FactorizationSpec, build_factorization
from sathub.rpc import web_call

from spans import TracedMemory, Tracer

FACTOR_L = 8
ENCODE_L = 16
ATTACH_L = 32
CONVERGE_TIMEOUT_S = 30.0

_ANSWER = re.compile(r"^(\d+) = (\d+) × (\d+)$")


def primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n) if sieve[i]]


def factor_inputs(seed: int, count: int = 4096) -> list[int]:
    """The seed's sequence of numbers to factor."""
    rng = random.Random(f"factor:{seed}")
    small = primes_below(1 << (FACTOR_L - 1))
    large = primes_below(1 << 14)
    return [
        rng.choice(small) * rng.choice(small) if rng.random() < 0.75 else rng.choice(large)
        for _ in range(count)
    ]


def random_product(rng: random.Random, l: int) -> int:
    """u * v for two factors that fit the l-bit instance (2 <= v, u < 2^(l-1))."""
    return rng.randrange(2, 1 << (l - 1)) * rng.randrange(2, 1 << (l - 1))


def encode_inputs(seed: int, count: int = 4096) -> list[int]:
    rng = random.Random(f"encode:{seed}")
    return [random_product(rng, ENCODE_L) for _ in range(count)]


def attach_product(seed: int) -> int:
    return random_product(random.Random(f"attach:{seed}"), ATTACH_L)


# -- checks --------------------------------------------------------------------


def factor_pair(n: int, l: int = FACTOR_L):
    """The ordered factor pair (u, v) with 2 <= v <= u < 2^(l-1), or None (trial division)."""
    top = 1 << (l - 1)
    v = 2
    while v * v <= n:
        if n % v == 0 and n // v < top:
            return n // v, v
        v += 1
    return None


def check_factor(n: int, code: int, out: str, l: int = FACTOR_L) -> str | None:
    """None when the CLI's reply is right for ``n``; otherwise why it is wrong."""
    expected = factor_pair(n, l)
    if code == cli.EXIT_SAT:
        match = _ANSWER.match(out.strip())
        if not match or int(match.group(1)) != n:
            return f"unparsable SAT reply {out.strip()!r}"
        u, v = int(match.group(2)), int(match.group(3))
        if u * v != n or not 2 <= v <= u < (1 << (l - 1)):
            return f"wrong factors {u} x {v} for {n}"
        return None
    if code == cli.EXIT_UNSAT:
        if expected is not None:
            return f"UNSAT for {n} = {expected[0]} x {expected[1]}"
        return None
    return f"exit code {code} for {n}: {out.strip()!r}"


def same_clauses(replica, expected_vars: int, expected: frozenset) -> str | None:
    if replica.var_count != expected_vars:
        return f"var_count {replica.var_count} != {expected_vars}"
    got = frozenset(replica.clause_tuples())
    if got != expected:
        return f"{len(got ^ expected)} clauses differ ({len(got)} vs {len(expected)})"
    return None


# -- operations ----------------------------------------------------------------
# Each takes the node endpoint, the operation's input and a tracer (None when
# untraced); it returns (seconds, error or None). Checks run after the clock
# stops.


def factor_op(endpoint: str, n: int, tracer: Tracer | None):
    out, err = io.StringIO(), io.StringIO()
    argv = ["factor", str(n), "--l", str(FACTOR_L), "--endpoint", endpoint]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            with _traced_cli(tracer), tracer.span("cli.main"):
                code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return elapsed, check_factor(n, code, out.getvalue() + err.getvalue())


@contextlib.contextmanager
def _traced_cli(tracer: Tracer):
    """Spans around the layer calls ``cli.cmd_factor`` makes, restored on exit."""
    saved = cli.web_call, cli.connect, cli.build_factorization
    cli.web_call = tracer.wrap(lambda endpoint, method, *a, **k: f"rpc.{method}", web_call)
    cli.connect = tracer.wrap(lambda url, *a, **k: "client.connect", connect)
    cli.build_factorization = tracer.wrap(lambda *a, **k: "factoring.build", build_factorization)
    try:
        yield
    finally:
        cli.web_call, cli.connect, cli.build_factorization = saved


def _span(tracer: Tracer | None, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def encode_op(endpoint: str, product: int, tracer: Tracer | None):
    spec = FactorizationSpec.from_product(ENCODE_L, product)
    start = time.perf_counter()
    with _span(tracer, "bench.encode_op") as root:
        with _span(tracer, "rpc.SatCnf.create"):
            created = web_call(endpoint, "SatCnf.create", {"initialVariableCount": 0})
        with _span(tracer, "client.connect"):
            watcher = connect(created["directUrl"])
        try:
            with _span(tracer, "client.connect"):
                writer = connect(created["directUrl"])
            try:
                with _span(tracer, "factoring.build"):
                    if tracer is None:
                        build_factorization(spec, writer)
                    else:
                        memory = TracedMemory(writer, tracer)
                        build_factorization(spec, memory)
                        memory.record()
                last_send = time.perf_counter()
                with _span(tracer, "service.converge"):
                    converged = _await_convergence(watcher, writer)
                converged_at = time.perf_counter()
            finally:
                with _span(tracer, "client.close"):
                    writer.close()
        finally:
            with _span(tracer, "client.close"):
                watcher.close()
        with _span(tracer, "rpc.SatCnf.delete"):
            web_call(endpoint, "SatCnf.delete", object_ref=created["objectRef"])
    elapsed = time.perf_counter() - start
    if root is not None:
        root["converge_lag_s"] = converged_at - last_send
        root["relayed"] = watcher.version
    if not converged:
        return elapsed, f"watcher did not converge in {CONVERGE_TIMEOUT_S} s"
    return elapsed, same_clauses(watcher, writer.var_count, frozenset(writer.clause_tuples()))


def _await_convergence(watcher, writer) -> bool:
    """Watcher has the writer's variables and at least as many clause changes."""
    end = time.perf_counter() + CONVERGE_TIMEOUT_S
    while watcher.var_count != writer.var_count or watcher.version < writer.version:
        if time.perf_counter() > end or not watcher.alive:
            return False
        time.sleep(0.0005)
    return True


class AttachTarget:
    """The memory that ``attach`` set-up filled with one l=32 instance."""

    def __init__(self, endpoint: str, product: int) -> None:
        created = web_call(endpoint, "SatCnf.create", {"initialVariableCount": 0})
        self.direct_url = created["directUrl"]
        writer = connect(self.direct_url)
        try:
            build_factorization(FactorizationSpec.from_product(ATTACH_L, product), writer)
            # the hub answers in frame order, so this returns after every clause landed
            self._snapshot = writer.request_snapshot()
        finally:
            writer.close()
        self._store = writer.store
        self.var_count = writer.var_count
        self.clauses: frozenset = frozenset()

    def check(self) -> str | None:
        """Compare the node's snapshot with the encoded instance; run after set-up is timed."""
        self.clauses = frozenset(self._store.clause_tuples())
        server_vars, server_clauses = self._snapshot
        if server_vars != self.var_count or frozenset(map(tuple, server_clauses)) != self.clauses:
            return "node snapshot differs from the encoded l=32 instance"
        return None


def attach_op(target: AttachTarget, tracer: Tracer | None):
    start = time.perf_counter()
    with _span(tracer, "bench.attach_op"):
        with _span(tracer, "client.connect"):
            mirror = connect(target.direct_url)
        with _span(tracer, "client.close"):
            mirror.close()
    elapsed = time.perf_counter() - start
    return elapsed, same_clauses(mirror, target.var_count, target.clauses)
