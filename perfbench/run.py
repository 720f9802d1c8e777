"""sathub benchmark: one workload against a fresh ``sathub serve`` node.

    python3 perfbench/run.py --workload factor|encode|attach|all --seed N \
        --seconds S --trace 0|1 [--quick]

With ``--trace 0`` the run measures the workload untraced for S seconds and
reports the end-to-end metrics. With ``--trace 1`` it reports the per-layer
metrics: for S/2 seconds each input of the workload runs twice, untraced and
traced (the difference is the tracing overhead); the other two workloads run
traced for S/4 seconds each; then come the in-process layer measurements.
``--quick`` sets up once and repeats each layer measurement once; it is for
the self-test, not for numbers. ``all`` runs the three workloads in turn.
The last line of standard output is the JSON result; the lines before it
give every metric by name with its unit. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import socket
import statistics
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("factor", "encode", "attach")
SETUP_REPS = 7
LAYER_REPS = 3
WATCHDOG_S = 170
# operations after which the node's threads and RSS are sampled; every run
# reaches them even on a host running at half speed (see NOTES.md)
SAMPLE_AFTER = {"factor": 64, "encode": 32, "attach": 32}

# layers each workload's traced operations pass through, for self time
SELF_LAYERS = {
    "factor": ("cli", "rpc", "client", "factoring"),
    "encode": ("bench", "rpc", "client", "factoring", "service"),
    "attach": ("bench", "client"),
}


def declared_units() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for end_to_end and per_layer, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


TAIL_PERCENTILE = 90


def tail(latencies: list[float]) -> float:
    """The 90th percentile of ``latencies``, interpolated between samples (never beyond the largest)."""
    if len(latencies) < 2:
        return max(latencies)
    return statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


class Run:
    """Operations of one workload against one node, with their failures."""

    def __init__(self, name: str, seed: int, endpoint: str) -> None:
        import workloads

        self.attempted = 0
        self.errors: list[str] = []
        self._next = 0
        self._setup_check = None
        if name == "factor":
            numbers = workloads.factor_inputs(seed)
            self._op = lambda i, tracer: workloads.factor_op(endpoint, numbers[i % len(numbers)], tracer)
        elif name == "encode":
            products = workloads.encode_inputs(seed)
            self._op = lambda i, tracer: workloads.encode_op(endpoint, products[i % len(products)], tracer)
        else:
            target = workloads.AttachTarget(endpoint, workloads.attach_product(seed))
            self._setup_check = target.check
            self._op = lambda i, tracer: workloads.attach_op(target, tracer)

    def check_setup(self) -> None:
        """Check, after set-up was timed, what it left on the node (``attach`` only)."""
        if self._setup_check is not None:
            self._record(self._setup_check())

    def _record(self, error) -> None:
        self.attempted += 1
        if error:
            self.errors.append(error)

    def step(self, i: int, tracer=None):
        """One operation; its latency, or None when it failed its check."""
        if tracer is not None:
            tracer.new_request()
        try:
            elapsed, error = self._op(i, tracer)
        except Exception as exc:  # a transport or protocol failure is one failed operation
            elapsed, error = None, f"{type(exc).__name__}: {exc}"
        self._record(error)
        return None if error else elapsed

    def drive(self, seconds: float, tracer=None, max_ops=None) -> list[float]:
        """Run the next inputs for ``seconds`` or ``max_ops`` operations, whichever
        ends first; latencies of the operations that passed their check."""
        latencies = []
        end = time.perf_counter() + seconds
        first = self._next
        while time.perf_counter() < end and self._next - first != max_ops:
            elapsed = self.step(self._next, tracer)
            if elapsed is not None:
                latencies.append(elapsed)
            self._next += 1
        return latencies

    def drive_paired(self, seconds: float, tracer) -> list[tuple[float, float]]:
        """Run each input twice, untraced and traced, for ``seconds``.

        Which of the two goes first alternates, so drift in machine speed
        and the order of the pair cancel out of the difference.
        """
        pairs = []
        end = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < end:
            first, second = (None, tracer) if i % 2 == 0 else (tracer, None)
            a, b = self.step(i, first), self.step(i, second)
            if a is not None and b is not None:
                pairs.append((a, b) if first is None else (b, a))
            i += 1
        return pairs


def host_steal() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole host so far, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as handle:
        ticks = [int(x) for x in handle.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def set_up(name: str, seed: int, reps: int):
    """Start a node and the workload ``reps`` times; keep the last, report the median time."""
    from live_node import LiveNode

    times = []
    for rep in range(reps):
        node = LiveNode(str(SRC))
        try:
            started = time.perf_counter()
            run = Run(name, seed, node.endpoint)
            times.append(node.ready_s + time.perf_counter() - started)
        except BaseException:
            node.stop()
            raise
        if rep < reps - 1:
            node.stop()
    run.check_setup()
    return node, run, statistics.median(times)


def end_to_end(workload: str, seed: int, seconds: float, setup_reps: int) -> tuple[dict, list[Run]]:
    node, run, setup_s = set_up(workload, seed, setup_reps)
    with node:
        run.step(0)  # warm-up: checked and counted, not timed
        cpu0, ops0, steal0 = node.cpu_s(), run.attempted, host_steal()
        started = time.perf_counter()
        latencies = run.drive(seconds, max_ops=SAMPLE_AFTER[workload])
        sampled_after = run.attempted
        measured_s = time.perf_counter() - started
        # the pause is left out of the measured time; the node is idle during it
        threads, rss = node.settled_threads(), node.rss_mb()
        latencies += run.drive(seconds - measured_s)
        cpu_s, ops = node.cpu_s() - cpu0, run.attempted - ops0
        steal = [b - a for a, b in zip(steal0, host_steal())]
        end_threads = node.settled_threads()
    if not latencies:
        raise RuntimeError("no operation passed its check: " + "; ".join(run.errors[:3]))
    tail_s = tail(latencies)
    beyond = sum(1 for x in latencies if x > tail_s)
    print(f"# {workload}: {len(latencies)} measured operations after 1 warm-up; tail_ms is "
          f"p{TAIL_PERCENTILE}, with {beyond} samples beyond it")
    print(f"# {workload}: node threads {threads} after {sampled_after} operations, "
          f"{end_threads} at the end after {run.attempted}")
    print(f"# host: {100 * steal[0] / max(steal[1], 1):.1f}% of CPU time stolen by the hypervisor while measuring")
    metrics = {
        "p50_ms": 1e3 * statistics.median(latencies),
        "tail_ms": 1e3 * tail_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "setup_s": setup_s,
        "server_rss_mb": rss,
        "server_threads": threads,
        "server_cpu_ms_per_op": 1e3 * cpu_s / ops,
    }
    return metrics, [run]


def traced(workload: str, seed: int, seconds: float, reps: int) -> tuple[dict, list[Run]]:
    import layers
    from live_node import LiveNode
    from spans import Tracer

    quarter = seconds / 4
    tracers = {name: Tracer() for name in WORKLOADS}
    with LiveNode(str(SRC)) as node:
        runs = {}
        for name in sorted(WORKLOADS, key=lambda w: w != workload):
            runs[name] = Run(name, seed, node.endpoint)
            runs[name].check_setup()
            runs[name].step(0)
            cpu0, ops0 = node.cpu_s(), runs[name].attempted
            if name == workload:
                pairs = runs[name].drive_paired(2 * quarter, tracers[name])
            else:
                runs[name].drive(quarter, tracers[name])
            if name == "encode":
                encode_cpu_per_op_s = (node.cpu_s() - cpu0) / (runs[name].attempted - ops0)
        numbers = layers.dpll_instances(seed)
        metrics, run_s = layers.dpll_layer(numbers, reps)
        metrics.update(layers.solving_layer(node.endpoint, numbers, run_s, reps))

    overhead_s = statistics.median(t - u for u, t in pairs)
    metrics["trace.overhead_ms"] = 1e3 * overhead_s
    metrics["trace.overhead_pct"] = 100.0 * overhead_s / statistics.median(u for u, _ in pairs)
    metrics.update(span_metrics(tracers, encode_cpu_per_op_s))

    factoring, l32 = layers.factoring_layer(seed, reps)
    metrics.update(factoring)
    metrics.update(layers.wire_layer(l32, reps))
    metrics.update(layers.cnf_layer(l32, seed, reps))
    metrics.update(layers.exprs_layer(seed, reps))

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({name: t.spans for name, t in tracers.items()}, handle)
    print(f"# {workload}: spans written to {path.relative_to(ROOT)}")
    return metrics, list(runs.values())


def _median_ms(spans: list[dict]) -> float:
    return 1e3 * statistics.median(s["end"] - s["start"] for s in spans)


def span_metrics(tracers: dict, encode_cpu_per_op_s: float) -> dict:
    factor, encode, attach = tracers["factor"], tracers["encode"], tracers["attach"]
    out = {
        "rpc.create_ms": _median_ms(factor.named("rpc.SatCnf.create")),
        "rpc.find_available_ms": _median_ms(factor.named("rpc.Kernel.findAvailable")),
        "rpc.solve_ms": _median_ms(factor.named("rpc.SatSolver.solve")),
        "rpc.delete_ms": _median_ms(factor.named("rpc.SatCnf.delete")),
        "client.connect_ms": _median_ms(attach.named("client.connect")),
    }
    encode_roots = encode.named("bench.encode_op")
    ops = len(encode_roots)
    reserves = encode.named("client.reserve_variables")
    clause_calls = encode.named("client.add_clause_direct")
    calls = sum(s["count"] for s in clause_calls)
    relayed = statistics.median(s["relayed"] for s in encode_roots)
    out.update(
        {
            "client.reserve_variables_ms": _median_ms(reserves),
            "client.reserve_calls": len(reserves) / ops,
            "client.add_clause_direct_us": 1e6 * sum(s["end"] - s["start"] for s in clause_calls) / calls,
            "client.add_clause_calls": calls / ops,
            "client.converge_lag_ms": 1e3 * statistics.median(s["converge_lag_s"] for s in encode_roots),
            "service.relayed_clauses": relayed,
            "service.cpu_us_per_clause": 1e6 * encode_cpu_per_op_s / relayed,
        }
    )
    for name, layer_names in SELF_LAYERS.items():
        self_s = tracers[name].self_times()
        ops = sum(1 for s in tracers[name].spans if s["parent"] is None)
        for layer in layer_names:
            out[f"self.{name}.{layer}_ms"] = 1e3 * self_s.get(layer, 0.0) / ops
    return out


def loopback_rtt_us(rounds: int = 200) -> float:
    """Median round trip of one byte over a loopback TCP connection."""
    listener = socket.create_server(("127.0.0.1", 0))
    def echo():
        conn, _ = listener.accept()
        with conn:
            while data := conn.recv(1):
                conn.sendall(data)
    server = threading.Thread(target=echo)
    server.start()
    times = []
    with socket.create_connection(listener.getsockname()) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for _ in range(rounds):
            start = time.perf_counter()
            sock.sendall(b"x")
            sock.recv(1)
            times.append(time.perf_counter() - start)
    server.join()
    listener.close()
    return 1e6 * statistics.median(times)


class Overrun(BaseException):
    """The run took too long; not an ``Exception``, so no operation counts it as its own failure."""


def _watchdog(signum, frame):
    raise Overrun(f"benchmark exceeded {WATCHDOG_S} s")


def _terminated(signum, frame):
    # unwinds through the ``with`` blocks, so the node is stopped and reaped
    sys.exit(128 + signum)


def run_workload(workload: str, args, units: dict) -> dict:
    """Measure one workload, print its lines, and return its JSON result."""
    setup_reps, reps = (1, 1) if args.quick else (SETUP_REPS, LAYER_REPS)
    signal.alarm(WATCHDOG_S)
    if args.trace:
        metrics, runs = traced(workload, args.seed, args.seconds, reps)
        units = units["per_layer"]
    else:
        metrics, runs = end_to_end(workload, args.seed, args.seconds, setup_reps)
        units = units["end_to_end"]
    signal.alarm(0)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    attempted = sum(r.attempted for r in runs)
    errors = [e for r in runs for e in r.errors]
    for error in errors[:5]:
        print(f"# {workload} failed: {error}")
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    print(f"# {workload}: {len(errors)} failed of {attempted} attempted")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "sathub" / "__init__.py").is_file():
        print(f"error: no sathub package under {SRC}; run from a sathub checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _watchdog)
    signal.signal(signal.SIGTERM, _terminated)
    units = declared_units()

    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"{platform.system()}-{platform.machine()} loopback_rtt_us={loopback_rtt_us():.1f}")
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args, units)))
        return 0
    # one line for all three: metric names prefixed with the workload
    results = {w: run_workload(w, args, units) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
