"""Operator entry points: serve, encode, factor, solve.

Exit codes follow SAT tooling conventions: 0 for SAT/success, 20 for
UNSAT, 30 for UNKNOWN, 1 for usage or transport errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import dimacs
from .client import connect
from .cnf import CnfStore
from .dpll import run as run_solver
from .factoring import FactorizationSpec, build_factorization, decode_model
from .node import ServerNode
from .rpc import web_call

EXIT_SAT = 0
EXIT_UNSAT = 20
EXIT_UNKNOWN = 30
EXIT_ERROR = 1

ENDPOINT_ENV = "SATHUB_ENDPOINT"


def default_workers() -> int:
    return max(1, (os.cpu_count() or 2) - 1)


def parse_product(text: str) -> int:
    """Decimal, or an explicit MSB-first bit string prefixed with 0b."""
    if text.startswith(("0b", "0B")):
        return int(text, 2)
    return int(text, 10)


def cmd_serve(args) -> int:
    if args.workers < 1:
        print("error: need at least one solver worker", file=sys.stderr)
        return EXIT_ERROR
    try:
        node = ServerNode(host=args.host, port=args.port, workers=args.workers)
    except (OSError, OverflowError) as exc:  # OverflowError: a port outside 0..65535
        print(f"error: cannot listen on port {args.port}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    node.start()
    print(f"serving at {node.endpoint} with {len(node.workers)} solver workers")
    print(f"export {ENDPOINT_ENV}={node.endpoint} for the factor command")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        node.stop()
        return EXIT_SAT


def cmd_encode(args) -> int:
    try:
        product = parse_product(args.product)
        spec = FactorizationSpec.from_product(args.l, product)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.out.startswith("tcp://"):
        try:
            mirror = connect(args.out)
        except (OSError, ValueError) as exc:
            print(f"error: cannot reach memory at {args.out}: {exc}", file=sys.stderr)
            return EXIT_ERROR
        try:
            layout = build_factorization(spec, mirror)
            vars_total = mirror.var_count
            clauses_total = mirror.version
        finally:
            mirror.close()
    else:
        store = CnfStore(0)
        layout = build_factorization(spec, store)
        comments = [
            f"factorization of {product} into two {args.l}-bit factors",
            f"u vars {_var_range(layout['uVars'])}",
            f"v vars {_var_range(layout['vVars'])}",
        ]
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(dimacs.dumps(store, comments=comments))
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_ERROR
        vars_total = store.var_count
        clauses_total = store.version

    print(f"variables: {vars_total}")
    print(f"clauses:   {clauses_total}")
    print(f"u vars:    {_var_range(layout['uVars'])}")
    print(f"v vars:    {_var_range(layout['vVars'])}")
    return EXIT_SAT


def _var_range(bits: list[int]) -> str:
    return f"{min(bits)}..{max(bits)} (MSB first)"


def cmd_factor(args) -> int:
    endpoint = args.endpoint or os.environ.get(ENDPOINT_ENV)
    if not endpoint:
        print(
            f"error: no endpoint; pass --endpoint or set {ENDPOINT_ENV}", file=sys.stderr
        )
        return EXIT_ERROR
    try:
        spec = FactorizationSpec.from_product(args.l, args.number)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    web_pid = f"cli-{os.getpid()}"
    try:
        created = web_call(
            endpoint, "SatCnf.create", {"initialVariableCount": 0}, web_pid=web_pid
        )
        if "error" in created:
            print(f"error: {created['error']}", file=sys.stderr)
            return EXIT_ERROR
        try:
            mirror = connect(created["directUrl"])
            try:
                build_factorization(spec, mirror)
            finally:
                mirror.close()

            found = web_call(
                endpoint, "Kernel.findAvailable", {"timeout": args.wait}, web_pid=web_pid
            )
            if "error" in found:
                print(f"error: {found['error']}", file=sys.stderr)
                return EXIT_ERROR
            outcome = web_call(
                endpoint,
                "SatSolver.solve",
                {"satMemoryUrl": created["directUrl"], "timeout": args.wait},
                object_ref=found["solverId"],
                web_pid=web_pid,
            )
        finally:
            web_call(endpoint, "SatCnf.delete", object_ref=created["objectRef"], web_pid=web_pid)
    except OSError as exc:  # a TransportError or a mirror that lost its hub
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    result = outcome.get("result")
    if result == "SAT":
        u, v = decode_model(outcome.get("model") or [], spec)
        if u * v != args.number or u < v:
            print(
                f"error: solver returned inconsistent factors {u}, {v}", file=sys.stderr
            )
            return EXIT_ERROR
        print(f"{args.number} = {u} × {v}")
        return EXIT_SAT
    if result == "UNSAT":
        print(f"UNSAT (no two factors of length {args.l})")
        return EXIT_UNSAT
    error = outcome.get("error")
    print(f"UNKNOWN{f' ({error})' if error else ''}")
    return EXIT_UNKNOWN


def cmd_solve(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            store = dimacs.read_store(handle.read())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    outcome = run_solver(store)
    print(f"{outcome.result}{f' ({outcome.error})' if outcome.error else ''}")
    if outcome.result == "SAT":
        lits = [i + 1 if v else -(i + 1) for i, v in enumerate(outcome.model)]
        print(" ".join(map(str, lits)) + " 0")
        return EXIT_SAT
    return EXIT_UNSAT if outcome.result == "UNSAT" else EXIT_UNKNOWN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sathub",
        description="Shared SAT memory and solvers, with an array-multiplier factoring encoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the memory service and solver workers")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--workers", type=int, default=default_workers())
    serve.set_defaults(func=cmd_serve)

    encode = sub.add_parser("encode", help="encode a factorization instance")
    encode.add_argument("--l", type=int, required=True, help="factor bit length (power of two)")
    encode.add_argument(
        "--product", required=True, help="decimal, or 0b-prefixed MSB-first bits"
    )
    encode.add_argument(
        "--out", required=True, help="DIMACS path or tcp:// memory direct URL"
    )
    encode.set_defaults(func=cmd_encode)

    factor = sub.add_parser("factor", help="factor an integer via the shared solvers")
    factor.add_argument("number", type=int)
    factor.add_argument("--l", type=int, required=True)
    factor.add_argument("--endpoint", default=None)
    factor.add_argument(
        "--wait", type=float, default=60.0, help="solver acquisition timeout (seconds)"
    )
    factor.set_defaults(func=cmd_factor)

    solve = sub.add_parser("solve", help="solve a DIMACS file with the CDCL reference solver")
    solve.add_argument("path")
    solve.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_ERROR if exc.code else EXIT_SAT
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
