"""Smoke test of the benchmark: each workload runs end to end and its answers check.

Timings are never asserted; this guards the benchmark's calls into the
package (``reserve_variables``, ``add_clause_direct``, ``dpll.run``, the CLI),
and with ``--trace 1`` its per-layer calls (``layers.local_instance`` with an
``alloc_chunk``, ``spans.TracedMemory`` standing in for a mirror).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def quick_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", trace, "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["factor", "encode"])
def test_quick_run_answers_correctly(workload):
    result = quick_run(workload, "0")
    assert result["correct"] is True
    assert result["failed"] == 0


def test_quick_traced_run_measures_every_layer():
    result = quick_run("factor", "1")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["client.reserve_calls"]["value"] == 2
