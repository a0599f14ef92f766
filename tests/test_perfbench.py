"""The benchmark drives vwsim through its public API (``PsimIndex.from_lists``,
``PsimIndex.lists``, ``build_huffman_tree`` with payloads,
``MatchOutcome.from_arrays``, ...); a smoke sweep keeps that API working."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_sweep_runs_and_checks_out():
    # Every workload at tiny sizes, untraced and traced, each output checked;
    # warnings are errors here as in the in-process suite.
    proc = subprocess.run([sys.executable, "-W", "error", "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert results
    assert all(r["correct"] for r in results), proc.stdout[-3000:]
