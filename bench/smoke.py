"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 bench/smoke.py

Checks that every workload prints every metric that BENCHMARK.json
declares, with its unit, in both modes; that a deliberately wrong
expected value on each workload shows up as a failed op; and that the
benchmark exits non-zero without a result when the sources are missing.
Takes under a minute.  It is not named test_*.py, so the repository's
pytest run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

run._require_sources()
import workloads  # noqa: E402  (needs the paths set above)

SEED = 3


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def tiny(name: str, trace: bool = False, sizes=workloads.TINY) -> dict:
    return run.run_workload(name, SEED, 0.1, trace, sizes)["final"]


def check_metric_names() -> None:
    for name in workloads.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            final = tiny(name, trace)
            units = {k: v["unit"] for k, v in final["metrics"].items()}
            assert units == declared(kind), (name, kind, units)
            assert final["correct"] and final["failed"] == 0, (name, kind, final)
            assert final["attempted"] >= 1
            print(f"ok   {name} {kind}: {len(units)} metrics, {final['attempted']} ops")


def expect_failure(label: str, name: str, **sizes) -> None:
    final = tiny(name, sizes=workloads.Sizes(**{**workloads.TINY.__dict__, **sizes}))
    assert not final["correct"] and final["failed"] >= 1, (label, final)
    print(f"ok   {label}: {final['failed']} of {final['attempted']} ops failed")


def check_fault_detection() -> None:
    real_load = workloads.load_oracles

    def flipped_oracles(root):
        module = real_load(root)
        original = module.oracle_earlystop_accepts
        calls = []

        def flip_first(ast, words):
            calls.append(1)
            return original(ast, words) != (len(calls) == 1)

        module.oracle_earlystop_accepts = flip_first
        return module

    workloads.load_oracles = flipped_oracles
    try:
        expect_failure("flipped oracle bit on rules_atis", "rules_atis")
    finally:
        workloads.load_oracles = real_load

    expect_failure("impossible accuracy gap on grid_synth", "grid_synth", min_gap=2.0)

    real_expect = workloads.EvalBulk.expect

    def wrong_expect(self):
        real_expect(self)
        self.expected[0] = 1.0 - self.expected[0] + 1e-3

    workloads.EvalBulk.expect = wrong_expect
    try:
        expect_failure("wrong expected accuracy on eval_bulk", "eval_bulk")
    finally:
        workloads.EvalBulk.expect = real_expect


def check_bare_directory() -> None:
    """Only BENCHMARK.json and bench/: no result, non-zero exit."""
    scratch = Path(tempfile.mkdtemp(prefix="bare-", dir=run.BENCH / "out"))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(run.BENCH, scratch / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "rules_atis", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print(f"ok   bare directory: exit {proc.returncode}, no result")


if __name__ == "__main__":
    check_metric_names()
    check_fault_detection()
    check_bare_directory()
    print("smoke test passed")
