"""The benchmark's workloads, run end to end at their tiny sizes.

`bench/workloads.py` drives rulefuse through its public functions: the
per-sentence features of `FeatureCache.features`, `run_experiment`, and
the `synth-gen`/`fewshot`/`train`/`eval` commands.  If one of them
changes, the benchmark only reports failed ops; these run every workload
the way `bench/run.py` does, so such a break fails the test suite too.
That includes loading `tests/oracles.py` without a `sys.modules` entry.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str, monkeypatch):
    """bench/NAME.py as module NAME, registered in sys.modules until the
    test ends (its dataclasses and its `import atis_gen` look it up there)."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_rules_atis_full_pass_reports_no_errors(tmp_path, monkeypatch):
    _load("atis_gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    # bench/run.py never imports tests/oracles.py as a module: `load_oracles`
    # executes it unregistered, and a dataclass defined there then fails
    monkeypatch.delitem(sys.modules, "oracles", raising=False)
    workload = workloads.RulesAtis(0, tmp_path, ROOT, workloads.TINY)
    workload.setup()
    workload.expect()
    results = []
    for i in range(workload.min_ops):
        kept = workload.keep(i, workload.op(i))
        assert workload.check(i, kept) == [], i
        results.append(kept)
    assert workload.finish(results) == {}
    assert 0.0 < workload.accuracy(results) <= 1.0
    assert len(workload.detail(results)["compile_s"]) == workload.min_ops


@pytest.mark.parametrize("name", ["grid_synth", "eval_bulk"])
def test_workload_full_pass_reports_no_errors(name, tmp_path, monkeypatch):
    _load("atis_gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.WORKLOADS[name](0, tmp_path, ROOT, workloads.TINY)
    workload.setup()
    workload.expect()
    results = []
    for i in range(workload.min_ops):
        kept = workload.keep(i, workload.op(i))
        assert workload.check(i, kept) == [], i
        results.append(kept)
    assert workload.finish(results) == {}
    assert 0.0 <= workload.accuracy(results) <= 1.0
    assert set(workload.detail(results)) == {f"acc.{v}" for v in workloads.VARIANTS}


@pytest.mark.parametrize("name", ["rules_atis", "grid_synth", "eval_bulk"])
def test_traced_op_passes_its_checks_and_counts(name, tmp_path, monkeypatch):
    # `bench/run.py --trace` patches every function in `tracer.TARGETS`; one
    # traced op per workload shows that each target still exists and that
    # the counters its per-layer metrics read are filled
    _load("atis_gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    tracer_module = _load("tracer", monkeypatch)
    monkeypatch.delitem(sys.modules, "oracles", raising=False)
    workload = workloads.WORKLOADS[name](0, tmp_path, ROOT, workloads.TINY)
    workload.setup()
    workload.expect()
    # eval_bulk's op 0 scores its nnsc checkpoint, which compiles no rule, so
    # trace op 1, which scores the instance checkpoint
    i = 1 if name == "eval_bulk" else 0
    tracer = tracer_module.Tracer()
    tracer.activate(0)
    try:
        kept = workload.keep(i, workload.op(i))
    finally:
        tracer.deactivate()
    assert workload.check(i, kept) == []
    counts = tracer.counts_for([0])
    assert counts["automata.mdfa_states"] > 0
    if name == "grid_synth":
        assert counts["model.train_runs"] > 0
    if name == "rules_atis":
        assert tracer.calls([0], "experiment.features") == len(workload.slice_range(0))
        # `compile` goes through the three wrapped stages, over the 54 seed-0 rules
        assert counts["automata.nfa_states"] == 648
        assert counts["automata.dfa_states"] == 684
        assert counts["automata.mdfa_states"] == 432
