"""The benchmark's rules_atis workload, run end to end at its tiny sizes.

`bench/workloads.py` reads the per-sentence features that
`FeatureCache.features` returns.  If their shape changes, the benchmark
only reports failed ops; this runs one full corpus pass of the workload
the way `bench/run.py` does, so such a break fails the test suite too.
"""

import importlib.util
import sys
from pathlib import Path

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
