"""The benchmark tracer's contract with the package it patches.

`bench/tracer.py` wraps package functions at the attributes their callers
resolve and puts the originals back afterwards.  If a refactor moves or
renames one of those attributes, the traced benchmark run breaks, so this
checks every target without running the benchmark.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_target():
    tracer_module = _load_tracer()
    targets = [(owner, attr) for owner, attr, *_ in tracer_module.TARGETS]
    originals = [vars(owner)[attr] for owner, attr in targets]  # KeyError: target gone
    tracer = tracer_module.Tracer()
    tracer.activate(0)
    try:
        patched = [vars(owner)[attr] for owner, attr in targets]
        assert all(now is not before for now, before in zip(patched, originals))
        # a wrapped classmethod still builds a model, and the call is recorded
        from rulefuse.model import ModelParams

        params = ModelParams.init("nnsc", {"<unk>": 0, "a": 1}, d=2, h=2, C=2)
        assert params.emb.shape == (2, 2)
        assert any(span[0] == "model.init" for span in tracer.spans)
    finally:
        tracer.deactivate()
    assert all(vars(owner)[attr] is orig for (owner, attr), orig in zip(targets, originals))
