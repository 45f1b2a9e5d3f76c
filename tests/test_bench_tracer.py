"""The benchmark tracer's contract with the package it patches.

`bench/tracer.py` wraps package functions at the attributes their callers
resolve and puts the originals back afterwards.  If a refactor moves or
renames one of those attributes, the traced benchmark run breaks, so this
checks every target without running the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

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


def test_traced_training_counts_one_loss_and_grads_call_per_batch():
    _check_traced_training_counts("nnsc")


@pytest.mark.parametrize("variant", ["instance", "word"])
def test_traced_training_with_rule_features_counts_one_call_per_batch(variant):
    _check_traced_training_counts(variant)


def _check_traced_training_counts(variant):
    # `model.batches` and `model.train_words` count `loss_and_grads` calls;
    # a `train` that bypassed it would read 0 for them
    import math

    import numpy as np

    from rulefuse.matching import Sentence
    from rulefuse.model import ModelParams, PaddedItems, TrainConfig, build_vocab, train

    p, m_total = 2, 5
    sentences = [Sentence(("a", "b", "c")[: 1 + k % 3]) for k in range(10)]
    lengths = np.array([s.n for s in sentences])
    tags = (np.arange(3) < lengths[:, None])[..., None] * np.ones(p)
    feats = {"nnsc": None, "instance": np.ones((10, m_total)), "word": tags}
    items = PaddedItems(sentences, [k % 2 for k in range(10)], feats[variant])
    vocab = build_vocab(sentences)
    params = ModelParams.init(variant, vocab, d=3, h=2, C=2, p=p, m_total=m_total)
    config = TrainConfig(epochs=2, batch_size=4, seed=0)
    tracer = _load_tracer().Tracer()
    tracer.activate(0)
    try:
        train(params, items, config)
    finally:
        tracer.deactivate()
    batches = config.epochs * math.ceil(len(items) / config.batch_size)
    counts = tracer.counts_for([0])
    assert counts["model.batches"] == batches
    assert counts["model.train_words"] == config.epochs * sum(it.sentence.n for it in items)
    assert sum(span[0] == "model.loss_and_grads" for span in tracer.spans) == batches
