import inspect
import re

import numpy as np
import pytest

from oracles import max_grad_relative_error, oracle_lstm, padded_items, random_model_case
from rulefuse.errors import (
    CheckpointError,
    ConfigError,
    DimensionMismatchError,
    EmptyDatasetError,
    EmptySentenceError,
    MalformedLineError,
    MissingFeaturesError,
    NumericalError,
    RulefuseError,
)
from rulefuse.matching import Sentence
from rulefuse.model import (
    INFER_CHUNK,
    ModelParams,
    PaddedItems,
    TrainConfig,
    UNK,
    build_vocab,
    evaluate_items,
    forward,
    load_model,
    load_pretrained_embeddings,
    loss_and_grads,
    predict,
    save_model,
    train,
)
from rulefuse.model import (
    _Batch,
    _forward_padded,
    _Gradients,
    _input_forward,
    _ItemSet,
    _lstm_forward,
    _padded_ids,
)
from rulefuse.rules import parse_regex


def _vocab(*words):
    vocab = {UNK: 0}
    for w in words:
        vocab[w] = len(vocab)
    return vocab


def _subset(items, rows):
    """The given rows of a PaddedItems, as one padded to their own longest."""
    rows = np.asarray(rows, dtype=np.intp)
    feats = items.feats
    if feats is not None:
        longest = items.lengths[rows].max(initial=0)
        feats = feats[rows, :longest] if feats.ndim == 3 else feats[rows]
    return PaddedItems([items.sentences[i] for i in rows], items.labels[rows], feats)


def _nnsc_params(seed=0, **kw):
    defaults = dict(d=4, h=3, C=3)
    defaults.update(kw)
    return ModelParams.init("nnsc", _vocab("a", "b", "c", "d"), seed=seed, **defaults)


def test_build_vocab_order():
    sents = [Sentence.from_text("b a"), Sentence.from_text("a c")]
    assert build_vocab(sents) == {UNK: 0, "b": 1, "a": 2, "c": 3}


def test_forward_normalizations():
    params = _nnsc_params()
    rec = forward(params, Sentence.from_text("a b c d oov"))
    assert rec.alpha.shape == (5,)
    assert abs(rec.alpha.sum() - 1.0) < 1e-6
    assert abs(rec.y.sum() - 1.0) < 1e-6
    assert np.all(rec.y >= 0) and np.all(rec.y <= 1)


def test_single_word_attention_is_exact():
    params = _nnsc_params()
    rec = forward(params, Sentence.from_text("a"))
    assert rec.alpha.tolist() == [1.0]
    assert np.array_equal(rec.f, rec.H[0])


def test_attention_output_is_convex_combination():
    params = _nnsc_params(seed=3)
    fwd = forward(params, Sentence.from_text("a b c"))
    rev = forward(params, Sentence.from_text("c b a"))
    assert not np.array_equal(fwd.H, rev.H)
    for rec in (fwd, rev):
        assert np.all(rec.alpha >= 0.0) and np.all(rec.alpha <= 1.0)
        assert np.allclose(rec.f, rec.H.T @ rec.alpha)


def test_variant_feature_requirements():
    vocab = _vocab("a")
    inst = ModelParams.init("instance", vocab, d=4, h=3, C=2, p=1, m_total=3)
    word = ModelParams.init("word", vocab, d=4, h=3, C=2, p=1, m_total=3)
    s = Sentence.from_text("a a")
    with pytest.raises(MissingFeaturesError):
        forward(inst, s)
    with pytest.raises(MissingFeaturesError):
        forward(word, s)
    with pytest.raises(DimensionMismatchError):
        forward(inst, s, np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        forward(word, s, np.zeros((3, 1)))
    with pytest.raises(DimensionMismatchError):  # features come as arrays only
        forward(inst, s, [0.0, 1.0, 0.0])


def test_instance_with_zero_block_matches_nnsc():
    # zero u vectors + zero classifier rows for the u block leave the
    # concatenated branch inert, so probabilities must coincide
    nnsc = ModelParams.init("nnsc", _vocab("a", "b"), d=4, h=3, C=3, seed=5)
    m_total = 4
    inst = ModelParams.init(
        "instance", _vocab("a", "b"), d=4, h=3, C=3, p=1, m_total=m_total, seed=5
    )
    for name in ("emb", "fwd_wx", "fwd_wh", "fwd_b", "bwd_wx", "bwd_wh", "bwd_b",
                 "att_w", "mlp_b1", "mlp_w2", "mlp_b2"):
        setattr(inst, name, getattr(nnsc, name).copy())
    inst.mlp_w1 = np.vstack([nnsc.mlp_w1, np.zeros((m_total, nnsc.mlp_w1.shape[1]))])
    s = Sentence.from_text("a b a")
    assert np.allclose(forward(inst, s, np.zeros(m_total)).y, forward(nnsc, s).y)


def test_variant_reduction_at_p_zero():
    # at p = 0 a missing feature array reads as zero-width, as a given one does
    vocab = _vocab("a", "b", "c")
    s = Sentence.from_text("a c b b")
    given = {"instance": np.zeros(0), "word": np.zeros((s.n, 0))}
    nnsc = ModelParams.init("nnsc", vocab, d=5, h=4, C=3, p=0, m_total=0, seed=11)
    y = forward(nnsc, s).y
    best = int(np.argmax(y))
    items = PaddedItems([s, s, s], [0, 1, 2])
    loss, _ = loss_and_grads(nnsc, items)
    for variant in ("instance", "word"):
        params = ModelParams.init(variant, vocab, d=5, h=4, C=3, p=0, m_total=0, seed=11)
        for feats in (given[variant], None):
            assert np.max(np.abs(forward(params, s, feats).y - y)) == 0.0
        assert evaluate_items(params, PaddedItems([s], [best])) == 1.0
        assert evaluate_items(params, PaddedItems([s], [(best + 1) % 3])) == 0.0
        assert loss_and_grads(params, items)[0] == loss


@pytest.mark.parametrize("variant", ["nnsc", "instance", "word"])
def test_gradients_match_finite_differences(variant):
    for seed in (1, 2, 3, 4, 5):
        params, batch = random_model_case(seed, variant)
        assert max_grad_relative_error(params, batch) < 1e-4


MIXED_LENGTHS = (1, 12, 3, 7, 2, 12, 5, 9, 4, 1)


def _mixed_length_case(variant, seed=0, lengths=MIXED_LENGTHS):
    """Params plus one batch whose sentences span lengths 1 to 12."""
    rng = np.random.default_rng(seed)
    words = ["red", "green", "blue", "cyan", "plum"]
    m_sizes = [2, 4]
    params = ModelParams.init(
        variant, _vocab(*words), d=4, h=3, C=3, p=len(m_sizes), m_total=sum(m_sizes),
        seed=seed,
    )
    # nonzero biases: with zero biases a zero input keeps a zero state, so
    # misplaced zero padding would not show
    for bias in (params.fwd_b, params.bwd_b, params.mlp_b1, params.mlp_b2):
        bias[:] = rng.uniform(-0.3, 0.3, size=bias.shape)
    sentences, labels, rows = [], [], []
    for n in lengths:
        sentences.append(Sentence(tuple(rng.choice(words + ["oovword"]) for _ in range(n))))
        if variant == "instance":
            rows.append(np.concatenate([rng.integers(0, 2, size=m).astype(float) for m in m_sizes]))
        elif variant == "word":
            rows.append(np.stack(
                [rng.integers(0, 2, size=n).astype(float) for _ in m_sizes], axis=1
            ))
        labels.append(int(rng.integers(0, 3)))
    return params, padded_items(sentences, labels, rows)


@pytest.mark.parametrize("variant", ["nnsc", "instance", "word"])
def test_mixed_length_batch_gradients_match_finite_differences(variant):
    params, batch = _mixed_length_case(variant, seed=7)
    assert max_grad_relative_error(params, batch) < 1e-4


@pytest.mark.parametrize("variant", ["nnsc", "instance", "word"])
def test_padding_leaves_each_sentence_unchanged(variant):
    params, batch = _mixed_length_case(variant, seed=8)
    data = _ItemSet(params, batch)
    (H, alpha, f, _, y), _ = _forward_padded(params, data.ids, data.lengths, data.feats)
    for b, item in enumerate(batch):
        n = item.sentence.n
        alone = forward(params, item.sentence, item.feats)
        assert np.max(np.abs(y[b] - alone.y)) < 1e-12
        assert np.max(np.abs(H[b, :n] - alone.H)) < 1e-12
        assert np.max(np.abs(f[b] - alone.f)) < 1e-12
        assert np.all(alpha[b, n:] == 0.0)


@pytest.mark.parametrize("variant", ["nnsc", "instance", "word"])
def test_inference_and_training_forward_agree_bit_for_bit(variant):
    # inference stores no LSTM gates or cells; that must not change a bit
    params, batch = _mixed_length_case(variant, seed=10)
    data = _ItemSet(params, batch)
    inputs = (data.ids, data.lengths, data.feats)
    inferred, (_, lstm_state, *_) = _forward_padded(params, *inputs)
    trained, _ = _forward_padded(params, *inputs, keep=True)
    assert lstm_state is None
    for name, a, b in zip(("H", "alpha", "f", "logits", "y"), inferred, trained):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("variant", ["nnsc", "instance", "word"])
def test_batched_evaluation_equals_per_item_predict(variant):
    # more items than one inference chunk, so the chunk boundary is crossed
    lengths = [1 + (i * 5) % 12 for i in range(INFER_CHUNK + 37)]
    params, items = _mixed_length_case(variant, seed=9, lengths=lengths)
    predicted = np.array([predict(params, it.sentence, it.feats) for it in items])
    agree = PaddedItems(items.sentences, predicted, items.feats)
    differ = PaddedItems(items.sentences, (predicted + 1) % 3, items.feats)
    assert evaluate_items(params, agree) == 1.0
    assert evaluate_items(params, differ) == 0.0


@pytest.mark.parametrize("keep", [False, True], ids=["inference", "training"])
@pytest.mark.parametrize("variant", ["nnsc", "word"])
def test_lstm_forward_equals_the_step_by_step_oracle_byte_for_byte(variant, keep):
    # halved i/f/o weights and one tanh per step must not change a bit
    params, batch = _mixed_length_case(variant, seed=12)
    data = _ItemSet(params, batch)
    ids = _padded_ids(params, [it.sentence for it in batch], data.lengths)
    Xd, _, _ = _input_forward(params, ids, data.lengths, data.feats)
    wx, wh, b = (params._views[name] for name in ("wx", "wh", "b"))
    hs, saved = _lstm_forward(Xd, wx, wh, b, keep=keep)
    expected = oracle_lstm(np.ascontiguousarray(Xd.swapaxes(0, 1)), wx, wh, b)
    assert hs.shape == (max(MIXED_LENGTHS), 2, len(batch), params.h)
    assert hs.swapaxes(0, 1).tobytes() == expected.tobytes()
    assert (saved is None) != keep


@pytest.mark.parametrize("variant", ["nnsc", "instance", "word"])
def test_evaluation_does_not_depend_on_item_order(variant):
    # over three chunk boundaries; a run of 130 equal lengths fills whole
    # chunks, so the equal-length path (a reversed view) runs too
    lengths = [4] * 130 + [1 + (i * 5) % 12 for i in range(3 * INFER_CHUNK - 130 + 20)]
    params, items = _mixed_length_case(variant, seed=13, lengths=lengths)
    hits = sum(predict(params, it.sentence, it.feats) == it.label for it in items)
    n = len(items)
    shuffled = np.random.default_rng(0).permutation(n)
    by_length = np.argsort(items.lengths, kind="stable")
    for order in (np.arange(n), shuffled, np.arange(n)[::-1], by_length, by_length[::-1]):
        assert evaluate_items(params, _subset(items, order)) == hits / n


@pytest.mark.parametrize("variant", ["nnsc", "instance", "word"])
def test_an_empty_item_set_scores_zero(variant):
    params, items = _mixed_length_case(variant, seed=15, lengths=(2, 3))
    empty = _subset(items, [])
    assert evaluate_items(params, empty) == 0.0
    _, history = train(params, items, TrainConfig(epochs=1), dev_items=empty)
    assert history[0]["dev_accuracy"] == 0.0
    with pytest.raises(EmptyDatasetError, match="empty batch") as info:
        loss_and_grads(params, empty)
    assert isinstance(info.value, ValueError)  # callers catching ValueError still work


def test_wrong_shape_feature_arrays_raise():
    params_i, items_i = _mixed_length_case("instance", seed=11, lengths=(3, 5))
    params_w, items_w = _mixed_length_case("word", seed=11, lengths=(3, 5))
    item = items_w[0]  # 3 words, 2 rules
    tags = item.feats
    for bad in (tags.T, tags[:, :1], tags[:2], tags.ravel(), np.zeros((3, 2, 1))):
        with pytest.raises(DimensionMismatchError):
            forward(params_w, item.sentence, bad)
        with pytest.raises(DimensionMismatchError):
            loss_and_grads(params_w, PaddedItems([item.sentence], [0], bad[None]))
    u = items_i[0].feats  # m_total = 6
    for bad in (u[:-1], np.append(u, 1.0), u[None, :], np.zeros(0)):
        with pytest.raises(DimensionMismatchError):
            forward(params_i, items_i[0].sentence, bad)
        with pytest.raises(DimensionMismatchError):
            evaluate_items(params_i, PaddedItems([items_i[0].sentence], [0], bad[None]))


def test_a_padded_set_of_the_wrong_shape_raises():
    params_i, items_i = _mixed_length_case("instance", seed=11, lengths=(3, 5))
    params_w, items_w = _mixed_length_case("word", seed=11, lengths=(3, 5))
    sentences = [it.sentence for it in items_w]
    with pytest.raises(DimensionMismatchError, match=r"labels of shape \(3,\) for 2 sentences"):
        PaddedItems(sentences, [0, 1, 2])
    tags = np.zeros((2, 5, 2))
    for bad in (tags[:, :4], tags[:, :, :1], tags[:1], np.zeros((2, 6, 2)), np.zeros((2, 6))):
        with pytest.raises(DimensionMismatchError, match="tag matrix array is"):
            evaluate_items(params_w, PaddedItems(sentences, [0, 1], bad))
    for bad in (np.zeros((2, 5)), np.zeros((1, 6)), np.zeros((2, 5, 2))):
        with pytest.raises(DimensionMismatchError, match="state indicator array is"):
            evaluate_items(params_i, PaddedItems(sentences, [0, 1], bad))
    for params in (params_i, params_w):
        with pytest.raises(MissingFeaturesError):
            evaluate_items(params, PaddedItems(sentences, [0, 1]))
    assert evaluate_items(params_w, PaddedItems(sentences, [0, 1], tags)) in (0.0, 0.5, 1.0)


@pytest.mark.parametrize("entry", ["train", "dev", "evaluate_items", "loss_and_grads"])
def test_an_item_list_is_a_type_error(entry):
    # a hand-built list reached `.labels` deep inside as an AttributeError
    params, items = _mixed_length_case("word", seed=11, lengths=(3, 5))
    listed = list(items)
    before = params.theta.tobytes()
    calls = {
        "train": lambda: train(params, listed, TrainConfig(epochs=1)),
        "dev": lambda: train(params, items, TrainConfig(epochs=1), dev_items=listed),
        "evaluate_items": lambda: evaluate_items(params, listed),
        "loss_and_grads": lambda: loss_and_grads(params, listed),
    }
    with pytest.raises(TypeError, match=r"expected a PaddedItems \(see build_items\), got list"):
        calls[entry]()
    assert params.theta.tobytes() == before


def test_uniform_logits_loss_is_log_C():
    params = _nnsc_params(C=4)
    params.mlp_w2[:] = 0.0
    params.mlp_b2[:] = 0.0
    loss, _ = loss_and_grads(params, PaddedItems([Sentence.from_text("a b")], [2]))
    assert abs(loss - np.log(4)) < 1e-12


def test_duplicated_sample_keeps_mean_loss():
    params = _nnsc_params(seed=9)
    s = Sentence.from_text("a c b")
    single, _ = loss_and_grads(params, PaddedItems([s], [1]))
    double, _ = loss_and_grads(params, PaddedItems([s, s], [1, 1]))
    assert abs(single - double) < 1e-12


def test_predict_argmax_and_tie_break():
    params = _nnsc_params(C=3)
    params.mlp_w2[:] = 0.0
    params.mlp_b2[:] = [0.0, 1.0, 0.0]
    assert predict(params, Sentence.from_text("a")) == 1
    params.mlp_b2[:] = [1.0, 1.0, 0.0]  # exact tie -> lowest index
    assert predict(params, Sentence.from_text("a")) == 0


def _toy_items():
    # label decided by the marker word: linearly separable
    sentences = []
    for i in range(10):
        sentences.append(Sentence.from_text(f"w{i} yes w{(i+3)%10}"))
        sentences.append(Sentence.from_text(f"w{i} no w{(i+7)%10}"))
    return PaddedItems(sentences, [1, 0] * 10)


def test_train_memorizes_separable_toy_set():
    items = _toy_items()
    vocab = build_vocab(it.sentence for it in items)
    params = ModelParams.init("nnsc", vocab, d=8, h=8, C=2, seed=1)
    params, history = train(params, items, TrainConfig(epochs=50, lr=0.5, seed=1))
    assert evaluate_items(params, items) == 1.0
    assert len(history) == 50


def test_zero_learning_rate_keeps_params_bitwise():
    items = _subset(_toy_items(), range(4))
    vocab = build_vocab(it.sentence for it in items)
    params = ModelParams.init("nnsc", vocab, d=4, h=3, C=2, seed=2)
    before = {k: v.tobytes() for k, v in params.tensors().items()}
    params, _ = train(params, items, TrainConfig(epochs=3, lr=0.0, seed=2))
    after = {k: v.tobytes() for k, v in params.tensors().items()}
    assert before == after


def test_training_is_deterministic_per_seed():
    items = _toy_items()
    vocab = build_vocab(it.sentence for it in items)

    def run():
        params = ModelParams.init("nnsc", vocab, d=4, h=4, C=2, seed=3)
        return train(params, items, TrainConfig(epochs=5, lr=0.2, seed=3))

    first_params, first_hist = run()
    second_params, second_hist = run()
    assert first_hist == second_hist
    for name, arr in first_params.tensors().items():
        assert np.array_equal(arr, second_params.tensors()[name])


def test_early_stopping_returns_best_dev_params():
    items = _toy_items()
    vocab = build_vocab(it.sentence for it in items)
    params = ModelParams.init("nnsc", vocab, d=6, h=6, C=2, seed=4)
    trained, history = train(
        params,
        items,
        TrainConfig(epochs=40, lr=0.5, seed=4, patience=3),
        dev_items=_subset(items, range(8)),
    )
    assert all(entry["dev_accuracy"] is not None for entry in history)
    best = max(entry["dev_accuracy"] for entry in history)
    assert evaluate_items(trained, _subset(items, range(8))) == best


def test_blowup_aborts_with_last_good_params():
    items = _toy_items()
    vocab = build_vocab(it.sentence for it in items)
    params = ModelParams.init("nnsc", vocab, d=4, h=3, C=2, seed=7)
    # an absurd learning rate overflows the logits within an epoch or two
    trained, history = train(
        params, items, TrainConfig(epochs=20, lr=1e12, seed=7, clip_norm=None)
    )
    assert trained.all_finite()
    assert len(history) < 20  # aborted early rather than running to the end


def test_blowup_is_recorded_in_history():
    items = _toy_items()
    vocab = build_vocab(it.sentence for it in items)
    params = ModelParams.init("nnsc", vocab, d=4, h=3, C=2, seed=7)
    _, history = train(
        params, items, TrainConfig(epochs=20, lr=1e12, seed=7, clip_norm=None)
    )
    *completed, last = history
    assert last == {
        "epoch": len(completed), "loss": None, "dev_accuracy": None, "aborted": "numerical"
    }
    assert [entry["epoch"] for entry in completed] == list(range(len(completed)))
    assert all("aborted" not in entry and entry["loss"] is not None for entry in completed)


def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    params = ModelParams.init(
        "instance", _vocab("a", "b"), d=4, h=3, C=2, p=1, m_total=3,
        seed=6, labels=["neg", "pos"],
    )
    path = tmp_path / "model.npz"
    save_model(params, path)
    loaded = load_model(path)
    assert loaded.variant == params.variant
    assert loaded.vocab == params.vocab
    assert loaded.labels == ["neg", "pos"]
    assert (loaded.d, loaded.h, loaded.C, loaded.p, loaded.m_total) == (4, 3, 2, 1, 3)
    for name, arr in params.tensors().items():
        other = loaded.tensors()[name]
        assert arr.dtype == other.dtype
        assert arr.tobytes() == other.tobytes()


def test_checkpoint_vocabulary_shares_its_words_with_rules_and_sentences(tmp_path):
    # words built at run time, so no compiled-in constant is shared by chance
    words = ["".join(pair) for pair in (("fli", "ghts"), ("far", "es"))]
    path = tmp_path / "model.npz"
    save_model(ModelParams.init("nnsc", _vocab(*words), d=4, h=3, C=2, seed=0), path)
    vocab = list(load_model(path).vocab)
    literal = parse_regex("show FLIGHTS").children[1]
    sentence = Sentence.from_text("Fares for flights")
    assert vocab[1] == literal.word == sentence.words[2] == "flights"
    assert vocab[1] is literal.word is sentence.words[2]
    assert vocab[2] is sentence.words[0]


def test_checkpoint_version_field(tmp_path):
    import json
    import zipfile

    params = _nnsc_params()
    path = tmp_path / "model.npz"
    save_model(params, path)
    with zipfile.ZipFile(path) as zf:
        assert "meta.npy" in zf.namelist()
    meta = json.loads(np.load(path, allow_pickle=False)["meta"].item())
    assert meta["version"] == "rulefuse-v1"


def test_unsupported_checkpoint_version_is_a_typed_error(tmp_path):
    import json

    params = _nnsc_params()
    path = tmp_path / "model.npz"
    meta = {"version": "rulefuse-v99", "variant": "nnsc", "d": 4, "h": 3, "C": 3,
            "p": 0, "m_total": 0, "vocab": params.vocab, "labels": None}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **params.tensors())
    with pytest.raises(RulefuseError, match="rulefuse-v99") as info:
        load_model(path)
    assert isinstance(info.value, CheckpointError)
    assert isinstance(info.value, ValueError)  # callers catching ValueError still work


def test_pretrained_embedding_hook(tmp_path):
    params = _nnsc_params()
    path = tmp_path / "vectors.txt"
    path.write_text("a 1 2 3 4\nmissing 9 9 9 9\nb 5 6 7 8\n")
    loaded = load_pretrained_embeddings(params, path)
    assert loaded == 2
    assert params.emb[params.vocab["a"]].tolist() == [1.0, 2.0, 3.0, 4.0]
    bad = tmp_path / "bad.txt"
    bad.write_text("a 1 2\n")
    with pytest.raises(DimensionMismatchError):
        load_pretrained_embeddings(params, bad)


def test_pretrained_embeddings_may_start_with_a_byte_order_mark(tmp_path):
    params = _nnsc_params()
    path = tmp_path / "vectors.txt"
    path.write_bytes("\ufeffa 1 2 3 4\nb 5 6 7 8\n".encode())
    assert load_pretrained_embeddings(params, path) == 2
    assert params.emb[params.vocab["a"]].tolist() == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("line", ["a 0.1 zz", "b 1 2 zz 4", "a 1 2 3 four"])
def test_non_numeric_embedding_value_is_a_malformed_line(tmp_path, line):
    params = _nnsc_params()
    path = tmp_path / "vectors.txt"
    path.write_text(f"a 1 2 3 4\n\n{line}\n")
    with pytest.raises(MalformedLineError, match="line 3") as info:
        load_pretrained_embeddings(params, path)
    assert info.value.line == 3


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "1e999"])
def test_non_finite_embedding_value_is_a_malformed_line(tmp_path, value):
    params = _nnsc_params()
    before = params.theta.copy()
    path = tmp_path / "vectors.txt"
    path.write_text(f"missing nan nan nan nan\n\nb 1 2 {value} 4\n")
    with pytest.raises(MalformedLineError, match="line 3") as info:
        load_pretrained_embeddings(params, path)
    assert info.value.line == 3
    assert params.theta.tobytes() == before.tobytes()


def test_train_refuses_non_finite_initial_weights():
    params = _nnsc_params()
    params.emb[1, 0] = np.nan
    items = PaddedItems([Sentence.from_text("a b")], [0])
    with pytest.raises(NumericalError, match="initial weights"):
        train(params, items, TrainConfig(epochs=1))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_save_model_refuses_non_finite_weights(tmp_path, value):
    params = _nnsc_params()
    params.mlp_b2[1] = value
    path = tmp_path / "model.npz"
    with pytest.raises(NumericalError, match=re.escape(str(path))):
        save_model(params, path)
    assert not path.exists()


@pytest.mark.parametrize("name", ["emb", "fwd_b", "mlp_b2"])
def test_non_finite_checkpoint_tensor_is_a_checkpoint_error(tmp_path, name):
    def poison(t):
        t = t.copy()
        t.reshape(-1)[-1] = np.nan
        return t

    path, _, _ = _resaved(tmp_path, name, poison)
    with pytest.raises(CheckpointError, match=re.escape(str(path))) as info:
        load_model(path)
    assert repr(name) in str(info.value) and "non-finite" in str(info.value)


def test_tensors_are_views_into_one_parameter_vector():
    params = ModelParams.init(
        "instance", _vocab("a", "b"), d=4, h=3, C=2, p=1, m_total=3, seed=6
    )
    tensors = params.tensors()
    assert sum(arr.size for arr in tensors.values()) == params.theta.size
    assert all(np.shares_memory(arr, params.theta) for arr in tensors.values())
    params.mlp_b2 = [0.5, -0.5]  # assignment copies into the view
    assert params.tensors()["mlp_b2"] is tensors["mlp_b2"]
    assert params.theta[-2:].tolist() == [0.5, -0.5]
    before = params.theta.copy()
    with pytest.raises(DimensionMismatchError, match=r"mlp_b2.*\(3,\).*\(2,\)"):
        params.mlp_b2 = np.zeros(3)
    with pytest.raises(DimensionMismatchError):
        params.emb = params.emb.T
    assert params.theta.tobytes() == before.tobytes()
    # the two directions of each LSTM tensor lie back to back: stacked, they are one view
    stacked = params.views(params.theta)
    for name in ("wx", "wh", "b"):
        assert stacked[name][0].tobytes() == getattr(params, "fwd_" + name).tobytes()
        assert stacked[name][1].tobytes() == getattr(params, "bwd_" + name).tobytes()
        assert np.shares_memory(stacked[name], params.theta)
    # so theta runs fwd_wx, bwd_wx, fwd_wh, bwd_wh, fwd_b, bwd_b, with no gaps
    params.theta[:] = np.arange(params.theta.size)
    order = ("fwd_wx", "bwd_wx", "fwd_wh", "bwd_wh", "fwd_b", "bwd_b")
    starts = [int(getattr(params, name).flat[0]) for name in order]
    ends = [start + getattr(params, name).size for start, name in zip(starts, order)]
    assert starts[1:] == ends[:-1]
    assert ends[-1] == params.att_w.flat[0]


def test_init_keeps_its_draw_order():
    vocab = _vocab("a", "b", "c")
    params = ModelParams.init("word", vocab, d=4, h=3, C=5, p=2, m_total=7, seed=8)
    rng = np.random.default_rng(8)
    shapes = {"emb": (4, 4), "fwd_wx": (6, 12), "fwd_wh": (3, 12), "bwd_wx": (6, 12),
              "bwd_wh": (3, 12), "att_w": (6, 6), "mlp_w1": (6, 6), "mlp_w2": (6, 5)}
    for name, shape in shapes.items():
        assert getattr(params, name).tobytes() == rng.uniform(-0.3, 0.3, size=shape).tobytes()
    for name in ("fwd_b", "bwd_b", "mlp_b1", "mlp_b2"):
        assert not getattr(params, name).any()


@pytest.mark.parametrize("variant", ["nnsc", "instance", "word"])
def test_gradients_share_the_parameter_layout(variant):
    params, batch = _mixed_length_case(variant, seed=12)
    _, grads = loss_and_grads(params, batch)
    assert list(grads) == list(params.tensors())
    assert grads.flat.shape == params.theta.shape
    for name, arr in params.tensors().items():
        assert grads[name].shape == arr.shape
        assert np.shares_memory(grads[name], grads.flat)
    assert sum(g.size for g in grads.values()) == grads.flat.size


@pytest.mark.parametrize("rows", [(1, 3, 0, 7), (2, 4, 6)], ids=["mixed", "equal"])
@pytest.mark.parametrize("variant", ["nnsc", "instance", "word"])
def test_padded_rows_give_the_item_lists_loss_and_gradient_bytes(variant, rows):
    # rows 2, 4 and 6 all have 3 words, against 12 for the longest in the
    # set: re-padded to 3, they take the reversing-slice path
    lengths = (1, 12, 3, 7, 3, 12, 3, 9, 4, 1)
    params, items = _mixed_length_case(variant, seed=14, lengths=lengths)
    data = _ItemSet(params, items)
    grads = _Gradients(params)
    # another batch first, so the buffer holds its gradients, `emb` included
    loss_and_grads(params, _Batch(data, np.array([5, 8, 9]), grads))
    batch = _Batch(data, np.array(rows), grads)
    assert len(batch) == len(rows)
    assert [it.sentence for it in batch] == [items.sentences[i] for i in rows]
    loss, got = loss_and_grads(params, batch)
    expected_loss, expected = loss_and_grads(params, _subset(items, rows))
    assert got is grads
    assert loss == expected_loss
    assert got.flat.tobytes() == expected.flat.tobytes()


class _CountingVocab(dict):
    lookups = 0

    def get(self, word, default=None):
        self.lookups += 1
        return super().get(word, default)


def test_train_maps_the_training_words_to_ids_once_per_call():
    items = _toy_items()
    params = ModelParams.init("nnsc", build_vocab(it.sentence for it in items), d=4, h=3, C=2)
    params.vocab = _CountingVocab(params.vocab)
    train(params, items, TrainConfig(epochs=3, batch_size=4, seed=3))
    assert params.vocab.lookups == sum(it.sentence.n for it in items)


def _resaved(tmp_path, name, change):
    """An instance checkpoint whose tensor `name` is changed (None: dropped)."""
    params = ModelParams.init(
        "instance", _vocab("a", "b", "c"), d=4, h=3, C=3, p=2, m_total=5, seed=6
    )
    path = tmp_path / "model.npz"
    save_model(params, path)
    with np.load(path, allow_pickle=False) as data:
        stored = {key: data[key] for key in data.files}
    if change is None:
        del stored[name]
    else:
        stored[name] = change(stored[name])
    with open(path, "wb") as fh:
        np.savez(fh, **stored)
    return path, params.tensors()[name].shape, None if change is None else stored[name].shape


@pytest.mark.parametrize(
    "name, change",
    [
        ("mlp_b2", lambda t: t[:1]),  # loaded silently and broadcast
        ("emb", lambda t: np.vstack([t, t])),  # loaded silently
        ("emb", lambda t: t[:3]),  # IndexError on the first unknown row
        ("mlp_w1", lambda t: np.hstack([t, t])),  # numpy broadcasting error
        ("att_w", None),  # KeyError
    ],
    ids=["mlp_b2-short", "emb-double", "emb-3-rows", "mlp_w1-wide", "att_w-missing"],
)
def test_malformed_checkpoint_tensor_is_a_checkpoint_error(tmp_path, name, change):
    path, want, found = _resaved(tmp_path, name, change)
    with pytest.raises(CheckpointError) as info:
        load_model(path)
    message = str(info.value)
    assert repr(name) in message and str(want) in message
    assert ("missing" if found is None else str(found)) in message


def _write_unreadable(path, case):
    """A file at `path` that is not a readable rulefuse checkpoint."""
    import json

    params = _nnsc_params()
    if case in ("text", "empty"):
        path.write_text("not a checkpoint\n" if case == "text" else "")
        return
    if case == "truncated":
        save_model(params, path)
        path.write_bytes(path.read_bytes()[:200])
        return
    no_variant = {"version": "rulefuse-v1", "d": 4, "h": 3, "C": 3, "p": 0, "m_total": 0,
                  "vocab": params.vocab, "labels": None}
    meta = {"no-meta": {}, "meta-not-json": {"meta": np.array("{not json")},
            "meta-not-object": {"meta": np.array("[1]")},
            "meta-without-variant": {"meta": np.array(json.dumps(no_variant))}}[case]
    with open(path, "wb") as fh:
        np.savez(fh, **meta, **params.tensors())


@pytest.mark.parametrize(
    "case",
    ["text", "no-meta", "meta-not-json", "meta-without-variant", "truncated", "empty",
     "meta-not-object"],
)
def test_unreadable_checkpoint_is_a_checkpoint_error(tmp_path, case):
    # each of these escaped untyped: ValueError, KeyError, JSONDecodeError,
    # KeyError, BadZipFile, EOFError and AttributeError
    path = tmp_path / "model.npz"
    _write_unreadable(path, case)
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_model(path)
    with pytest.raises(FileNotFoundError):
        load_model(tmp_path / "none.npz")


@pytest.mark.parametrize(
    "sizes",
    [dict(d=0), dict(h=0), dict(C=0), dict(p=-1), dict(m_total=-1)],
    ids=lambda sizes: ",".join(f"{k}={v}" for k, v in sizes.items()),
)
def test_impossible_model_sizes_are_config_errors(sizes):
    kwargs = dict(d=4, h=3, C=2, p=1, m_total=3)
    kwargs.update(sizes)
    with pytest.raises(ConfigError, match=next(iter(sizes))):
        ModelParams.init("instance", _vocab("a"), **kwargs)


@pytest.mark.parametrize(
    "setting",
    [
        dict(epochs=0), dict(epochs=-3), dict(batch_size=0), dict(lr=-0.1),
        dict(lr=float("nan")), dict(lr=float("inf")), dict(clip_norm=0.0),
        dict(clip_norm=-1.0), dict(patience=-1),
    ],
    ids=lambda setting: ",".join(f"{k}={v}" for k, v in setting.items()),
)
def test_impossible_training_settings_are_config_errors(setting):
    with pytest.raises(ConfigError, match=next(iter(setting))):
        TrainConfig(**setting)
    assert isinstance(ConfigError("x"), ValueError)


def test_empty_training_set_is_empty_dataset_error():
    params = _nnsc_params(C=2)
    with pytest.raises(EmptyDatasetError, match="empty training set") as info:
        train(params, PaddedItems([], []), TrainConfig(epochs=1))
    assert isinstance(info.value, ValueError)  # callers catching ValueError still work


@pytest.mark.parametrize("label", [-1, 2, 7])
def test_label_out_of_range_is_config_error(label):
    params = _nnsc_params(C=2)
    toy = _toy_items()
    items = PaddedItems(toy.sentences[:3] + [Sentence.from_text("a b")], [*toy.labels[:3], label])
    before = params.theta.copy()
    with pytest.raises(ConfigError, match=f"label {label} outside 0..1"):
        train(params, items, TrainConfig(epochs=1))
    assert params.theta.tobytes() == before.tobytes()


@pytest.mark.parametrize("label", [-1, 3, 7])
def test_scoring_a_label_outside_the_classes_is_config_error(label):
    # evaluate_items counted it as a miss: 0.0 for a lone item
    params = _nnsc_params(C=3)
    bad = PaddedItems([Sentence.from_text("a b"), Sentence.from_text("alpha")], [1, label])
    message = f"label {label} outside 0..2"
    with pytest.raises(ConfigError, match=message):
        evaluate_items(params, _subset(bad, [1]))
    with pytest.raises(ConfigError, match=message):
        evaluate_items(params, bad)
    with pytest.raises(ConfigError, match=message):
        loss_and_grads(params, bad)
    before = params.theta.tobytes()
    with pytest.raises(ConfigError, match=message):
        train(params, _subset(bad, [0]), TrainConfig(epochs=1), dev_items=bad)
    assert params.theta.tobytes() == before


def test_empty_sentence_is_a_typed_error_before_the_first_step():
    # it was a bare ValueError from the batch that held it, mid-epoch; with
    # seed 1 the empty item falls in the last of five batches
    toy = _toy_items()
    items = PaddedItems(toy.sentences[:19] + [Sentence(())], [*toy.labels[:19], 0])
    params = ModelParams.init("nnsc", build_vocab(it.sentence for it in items), d=4, h=3, C=2)
    before = params.theta.tobytes()
    with pytest.raises(EmptySentenceError, match="item 19 has no words") as info:
        train(params, items, TrainConfig(epochs=1, batch_size=4, seed=1))
    assert isinstance(info.value, RulefuseError) and isinstance(info.value, ValueError)
    assert params.theta.tobytes() == before
    with pytest.raises(EmptySentenceError, match="item 19 has no words"):
        train(params, _subset(items, range(19)), TrainConfig(epochs=1, batch_size=4, seed=1), items)
    assert params.theta.tobytes() == before
    with pytest.raises(EmptySentenceError, match="item 1 has no words"):
        loss_and_grads(params, _subset(items, [18, 19]))
    with pytest.raises(EmptySentenceError, match="item 19 has no words"):
        evaluate_items(params, items)


def test_boundary_training_settings_stay_legal():
    TrainConfig(epochs=1, batch_size=1, lr=0.0, clip_norm=None, patience=0)
    TrainConfig(clip_norm=1e-9, patience=None)


def test_negative_seed_is_a_config_error():
    # both ended in numpy's "expected non-negative integer" ValueError
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -2"):
        _nnsc_params(seed=-2)


def test_params_keep_no_unused_settings():
    assert "scale" not in inspect.signature(ModelParams.init).parameters
    assert not hasattr(ModelParams, "copy")
