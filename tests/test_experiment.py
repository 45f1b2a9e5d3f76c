import csv
import io
import re

import numpy as np
import pytest

from rulefuse.data import Dataset, SyntheticSpec, generate_synthetic
from rulefuse.encoding import RuleMatcher
from rulefuse.errors import ConfigError, RulesMismatchError, UnknownLabelError
from rulefuse.experiment import (
    CSV_HEADER,
    ExperimentConfig,
    FeatureCache,
    build_items,
    compile_rules,
    evaluate_accuracy,
    fit_run,
    init_model,
    rows_to_csv,
    rule_baseline_accuracy,
    rule_binding,
    run_experiment,
)
from rulefuse.matching import Sentence
from rulefuse.model import ModelParams, TrainConfig, _ItemSet, build_vocab
from rulefuse.rules import RuleSet, parse_rule_lines


def _ruleset():
    lines = [
        "flight\tshow (.)* flights",
        "airline\twhich airline",
        "flight\tlist flights",
    ]
    ruleset = parse_rule_lines(lines, known_labels={"flight", "airline"})
    return ruleset, compile_rules(ruleset)


def test_rule_only_single_match():
    ruleset, mdfas = _ruleset()
    ds = Dataset([(Sentence.from_text("which airline"), 1)], ["flight", "airline"])
    assert rule_baseline_accuracy(ruleset, mdfas, ds) == 1.0


def test_rule_only_first_match_wins():
    lines = ["a\tx (.)*", "b\tx y"]
    ruleset = parse_rule_lines(lines, known_labels={"a", "b"})
    mdfas = compile_rules(ruleset)
    # both rules accept "x y ..." but rule 1 comes first in file order
    first = Dataset([(Sentence.from_text("x y z"), 0)], ["a", "b"])
    second = Dataset([(Sentence.from_text("x y z"), 1)], ["a", "b"])
    assert rule_baseline_accuracy(ruleset, mdfas, first) == 1.0
    assert rule_baseline_accuracy(ruleset, mdfas, second) == 0.0


def test_rule_only_no_match_is_none_and_counts_wrong():
    ruleset, mdfas = _ruleset()
    for label in (0, 1):  # no rule accepts "hello", so neither gold label is hit
        ds = Dataset([(Sentence.from_text("hello"), label)], ["flight", "airline"])
        assert rule_baseline_accuracy(ruleset, mdfas, ds) == 0.0


def test_rule_only_without_rules_is_a_config_error():
    # it scored 0.0, as if every sentence had been classified wrong
    ds = Dataset([(Sentence.from_text("which airline"), 1)], ["flight", "airline"])
    with pytest.raises(ConfigError, match="needs at least one rule"):
        rule_baseline_accuracy(RuleSet(()), [], ds)


def test_rule_only_with_a_label_the_dataset_lacks_names_it():
    # it raised a bare KeyError: 'zzz'
    ruleset = parse_rule_lines(["flight\tlist flights", "zzz\talpha"])
    ds = Dataset([(Sentence.from_text("list flights"), 0)], ["flight", "airline"])
    with pytest.raises(UnknownLabelError, match="unknown label 'zzz'"):
        rule_baseline_accuracy(ruleset, compile_rules(ruleset), ds)


def test_build_items_encodes_afresh_on_every_call():
    ruleset, mdfas = _ruleset()
    cache = FeatureCache(ruleset, mdfas)
    ds = Dataset([(Sentence.from_text("show me flights"), 0)], ["flight", "airline"])
    for variant in ("instance", "word"):
        first, second = (build_items(ds, variant, cache).feats for _ in range(2))
        assert first is not second and not np.shares_memory(first, second)
        assert first.tobytes() == second.tobytes()
    assert cache.m_total == sum(m.state_count for m in mdfas)


def test_build_items_reads_a_changed_dataset_as_changed():
    # a feature memo keyed on the dataset returned the first call's features
    ruleset, mdfas = _ruleset()
    cache = FeatureCache(ruleset, mdfas)
    ds = Dataset([(Sentence.from_text("show me flights"), 0)], ["flight", "airline"])
    for variant in ("instance", "word"):
        build_items(ds, variant, cache)
    ds.samples[0] = (Sentence.from_text("which airline"), 1)
    for variant in ("instance", "word"):
        got = build_items(ds, variant, cache)
        want = build_items(ds, variant, FeatureCache(ruleset, mdfas))
        assert got.labels.tolist() == [1]
        assert got.feats.shape == want.feats.shape
        assert got.feats.tobytes() == want.feats.tobytes()


def test_build_items_feature_coherence():
    ruleset, mdfas = _ruleset()
    cache = FeatureCache(ruleset, mdfas)
    ds = Dataset([(Sentence.from_text("show me flights"), 0)], ["flight", "airline"])
    sentences = [sentence for sentence, _ in ds.samples]
    nnsc = build_items(ds, "nnsc", cache)
    inst = build_items(ds, "instance", cache)
    word = build_items(ds, "word", cache)
    assert nnsc.feats is None and nnsc[0].feats is None
    assert inst.feats.tobytes() == cache.matcher.state_indicators(sentences).tobytes()
    assert inst.feats.shape == (1, cache.m_total) and inst[0].feats.shape == (cache.m_total,)
    assert word.feats.tobytes() == cache.matcher.word_tags(sentences).tobytes()
    assert word.feats.shape == (1, 3, ruleset.p) and word[0].feats.shape == (3, ruleset.p)
    for items in (nnsc, inst, word):
        assert len(items) == 1 and items.labels.tolist() == [0]
        assert items[0].sentence is ds.samples[0][0] and items[0].label == 0
    assert np.shares_memory(inst[0].feats, inst.feats)
    assert np.shares_memory(word[0].feats, word.feats)


def _coverage_dataset():
    """Mixed lengths with a run of equal ones, and a duplicated sentence."""
    texts = [
        "show me flights", "which airline", "list flights", "show cheap late flights now",
        "a b c", "d e f", "g h i", "which airline", "flights", "list all the flights",
    ]
    samples = [(Sentence.from_text(text), k % 2) for k, text in enumerate(texts)]
    return Dataset(samples, ["flight", "airline"])


@pytest.mark.parametrize("variant", ["nnsc", "instance", "word"])
@pytest.mark.parametrize("rules", ["rules", "p0"])
@pytest.mark.parametrize("size", ["mixed", "empty"])
def test_build_items_equals_the_stacked_per_sentence_features(variant, rules, size):
    ruleset, mdfas = _ruleset() if rules == "rules" else (RuleSet(()), [])
    ds = _coverage_dataset()
    if size == "empty":
        ds = Dataset([], ds.label_names)
    cache = FeatureCache(ruleset, mdfas)
    params = ModelParams.init(
        variant, build_vocab(s for s, _ in ds.samples), d=2, h=2, C=ds.C, p=ruleset.p,
        m_total=cache.m_total,
    )
    sentences = [sentence for sentence, _ in ds.samples]
    labels = [label for _, label in ds.samples]
    # each sentence's own rows from the one-sentence encoder, stacked here
    encoded = [cache.features(s) for s in sentences]
    rows = [None] * len(ds)
    stacked = None
    if variant == "instance":
        rows = [indicator for indicator, _ in encoded]
        stacked = np.array(rows).reshape(len(ds), cache.m_total)
    elif variant == "word":
        rows = [
            np.array([seq.tags for seq in seqs]).T.reshape(s.n, ruleset.p)
            for s, (_, seqs) in zip(sentences, encoded)
        ]
        stacked = np.zeros((len(ds), max((s.n for s in sentences), default=0), ruleset.p))
        for b, tags in enumerate(rows):
            stacked[b, : len(tags)] = tags
    built = build_items(ds, variant, cache)
    assert _ItemSet(params, built).items is built
    assert built.sentences == sentences
    assert built.labels.tolist() == labels
    assert built.lengths.tolist() == [s.n for s in sentences]
    if variant == "nnsc":
        assert built.feats is None
    else:
        assert built.feats.dtype == stacked.dtype == np.float64
        assert built.feats.shape == stacked.shape
        assert built.feats.tobytes() == stacked.tobytes()
    assert len(built) == len(ds)
    for got, sentence, label, want in zip(built, sentences, labels, rows):
        assert got.sentence is sentence and got.label == label
        if variant == "nnsc":
            assert got.feats is None
        else:
            assert got.feats.shape == want.shape
            assert got.feats.tobytes() == want.tobytes()


def _count_matcher_passes(monkeypatch):
    """The sentence lists RuleMatcher.run_batch is given, and the number of
    RuleMatchers built, from here on."""
    passes, built = [], []
    run_batch, init = RuleMatcher.run_batch, RuleMatcher.__init__

    def counted_run_batch(self, sentences, *args, **kwargs):
        passes.append(list(sentences))
        return run_batch(self, sentences, *args, **kwargs)

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(RuleMatcher, "run_batch", counted_run_batch)
    monkeypatch.setattr(RuleMatcher, "__init__", counted_init)
    return passes, built


@pytest.mark.parametrize("variant", ["instance", "word"])
def test_one_matcher_for_the_grid_and_one_pass_per_build_items_call(monkeypatch, variant):
    ruleset, mdfas, train, test = _tiny_experiment_setup()
    passes, built = _count_matcher_passes(monkeypatch)
    config = ExperimentConfig(
        variants=(variant,), q_values=(2,), sample_seeds=(0, 1), train_seeds=(0, 1),
        epochs=1, d=4, h=4,
    )
    run_experiment(ruleset, mdfas, train, test, config)
    test_sentences = [sentence for sentence, _ in test.samples]
    # each of the 4 runs encodes its training subset and the test set once
    assert sum(sentences == test_sentences for sentences in passes) == 4
    assert len(passes) == 2 * 4 and len(built) == 1


def test_an_nnsc_run_and_eval_encode_nothing(monkeypatch, tmp_path):
    ruleset, mdfas, train, test = _tiny_experiment_setup()
    passes, _ = _count_matcher_passes(monkeypatch)
    cache = FeatureCache(ruleset, mdfas)
    params = init_model("nnsc", cache, train, TrainConfig(d=4, h=4))
    fit_run(params, cache, train, TrainConfig(epochs=1, d=4, h=4), dev_set=test, test_set=test)
    evaluate_accuracy(params, ruleset, mdfas, test)
    run_experiment(ruleset, mdfas, train, test, ExperimentConfig(
        variants=("nnsc",), q_values=(2,), sample_seeds=(0,), train_seeds=(0, 1), epochs=1,
        d=4, h=4,
    ))
    assert passes == []


def test_constant_predictor_scores_one_over_C():
    ruleset, mdfas = _ruleset()
    samples = [
        (Sentence.from_text("alpha"), 0),
        (Sentence.from_text("beta"), 1),
        (Sentence.from_text("gamma"), 0),
        (Sentence.from_text("delta"), 1),
    ]
    ds = Dataset(samples, ["flight", "airline"])
    vocab = build_vocab(s for s, _ in ds.samples)
    params = ModelParams.init("nnsc", vocab, d=4, h=3, C=2, seed=0)
    params.mlp_w2[:] = 0.0
    params.mlp_b2[:] = [1.0, 0.0]  # constant class-0 predictor
    assert evaluate_accuracy(params, ruleset, mdfas, ds) == 0.5


def test_untrained_many_class_model_is_near_chance():
    # random-init predictions on 18 balanced classes stay near 1/18
    samples = []
    names = [f"c{i}" for i in range(18)]
    rng = np.random.default_rng(0)
    words = [f"tok{j}" for j in range(40)]
    for c in range(18):
        for j in range(6):
            text = " ".join(rng.choice(words, size=5))
            samples.append((Sentence.from_text(text), c))
    ds = Dataset(samples, names)
    ruleset = parse_rule_lines([])
    vocab = build_vocab(s for s, _ in ds.samples)
    accs = []
    for seed in range(5):
        params = ModelParams.init("nnsc", vocab, d=8, h=8, C=18, seed=seed)
        accs.append(evaluate_accuracy(params, ruleset, [], ds))
    assert float(np.mean(accs)) < 0.2


def _tiny_experiment_setup():
    spec = SyntheticSpec(classes=6, train_size=60, test_size=30, noise=0.0, seed=3)
    train, test, rule_lines = generate_synthetic(spec)
    ruleset = parse_rule_lines(rule_lines, known_labels=set(train.label_names))
    return ruleset, compile_rules(ruleset), train, test


def test_run_experiment_row_shape(tmp_path):
    ruleset, mdfas, train, test = _tiny_experiment_setup()
    config = ExperimentConfig(
        variants=("nnsc", "instance"),
        q_values=(1, 2),
        sample_seeds=(0, 1),
        train_seeds=(0,),
        epochs=1,
        d=4,
        h=4,
    )
    out = tmp_path / "results.csv"
    rows = run_experiment(ruleset, mdfas, train, test, config, out)
    data_rows = [r for r in rows if r["sample_seed"] != "all"]
    agg_rows = [r for r in rows if r["sample_seed"] == "all"]
    assert len(data_rows) == 2 * 2 * 2 * 1
    assert len(agg_rows) == 2 * 2
    text = out.read_text()
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    assert tuple(header) == CSV_HEADER
    parsed = list(reader)
    assert len(parsed) == len(rows)
    for row in parsed:
        assert len(row) == 6
    agg = [r for r in parsed if r[2] == "all"]
    assert all("±" in r[4] for r in agg)


def test_run_experiment_determinism_modulo_wall(tmp_path):
    ruleset, mdfas, train, test = _tiny_experiment_setup()
    config = ExperimentConfig(
        variants=("word",),
        q_values=(2,),
        sample_seeds=(0, 1),
        train_seeds=(0, 1),
        epochs=2,
        d=4,
        h=4,
    )
    rows_a = run_experiment(ruleset, mdfas, train, test, config)
    rows_b = run_experiment(ruleset, mdfas, train, test, config)

    def strip_wall(csv_text):
        out = []
        for line in csv_text.splitlines():
            out.append(",".join(line.split(",")[:-1]))
        return "\n".join(out)

    assert strip_wall(rows_to_csv(rows_a)) == strip_wall(rows_to_csv(rows_b))


def test_run_experiment_full_grid_row_arithmetic(tmp_path):
    # 3 variants x 3 q values x (3 sampling x 5 training seeds)
    ruleset, mdfas, train, test = _tiny_experiment_setup()
    config = ExperimentConfig(
        variants=("nnsc", "instance", "word"),
        q_values=(1, 2, 3),
        sample_seeds=(0, 1, 2),
        train_seeds=(0, 1, 2, 3, 4),
        epochs=1,
        d=4,
        h=4,
    )
    rows = run_experiment(ruleset, mdfas, train, test, config)
    data_rows = [r for r in rows if r["sample_seed"] != "all"]
    agg_rows = [r for r in rows if r["sample_seed"] == "all"]
    assert len(data_rows) == 3 * 3 * 15 == 135
    assert len(agg_rows) == 9


def test_trained_instance_model_recovers_rule_identity():
    # on a noise-free corpus the label is the matching rule, so a trained
    # feature model must classify a fresh matching sentence as that class
    spec = SyntheticSpec(classes=6, train_size=240, test_size=60, noise=0.0, seed=21)
    train_set, test_set, rule_lines = generate_synthetic(spec)
    ruleset = parse_rule_lines(rule_lines, known_labels=set(train_set.label_names))
    mdfas = compile_rules(ruleset)
    cache = FeatureCache(ruleset, mdfas)
    items = build_items(train_set, "instance", cache)
    vocab = build_vocab(s for s, _ in train_set.samples)
    from rulefuse.model import TrainConfig, predict, train as train_model

    params = ModelParams.init(
        "instance", vocab, d=8, h=8, C=6, p=ruleset.p, m_total=cache.m_total, seed=0
    )
    params, _ = train_model(params, items, TrainConfig(epochs=25, lr=0.3, seed=0))
    # class 3's keywords with unseen filler words around them
    first, second = train_set.label_names[3].split("_")
    sentence = Sentence.from_text(f"brandnew {first} unseen fillers {second} tail")
    indicator, _ = cache.features(sentence)
    assert predict(params, sentence, indicator) == 3


def test_run_experiment_flushes_error_row(tmp_path):
    ruleset, mdfas, train, test = _tiny_experiment_setup()
    broken = Dataset(
        train.samples + [(Sentence(()), 0)], list(train.label_names)
    )  # empty sentence blows up inside the training loop
    config = ExperimentConfig(
        variants=("nnsc",), q_values=(20,), sample_seeds=(0,), train_seeds=(0,),
        epochs=1, d=4, h=4,
    )
    out = tmp_path / "partial.csv"
    with pytest.raises(ValueError):
        run_experiment(ruleset, mdfas, broken, test, config, out)
    text = out.read_text()
    assert "error" in text


@pytest.mark.parametrize("axis", ["variants", "q_values", "sample_seeds", "train_seeds"])
def test_run_experiment_empty_axis_is_config_error_before_any_csv(tmp_path, axis):
    # an empty variant, q or training-seed axis wrote a header-only CSV
    ruleset, mdfas, train, test = _tiny_experiment_setup()
    config = ExperimentConfig(
        variants=("nnsc",), q_values=(20,), sample_seeds=(0,), train_seeds=(0,),
        epochs=1, d=4, h=4,
    )
    setattr(config, axis, ())
    out = tmp_path / "results.csv"
    with pytest.raises(ConfigError, match=axis):
        run_experiment(ruleset, mdfas, train, test, config, out)
    assert not out.exists()


@pytest.mark.parametrize("axis, values", [
    ("variants", ("nnsc", "word", "nnsc")), ("q_values", (20, 20)),
    ("sample_seeds", (0, 0)), ("train_seeds", (1, 2, 1)),
])
def test_run_experiment_repeated_axis_value_is_config_error_before_any_csv(tmp_path, axis, values):
    # a repeated value reran its cells and folded the copies into the
    # aggregate: ("nnsc", "nnsc") x seeds (0, 0) gave 4 rows and ±0.000000
    ruleset, mdfas, train, test = _tiny_experiment_setup()
    config = ExperimentConfig(
        variants=("nnsc",), q_values=(20,), sample_seeds=(0,), train_seeds=(0,),
        epochs=1, d=4, h=4,
    )
    setattr(config, axis, values)
    out = tmp_path / "results.csv"
    with pytest.raises(ConfigError, match=f"{axis} axis repeats {values[0]!r}"):
        run_experiment(ruleset, mdfas, train, test, config, out)
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("q_values", (20, 0), "q must be >= 1, got 0"),
    ("sample_seeds", (0, -1), "sampling seeds must be >= 0, got -1"),
    ("train_seeds", (0, -3), "seed must be >= 0, got -3"),
    ("augment_top3", -2, "augment_top3 must be None or >= 0, got -2"),
    ("epochs", 0, "epochs must be >= 1, got 0"),
    ("lr", -1.0, "lr must be finite and >= 0, got -1.0"),
    ("batch_size", 0, "batch_size must be >= 1, got 0"),
    ("clip_norm", 0.0, "clip_norm must be None or > 0, got 0.0"),
    ("d", 0, "d must be >= 1, got 0"),
    ("h", 0, "h must be >= 1, got 0"),
])
def test_run_experiment_bad_grid_value_is_config_error_before_any_csv(
    tmp_path, field, value, message
):
    # each was raised inside the grid, after the CSV had an error row to get
    ruleset, mdfas, train, test = _tiny_experiment_setup()
    config = ExperimentConfig(
        variants=("nnsc",), q_values=(20,), sample_seeds=(0,), train_seeds=(0,),
        epochs=1, d=4, h=4,
    )
    setattr(config, field, value)
    out = tmp_path / "results.csv"
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_experiment(ruleset, mdfas, train, test, config, out)
    assert not out.exists()


def test_run_experiment_rejects_unknown_variant():
    ruleset, mdfas, train, test = _tiny_experiment_setup()
    config = ExperimentConfig(variants=("bogus",))
    with pytest.raises(ValueError):
        run_experiment(ruleset, mdfas, train, test, config)


def test_run_experiment_unknown_variant_is_config_error():
    ruleset, mdfas, train, test = _tiny_experiment_setup()
    with pytest.raises(ConfigError, match="unknown variant 'bogus'"):
        run_experiment(ruleset, mdfas, train, test, ExperimentConfig(variants=("bogus",)))


@pytest.mark.parametrize("variant", ["instance", "word"])
def test_run_experiment_rule_feature_variant_without_rules(tmp_path, variant):
    _, _, train, test = _tiny_experiment_setup()
    config = ExperimentConfig(variants=("nnsc", variant), q_values=(1,), epochs=1)
    out = tmp_path / "rows.csv"
    with pytest.raises(ConfigError, match="needs at least one rule"):
        run_experiment(RuleSet(()), [], train, test, config, out)
    assert not out.exists()


def test_run_experiment_detects_stale_cache():
    ruleset, mdfas, train, test = _tiny_experiment_setup()
    other_ruleset = parse_rule_lines(
        ["x\tnever matching rule"], known_labels={"x"}
    )
    wrong = compile_rules(other_ruleset) + mdfas[1:]
    config = ExperimentConfig(variants=("nnsc",), q_values=(1,), epochs=1)
    with pytest.raises(RulesMismatchError, match=r"^rule 1 \(alpha_beta: "):
        run_experiment(ruleset, wrong, train, test, config)


def test_run_experiment_checks_every_automaton(tmp_path):
    # only rule 1 was checked: rules 2 and 3 swapped trained silently
    ruleset, mdfas, train, test = _tiny_experiment_setup()
    swapped = [mdfas[0], mdfas[2], mdfas[1], *mdfas[3:]]
    config = ExperimentConfig(variants=("instance",), q_values=(1,), epochs=1)
    out = tmp_path / "rows.csv"
    with pytest.raises(RulesMismatchError, match=r"^rule 2 \(alpha_gamma: .* given for it$"):
        run_experiment(ruleset, swapped, train, test, config, out)
    assert not out.exists()


@pytest.mark.parametrize("variant", ["nnsc", "instance", "word"])
def test_init_model_equals_model_params_init(variant):
    ruleset, mdfas, train, _ = _tiny_experiment_setup()
    cache = FeatureCache(ruleset, mdfas)
    params = init_model(variant, cache, train, TrainConfig(d=4, h=3, seed=7))
    expected = ModelParams.init(
        variant, build_vocab(s for s, _ in train.samples), d=4, h=3, C=train.C,
        p=ruleset.p, m_total=cache.m_total, seed=7,
    )
    assert params.vocab == expected.vocab
    assert params.theta.tobytes() == expected.theta.tobytes()
    assert params.labels == list(train.label_names)
    assert params.rules == rule_binding(ruleset, mdfas)


def test_fit_run_trains_in_place_and_scores_the_test_set():
    ruleset, mdfas, train, test = _tiny_experiment_setup()
    # shifted gold labels, so scoring the training set instead shows
    test = Dataset([(s, (label + 1) % test.C) for s, label in test.samples], test.label_names)
    cache = FeatureCache(ruleset, mdfas)
    params = init_model("instance", cache, train, TrainConfig(d=4, h=4, seed=0))
    before = params.theta.copy()
    history, accuracy = fit_run(params, cache, train, TrainConfig(epochs=2, seed=0),
                                dev_set=test, test_set=test)
    assert not np.array_equal(params.theta, before)
    assert [entry["epoch"] for entry in history] == [0, 1]
    assert history[-1]["dev_accuracy"] == accuracy
    assert accuracy == evaluate_accuracy(params, ruleset, mdfas, test)
    assert fit_run(params, cache, train, TrainConfig(epochs=1))[1] is None
