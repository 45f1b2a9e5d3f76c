import csv
import io

import numpy as np
import pytest

from rulefuse.data import Dataset, SyntheticSpec, generate_synthetic
from rulefuse.errors import ConfigError
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
    rule_only_classify,
    run_experiment,
)
from rulefuse.matching import Sentence
from rulefuse.model import ModelParams, TrainConfig, build_vocab
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
    index = {"flight": 0, "airline": 1}
    got = rule_only_classify(ruleset, mdfas, Sentence.from_text("which airline"), index)
    assert got == 1


def test_rule_only_first_match_wins():
    lines = ["a\tx (.)*", "b\tx y"]
    ruleset = parse_rule_lines(lines, known_labels={"a", "b"})
    mdfas = compile_rules(ruleset)
    # both rules accept "x y ..." but rule 1 comes first in file order
    got = rule_only_classify(ruleset, mdfas, Sentence.from_text("x y z"), {"a": 0, "b": 1})
    assert got == 0


def test_rule_only_no_match_is_none_and_counts_wrong():
    ruleset, mdfas = _ruleset()
    index = {"flight": 0, "airline": 1}
    assert rule_only_classify(ruleset, mdfas, Sentence.from_text("hello"), index) is None
    ds = Dataset([(Sentence.from_text("hello"), 0)], ["flight", "airline"])
    assert rule_baseline_accuracy(ruleset, mdfas, ds) == 0.0


def test_feature_cache_reuses_entries():
    ruleset, mdfas = _ruleset()
    cache = FeatureCache(ruleset, mdfas)
    s = Sentence.from_text("show me flights")
    first = cache.features(s)
    assert cache.features(Sentence.from_text("show me flights")) is first
    assert cache.m_total == sum(m.state_count for m in mdfas)


def test_build_items_feature_coherence():
    ruleset, mdfas = _ruleset()
    cache = FeatureCache(ruleset, mdfas)
    ds = Dataset([(Sentence.from_text("show me flights"), 0)], ["flight", "airline"])
    nnsc = build_items(ds, "nnsc", cache)[0]
    inst = build_items(ds, "instance", cache)[0]
    word = build_items(ds, "word", cache)[0]
    assert nnsc.instance_feats is None and nnsc.word_tags is None
    assert inst.instance_feats is not None and inst.word_tags is None
    assert word.instance_feats is None and word.word_tags is not None


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
    feats = cache.features(sentence)[0]
    assert predict(params, sentence, instance_feats=feats) == 3


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
    with pytest.raises(RuntimeError):
        run_experiment(ruleset, wrong, train, test, config)


@pytest.mark.parametrize("variant", ["nnsc", "instance", "word"])
def test_init_model_equals_model_params_init(variant):
    ruleset, mdfas, train, _ = _tiny_experiment_setup()
    cache = FeatureCache(ruleset, mdfas)
    params = init_model(variant, cache, train, d=4, h=3, seed=7)
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
    params = init_model("instance", cache, train, d=4, h=4, seed=0)
    before = params.theta.copy()
    history, accuracy = fit_run(params, cache, train, TrainConfig(epochs=2, seed=0),
                                dev_set=test, test_set=test)
    assert not np.array_equal(params.theta, before)
    assert [entry["epoch"] for entry in history] == [0, 1]
    assert history[-1]["dev_accuracy"] == accuracy
    assert accuracy == evaluate_accuracy(params, ruleset, mdfas, test)
    assert fit_run(params, cache, train, TrainConfig(epochs=1))[1] is None
