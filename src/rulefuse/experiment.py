"""Experiment pipeline: rule baseline, model evaluation, seeded grid runs.

`run_experiment` trains every (variant, q, sampling seed, training seed)
combination and appends the rows to a CSV with header
``variant,q,sample_seed,train_seed,accuracy,wall_secs``.  After the data
rows, one aggregate row per (variant, q) carries the mean accuracy and the
95% confidence half-width (normal approximation) in the accuracy column as
``mean±halfwidth``, with ``all`` in both seed columns.  Everything except
the wall_secs column is reproducible bit-for-bit for fixed seeds.  A
run's wall_secs covers its `init_model` + `fit_run` call: vocabulary and
weights, train and test items encoded through the shared feature cache's
matcher, training, and scoring.

`build_items` hands the model each dataset as one `PaddedItems`: labels,
lengths and the one feature array the variant reads, straight from one
`RuleMatcher` pass that computes only that kind.
"""

from __future__ import annotations

import csv
import io
import os
import time
from dataclasses import dataclass

import numpy as np

from .automata import Mdfa, compile as compile_ast
from .data import Dataset, FewShotConfig, sample_fewshot
from .encoding import (
    RuleMatcher,
    encode_all,  # noqa: F401 - bench/tracer.py patches rulefuse.experiment.encode_all
)
from .errors import ConfigError, RulesMismatchError, UnknownLabelError, require
from .matching import Sentence
from .model import (
    VARIANTS,
    ModelParams,
    PaddedItems,
    TrainConfig,
    build_vocab,
    evaluate_items,
    predict,  # noqa: F401 - bench/tracer.py patches rulefuse.experiment.predict
    train,
)
from .rules import RuleSet, unparse

__all__ = [
    "ExperimentConfig",
    "FeatureCache",
    "compile_rules",
    "rule_binding",
    "check_rule_binding",
    "rule_baseline_accuracy",
    "build_items",
    "evaluate_accuracy",
    "init_model",
    "fit_run",
    "check_variant",
    "run_experiment",
    "CSV_HEADER",
]

CSV_HEADER = ("variant", "q", "sample_seed", "train_seed", "accuracy", "wall_secs")


def compile_rules(ruleset: RuleSet) -> list[Mdfa]:
    """Compile every rule's AST; order matches the rule order."""
    return [compile_ast(rule.ast) for rule in ruleset.rules]


def rule_baseline_accuracy(ruleset: RuleSet, mdfas: list[Mdfa], dataset: Dataset) -> float:
    """Accuracy of the first-match rule classifier; no-match counts as wrong.

    Raises ConfigError for an empty rule set, and UnknownLabelError for a
    rule label that is not one of the dataset's labels.
    """
    require(bool(ruleset.rules), "the rule-only baseline needs at least one rule")
    index = dataset.label_index()
    for rule in ruleset.rules:
        if rule.label not in index:
            raise UnknownLabelError(rule.label)
    rule_labels = np.array([index[rule.label] for rule in ruleset.rules] + [-1])
    _, _, accepted = RuleMatcher(ruleset, mdfas).run_batch(
        [sentence for sentence, _ in dataset.samples]
    )
    # the first accepting rule, or column p, whose label is the -1 sentinel
    first = np.column_stack([accepted, np.ones(len(accepted), dtype=bool)]).argmax(axis=1)
    gold = np.array([label for _, label in dataset.samples])
    return int((rule_labels[first] == gold).sum()) / len(dataset.samples)


def rule_binding(ruleset: RuleSet, mdfas: list[Mdfa]) -> list[dict]:
    """What a checkpoint records of the rules it was trained with, in order."""
    return [
        {"fingerprint": mdfa.fingerprint(), "pattern": unparse(rule.ast), "label": rule.label}
        for rule, mdfa in zip(ruleset.rules, mdfas)
    ]


def check_rule_binding(params: ModelParams, ruleset: RuleSet, mdfas: list[Mdfa]) -> None:
    """Raise RulesMismatchError unless the rules are the ones `params` was
    trained with: same count, and per position the same automaton
    fingerprint and label.

    Only the `instance` and `word` variants read rule features, and
    checkpoints without a binding (`rulefuse-v1`) have nothing to check.
    """
    if params.rules is None or params.variant == "nnsc":
        return
    given, stored = rule_binding(ruleset, mdfas), params.rules

    def describe(entries: list[dict], k: int) -> str:
        if k >= len(entries):
            return "(missing)"
        return f"({entries[k]['label']}: {entries[k]['pattern']})"

    for k in range(max(len(given), len(stored))):
        if k >= min(len(given), len(stored)) or (
            given[k]["fingerprint"], given[k]["label"]
        ) != (stored[k]["fingerprint"], stored[k]["label"]):
            raise RulesMismatchError(
                f"rule {k + 1} {describe(given, k)} differs from the checkpoint's "
                f"rule {k + 1} {describe(stored, k)}"
            )


class FeatureCache:
    """The rules, their automata and one matcher over them, shared across runs.

    `build_items` encodes each dataset it is given through `matcher`, in
    one batched pass per call; the cache keeps no features.  `features`
    gives one sentence's `(m_total,)` indicator and per-rule tags (see
    `RuleMatcher.encode`).  The rules and automata stay readable as
    `ruleset` and `mdfas`, so a model built on the cache can record them.
    """

    def __init__(self, ruleset: RuleSet, mdfas: list[Mdfa]):
        self.ruleset = ruleset
        self.mdfas = mdfas
        self.matcher = RuleMatcher(ruleset, mdfas)
        self.m_total = self.matcher.m_total

    # Kept for the benchmark's `rules_atis` op, which calls it per sentence: a
    # one-row `encode_batch` is about 5 times slower.  It goes once that op is batched.
    def features(self, sentence: Sentence):
        return self.matcher.encode(sentence)


def build_items(dataset: Dataset, variant: str, cache: FeatureCache | None) -> PaddedItems:
    """The dataset as one padded item set, carrying only the feature array
    the variant reads, from one pass of the cache's matcher: the `instance`
    state indicators `(N, m_total)` or the `word` tags `(N, T, p)` (see
    `PaddedItems`); none for `nnsc`, which needs no cache."""
    sentences = [sentence for sentence, _ in dataset.samples]
    labels = [label for _, label in dataset.samples]
    if variant not in ("instance", "word"):
        return PaddedItems(sentences, labels)
    matcher = cache.matcher
    encode = matcher.state_indicators if variant == "instance" else matcher.word_tags
    return PaddedItems(sentences, labels, encode(sentences))


def evaluate_accuracy(
    params: ModelParams, ruleset: RuleSet, mdfas: list[Mdfa], dataset: Dataset
) -> float:
    """Fraction of dataset samples the model classifies correctly.

    Raises RulesMismatchError when the rules differ from those the
    checkpoint was trained with (see check_rule_binding).
    """
    check_rule_binding(params, ruleset, mdfas)
    cache = FeatureCache(ruleset, mdfas)
    return evaluate_items(params, build_items(dataset, params.variant, cache))


@dataclass
class ExperimentConfig:
    """The grid's axes, and the training settings its runs share, by default `TrainConfig`'s."""

    variants: tuple[str, ...] = ("nnsc", "instance", "word")
    q_values: tuple[int, ...] = (5,)
    sample_seeds: tuple[int, ...] = (0, 1, 2)
    train_seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    augment_top3: int | None = None
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    lr: float = TrainConfig.lr
    clip_norm: float | None = TrainConfig.clip_norm
    d: int = TrainConfig.d
    h: int = TrainConfig.h


def init_model(
    variant: str, cache: FeatureCache, train_set: Dataset, config: TrainConfig
) -> ModelParams:
    """Initial weights of widths `config.d`, `config.h` drawn with `config.seed`,
    with `train_set`'s vocabulary and label names and the cache's rule binding."""
    return ModelParams.init(
        variant,
        build_vocab(sentence for sentence, _ in train_set.samples),
        d=config.d,
        h=config.h,
        C=train_set.C,
        p=cache.ruleset.p,
        m_total=cache.m_total,
        seed=config.seed,
        labels=train_set.label_names,
        rules=rule_binding(cache.ruleset, cache.mdfas),
    )


def fit_run(
    params: ModelParams,
    cache: FeatureCache,
    train_set: Dataset,
    config: TrainConfig,
    dev_set: Dataset | None = None,
    test_set: Dataset | None = None,
) -> tuple[list[dict], float | None]:
    """Train `params` in place, with items built from `cache`; returns the
    history (see `train`) and the test accuracy, or None without a test set."""
    items = build_items(train_set, params.variant, cache)
    dev_items = None if dev_set is None else build_items(dev_set, params.variant, cache)
    # config stays the third positional argument: bench/tracer.py reads args[2]
    params, history = train(params, items, config, dev_items)
    if test_set is None:
        return history, None
    return history, evaluate_items(params, build_items(test_set, params.variant, cache))


def _aggregate(rows: list[dict]) -> list[dict]:
    grouped: dict[tuple[str, int], list[dict]] = {}
    for row in rows:
        grouped.setdefault((row["variant"], row["q"]), []).append(row)
    aggregates = []
    for key, group in grouped.items():
        accs = np.array([row["accuracy"] for row in group])
        mean = float(accs.mean())
        if len(accs) > 1:
            half = 1.96 * float(accs.std(ddof=1)) / np.sqrt(len(accs))
        else:
            half = 0.0
        aggregates.append(
            {
                "variant": key[0],
                "q": key[1],
                "sample_seed": "all",
                "train_seed": "all",
                "accuracy": f"{mean:.6f}±{half:.6f}",
                "wall_secs": float(np.mean([row["wall_secs"] for row in group])),
            }
        )
    return aggregates


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        acc = row["accuracy"]
        acc_text = acc if isinstance(acc, str) else f"{acc:.6f}"
        writer.writerow(
            [
                row["variant"],
                row["q"],
                row["sample_seed"],
                row["train_seed"],
                acc_text,
                f"{row['wall_secs']:.3f}",
            ]
        )
    return buf.getvalue()


def check_variant(variant: str, ruleset: RuleSet) -> None:
    """Raise ConfigError for an unknown variant, or for a rule-feature
    variant (`instance`, `word`) given no rules: with p = 0 it would
    silently train the plain `nnsc` model."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    if variant != "nnsc" and not ruleset.rules:
        raise ConfigError(f"variant {variant!r} needs at least one rule")


def run_experiment(
    ruleset: RuleSet,
    mdfas: list[Mdfa],
    train_dataset: Dataset,
    test_dataset: Dataset,
    config: ExperimentConfig,
    out_path: str | os.PathLike | None = None,
) -> list[dict]:
    """Run the seeded grid; returns data rows followed by aggregate rows.

    Automata are compiled once by the caller and shared; each one's
    fingerprint must equal a fresh compilation of its rule, or
    RulesMismatchError names the first rule that differs.
    Every run goes through `init_model` and `fit_run` on one shared
    feature cache.  The CSV is written once, however the grid ends: on
    failure it holds the rows finished so far with an error row appended.
    An empty axis (no variant, q value, sampling seed or training seed),
    a value repeated on an axis, a q below 1, a negative seed or a
    training setting no run can use (epochs, batch size, lr, clip norm, d,
    h) raises ConfigError before anything is written.
    """
    for axis in ("variants", "q_values", "sample_seeds", "train_seeds"):
        values = getattr(config, axis)
        if not values:
            raise ConfigError(f"the experiment grid has an empty {axis} axis")
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(f"the experiment grid's {axis} axis repeats {value!r}")
    seeds, top3 = config.sample_seeds, config.augment_top3
    fewshots = {q: FewShotConfig(q, seeds, top3) for q in config.q_values}
    train_configs = {
        seed: TrainConfig(
            epochs=config.epochs,
            batch_size=config.batch_size,
            lr=config.lr,
            seed=seed,
            clip_norm=config.clip_norm,
            d=config.d,
            h=config.h,
        )
        for seed in config.train_seeds
    }
    for k, (rule, mdfa, fresh) in enumerate(zip(ruleset.rules, mdfas, compile_rules(ruleset))):
        if mdfa.fingerprint() != fresh.fingerprint():
            raise RulesMismatchError(
                f"rule {k + 1} ({rule.label}: {unparse(rule.ast)}) does not compile "
                "to the automaton given for it"
            )
    for variant in config.variants:
        check_variant(variant, ruleset)

    cache = FeatureCache(ruleset, mdfas)
    rows: list[dict] = []
    try:
        for variant in config.variants:
            for q in config.q_values:
                subsets = sample_fewshot(train_dataset, fewshots[q])
                for sample_seed, subset in zip(config.sample_seeds, subsets):
                    for train_seed in config.train_seeds:
                        t0 = time.perf_counter()
                        run_config = train_configs[train_seed]
                        params = init_model(variant, cache, subset, run_config)
                        _, accuracy = fit_run(
                            params, cache, subset, run_config, test_set=test_dataset
                        )
                        rows.append(
                            {
                                "variant": variant,
                                "q": q,
                                "sample_seed": sample_seed,
                                "train_seed": train_seed,
                                "accuracy": accuracy,
                                "wall_secs": time.perf_counter() - t0,
                            }
                        )
    except Exception as exc:
        rows.append(
            {
                "variant": "error",
                "q": 0,
                "sample_seed": "",
                "train_seed": "",
                "accuracy": f"error: {exc}",
                "wall_secs": 0.0,
            }
        )
        raise
    else:
        rows.extend(_aggregate(rows))
    finally:
        if out_path is not None:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(rows_to_csv(rows))
    return rows
