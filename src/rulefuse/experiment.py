"""Experiment pipeline: rule baseline, model evaluation, seeded grid runs.

`run_experiment` trains every (variant, q, sampling seed, training seed)
combination and appends the rows to a CSV with header
``variant,q,sample_seed,train_seed,accuracy,wall_secs``.  After the data
rows, one aggregate row per (variant, q) carries the mean accuracy and the
95% confidence half-width (normal approximation) in the accuracy column as
``mean±halfwidth``, with ``all`` in both seed columns.  Everything except
the wall_secs column is reproducible bit-for-bit for fixed seeds.  A
run's wall_secs covers its `init_model` + `fit_run` call: vocabulary and
weights, train and test items from the shared feature cache (encoding only
sentences not seen before), training, and scoring.
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
from .errors import ConfigError, RulesMismatchError
from .matching import Sentence
from .model import (
    VARIANTS,
    ModelParams,
    TrainConfig,
    TrainItem,
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
    "rule_only_classify",
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


def rule_only_classify(
    ruleset: RuleSet,
    mdfas: list[Mdfa],
    sentence: Sentence,
    label_index: dict[str, int],
) -> int | None:
    """Label index of the first rule (file order) accepting the sentence."""
    from .matching import accepts

    for rule, mdfa in zip(ruleset.rules, mdfas):
        if accepts(mdfa, sentence):
            return label_index[rule.label]
    return None


def rule_baseline_accuracy(ruleset: RuleSet, mdfas: list[Mdfa], dataset: Dataset) -> float:
    """Accuracy of the first-match rule classifier; no-match counts as wrong."""
    index = dataset.label_index()
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
    """Per-sentence rule features, computed lazily and shared across runs.

    `features` gives one sentence's per-rule feature objects; `arrays`
    gives many sentences' `(m_total,)` indicator and `(n, p)` tag matrix,
    encoding the ones not yet cached in one batched matcher call.  The
    rules and automata it encodes with stay readable as `ruleset` and
    `mdfas`, so a model built on the cache can record them.
    """

    def __init__(self, ruleset: RuleSet, mdfas: list[Mdfa]):
        self.ruleset = ruleset
        self.mdfas = mdfas
        self.matcher = RuleMatcher(ruleset, mdfas)
        self.m_total = self.matcher.m_total
        self._store: dict[tuple[str, ...], tuple] = {}
        self._arrays: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray]] = {}

    def features(self, sentence: Sentence):
        key = sentence.words
        if key not in self._store:
            self._store[key] = self.matcher.encode(sentence)
        return self._store[key]

    def arrays(self, sentences: list[Sentence]) -> list[tuple[np.ndarray, np.ndarray]]:
        """(indicator, tag matrix) of each sentence, in order."""
        missing = {s.words: s for s in sentences if s.words not in self._arrays}
        if missing:
            indicator, tags = self.matcher.encode_batch(list(missing.values()))
            self._arrays.update(zip(missing, zip(indicator, tags)))
        return [self._arrays[s.words] for s in sentences]


def build_items(dataset: Dataset, variant: str, cache: FeatureCache | None) -> list[TrainItem]:
    """TrainItems carrying exactly the features the variant reads, as the
    arrays the model consumes: the `(m_total,)` state indicator for
    `instance`, the `(n, p)` tag matrix for `word`."""
    if variant not in ("instance", "word"):
        return [TrainItem(sentence, label) for sentence, label in dataset.samples]
    feats = cache.arrays([sentence for sentence, _ in dataset.samples])
    if variant == "instance":
        return [
            TrainItem(sentence, label, instance_feats=indicator)
            for (sentence, label), (indicator, _) in zip(dataset.samples, feats)
        ]
    return [
        TrainItem(sentence, label, word_tags=tags)
        for (sentence, label), (_, tags) in zip(dataset.samples, feats)
    ]


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
    variants: tuple[str, ...] = ("nnsc", "instance", "word")
    q_values: tuple[int, ...] = (5,)
    sample_seeds: tuple[int, ...] = (0, 1, 2)
    train_seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    augment_top3: int | None = None
    epochs: int = 30
    batch_size: int = 8
    lr: float = 0.1
    clip_norm: float | None = 5.0
    d: int = 16
    h: int = 16


def init_model(
    variant: str, cache: FeatureCache, train_set: Dataset, d: int, h: int, seed: int
) -> ModelParams:
    """Seeded initial weights for one run on `train_set`, with its vocabulary,
    its label names and the rule binding of the cache's rules."""
    return ModelParams.init(
        variant,
        build_vocab(sentence for sentence, _ in train_set.samples),
        d=d,
        h=h,
        C=train_set.C,
        p=cache.ruleset.p,
        m_total=cache.m_total,
        seed=seed,
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

    Automata are compiled once by the caller and shared; a fingerprint
    spot-check verifies the cached tables match a fresh compilation.
    Every run goes through `init_model` and `fit_run` on one shared
    feature cache.  The CSV is written once, however the grid ends: on
    failure it holds the rows finished so far with an error row appended.
    """
    if mdfas and ruleset.rules:
        fresh = compile_ast(ruleset.rules[0].ast)
        if fresh.fingerprint() != mdfas[0].fingerprint():
            raise RuntimeError("cached automaton differs from fresh compilation")
    for variant in config.variants:
        check_variant(variant, ruleset)

    cache = FeatureCache(ruleset, mdfas)
    rows: list[dict] = []
    try:
        for variant in config.variants:
            for q in config.q_values:
                fewshot = FewShotConfig(
                    q=q, seeds=config.sample_seeds, augment_top3=config.augment_top3
                )
                subsets = sample_fewshot(train_dataset, fewshot)
                for sample_seed, subset in zip(config.sample_seeds, subsets):
                    for train_seed in config.train_seeds:
                        t0 = time.perf_counter()
                        params = init_model(
                            variant, cache, subset, config.d, config.h, train_seed
                        )
                        train_config = TrainConfig(
                            epochs=config.epochs,
                            batch_size=config.batch_size,
                            lr=config.lr,
                            seed=train_seed,
                            clip_norm=config.clip_norm,
                        )
                        _, accuracy = fit_run(
                            params, cache, subset, train_config, test_set=test_dataset
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
