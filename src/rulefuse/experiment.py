"""Experiment pipeline: rule baseline, model evaluation, seeded grid runs.

`run_experiment` trains every (variant, q, sampling seed, training seed)
combination and appends the rows to a CSV with header
``variant,q,sample_seed,train_seed,accuracy,wall_secs``.  After the data
rows, one aggregate row per (variant, q) carries the mean accuracy and the
95% confidence half-width (normal approximation) in the accuracy column as
``mean±halfwidth``, with ``all`` in both seed columns.  Everything except
the wall_secs column is reproducible bit-for-bit for fixed seeds.
"""

from __future__ import annotations

import csv
import io
import os
import time
from dataclasses import dataclass

import numpy as np

from .automata import DEFAULT_STATE_BUDGET, Mdfa, compile as compile_ast
from .data import Dataset, FewShotConfig, sample_fewshot
from .encoding import (
    RuleMatcher,
    encode_all,  # noqa: F401 - bench/tracer.py patches rulefuse.experiment.encode_all
)
from .errors import RulesMismatchError
from .matching import Sentence
from .model import (
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
    "run_experiment",
    "CSV_HEADER",
]

CSV_HEADER = ("variant", "q", "sample_seed", "train_seed", "accuracy", "wall_secs")


def compile_rules(ruleset: RuleSet, state_budget: int = DEFAULT_STATE_BUDGET) -> list[Mdfa]:
    """Compile every rule's AST; order matches the rule order."""
    return [compile_ast(rule.ast, state_budget=state_budget) for rule in ruleset.rules]


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
    rule_labels = [index[rule.label] for rule in ruleset.rules]
    matcher = RuleMatcher(ruleset, mdfas)
    hits = 0
    for sentence, label in dataset.samples:
        _, _, accepted = matcher.run(sentence)
        accepting = np.flatnonzero(accepted)
        if accepting.size and rule_labels[accepting[0]] == label:
            hits += 1
    return hits / len(dataset.samples)


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
    """Per-sentence rule features, computed lazily and shared across runs."""

    def __init__(self, ruleset: RuleSet, mdfas: list[Mdfa]):
        self.matcher = RuleMatcher(ruleset, mdfas)
        self.m_total = self.matcher.m_total
        self._store: dict[tuple[str, ...], tuple] = {}

    def features(self, sentence: Sentence):
        key = sentence.words
        if key not in self._store:
            self._store[key] = self.matcher.encode(sentence)
        return self._store[key]


def build_items(dataset: Dataset, variant: str, cache: FeatureCache | None) -> list[TrainItem]:
    """TrainItems carrying exactly the features the variant reads."""
    items = []
    for sentence, label in dataset.samples:
        instance_feats = None
        word_tags = None
        if variant == "instance":
            instance_feats = cache.features(sentence)[0]
        elif variant == "word":
            word_tags = cache.features(sentence)[1]
        items.append(TrainItem(sentence, label, instance_feats, word_tags))
    return items


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
    state_budget: int = DEFAULT_STATE_BUDGET


def _aggregate(rows: list[dict]) -> list[dict]:
    grouped: dict[tuple[str, int], list[float]] = {}
    walls: dict[tuple[str, int], list[float]] = {}
    order: list[tuple[str, int]] = []
    for row in rows:
        key = (row["variant"], row["q"])
        if key not in grouped:
            grouped[key] = []
            walls[key] = []
            order.append(key)
        grouped[key].append(row["accuracy"])
        walls[key].append(row["wall_secs"])
    aggregates = []
    for key in order:
        accs = np.array(grouped[key])
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
                "wall_secs": float(np.mean(walls[key])),
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
    spot-check verifies the cached tables match a fresh compilation.  On
    failure, the rows finished so far are flushed with an error row
    appended.
    """
    if mdfas and ruleset.rules:
        fresh = compile_ast(ruleset.rules[0].ast, state_budget=config.state_budget)
        if fresh.fingerprint() != mdfas[0].fingerprint():
            raise RuntimeError("cached automaton differs from fresh compilation")
    for variant in config.variants:
        if variant not in ("nnsc", "instance", "word"):
            raise ValueError(f"unknown variant {variant!r}")

    cache = FeatureCache(ruleset, mdfas)
    test_items_by_variant = {
        variant: build_items(test_dataset, variant, cache)
        for variant in config.variants
    }
    rows: list[dict] = []
    try:
        for variant in config.variants:
            for q in config.q_values:
                fewshot = FewShotConfig(
                    q=q, seeds=config.sample_seeds, augment_top3=config.augment_top3
                )
                subsets = sample_fewshot(train_dataset, fewshot)
                for sample_seed, subset in zip(config.sample_seeds, subsets):
                    train_items = build_items(subset, variant, cache)
                    # coherence: the items carry only the variant's features
                    assert all(
                        (it.instance_feats is None) == (variant != "instance")
                        and (it.word_tags is None) == (variant != "word")
                        for it in train_items
                    )
                    vocab = build_vocab(s for s, _ in subset.samples)
                    for train_seed in config.train_seeds:
                        t0 = time.perf_counter()
                        params = ModelParams.init(
                            variant,
                            vocab,
                            d=config.d,
                            h=config.h,
                            C=train_dataset.C,
                            p=ruleset.p,
                            m_total=cache.m_total,
                            seed=train_seed,
                        )
                        params, _ = train(
                            params,
                            train_items,
                            TrainConfig(
                                epochs=config.epochs,
                                batch_size=config.batch_size,
                                lr=config.lr,
                                seed=train_seed,
                                clip_norm=config.clip_norm,
                            ),
                        )
                        accuracy = evaluate_items(params, test_items_by_variant[variant])
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
        if out_path is not None:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(rows_to_csv(rows))
        raise
    rows.extend(_aggregate(rows))
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(rows_to_csv(rows))
    return rows
