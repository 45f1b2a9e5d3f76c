"""Acceptance suite: one pass/fail line per criterion.

Run `pytest -s tests/test_acceptance.py` to see the report lines; each
criterion is also a hard assertion (except the optional soft check, which
skips without the external data and xfails outside its soft tolerance).
"""

import os
import random
import time

import numpy as np
import pytest

from oracles import (
    OOV,
    max_grad_relative_error,
    minimal_state_count,
    oracle_earlystop_accepts,
    oracle_full_match,
    random_model_case,
    random_ast,
    sentences_up_to,
)
from rulefuse.automata import collect_literals, compile
from rulefuse.data import SyntheticSpec, generate_synthetic, load_dataset, FewShotConfig
from rulefuse.encoding import encode_instance, encode_word_tags
from rulefuse.experiment import (
    ExperimentConfig,
    compile_rules,
    rows_to_csv,
    rule_baseline_accuracy,
    run_experiment,
)
from rulefuse.matching import Sentence, Trace, run_trace
from rulefuse.model import ModelParams, forward
from rulefuse.rules import load_rules, parse_rule_lines


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared populations


@pytest.fixture(scope="module")
def regex_population():
    rng = random.Random(424242)
    population = []
    for _ in range(500):
        ast = random_ast(rng, depth=4)
        population.append((ast, collect_literals(ast), compile(ast)))
    return population


_EXPERIMENT_SPEC = SyntheticSpec(
    classes=6, train_size=600, test_size=300, noise=0.1, seed=0
)
_EXPERIMENT_CONFIG = ExperimentConfig(
    variants=("nnsc", "instance", "word"),
    q_values=(5,),
    sample_seeds=(0, 1, 2),
    train_seeds=(0, 1, 2, 3, 4),
    epochs=40,
    batch_size=8,
    lr=0.3,
    d=16,
    h=16,
)


def _run_synthetic_experiment():
    train, test, rule_lines = generate_synthetic(_EXPERIMENT_SPEC)
    ruleset = parse_rule_lines(rule_lines, known_labels=set(train.label_names))
    mdfas = compile_rules(ruleset)
    rows = run_experiment(ruleset, mdfas, train, test, _EXPERIMENT_CONFIG)
    return rows


@pytest.fixture(scope="module")
def synthetic_run():
    start = time.perf_counter()
    rows = _run_synthetic_experiment()
    elapsed = time.perf_counter() - start
    return rows, elapsed


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_oracle_equivalence(regex_population):
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for ast, literals, mdfa in regex_population:
        tokens = literals + [OOV]
        for words in sentences_up_to(tokens, 5):
            sentence = Sentence(words)
            checked += 1
            if run_trace(mdfa, sentence).accepted != oracle_earlystop_accepts(ast, words):
                mismatches += 1
            if run_trace(mdfa, sentence, full_match=True).accepted != oracle_full_match(ast, words):
                mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (oracle equivalence)",
        mismatches == 0 and elapsed < 60.0,
        f"{len(regex_population)} patterns, {checked} sentences, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_minimality(regex_population):
    start = time.perf_counter()
    count_mismatches = 0
    indistinguishable_pairs = 0
    for ast, literals, mdfa in regex_population:
        if mdfa.state_count != minimal_state_count(ast, literals):
            count_mismatches += 1
        for s in range(mdfa.state_count):
            for t in range(s + 1, mdfa.state_count):
                if _distinguishing_depth(mdfa, s, t) is None:
                    indistinguishable_pairs += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2 (minimality)",
        count_mismatches == 0 and indistinguishable_pairs == 0 and elapsed < 60.0,
        f"{len(regex_population)} patterns, {count_mismatches} count mismatches, "
        f"{indistinguishable_pairs} indistinguishable pairs, {elapsed:.1f}s",
    )


def _distinguishing_depth(mdfa, s, t):
    """Length of the shortest distinguishing suffix, None if > state_count."""
    if mdfa.is_final(s) != mdfa.is_final(t):
        return 0
    seen = {(s, t)}
    frontier = [(s, t)]
    for depth in range(1, mdfa.state_count + 1):
        nxt = []
        for a, b in frontier:
            for sid in range(mdfa.n_symbols):
                pair = (mdfa.transitions[a][sid], mdfa.transitions[b][sid])
                if mdfa.is_final(pair[0]) != mdfa.is_final(pair[1]):
                    return depth
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return None


def test_criterion_3_encoding_invariants():
    rng = random.Random(777)
    failures = 0
    cases = 10_000
    for _ in range(cases):
        m_k = rng.randint(1, 8)
        n = rng.randint(0, 8)
        consumed = rng.randint(0, n)
        visited = tuple(rng.randrange(m_k) for _ in range(consumed))
        accepted = rng.random() < 0.5 if (consumed or n == 0) else False
        trace = Trace(visited, consumed, accepted)
        feat = encode_instance(trace, m_k)
        tags = encode_word_tags(trace, n)
        ok = (
            set(feat.tolist()) <= {0.0, 1.0}
            and set(tags.tags.tolist()) <= {0.0, 1.0}
            and feat.sum() == len(set(visited))
            and all(
                feat[s] == (1.0 if s in visited else 0.0) for s in range(m_k)
            )
        )
        if accepted:
            ok = ok and tags.tags.tolist() == [1.0] * consumed + [0.0] * (n - consumed)
        else:
            ok = ok and not tags.tags.any()
        if not ok:
            failures += 1
    _report(
        "criterion 3 (encoding invariants)",
        failures == 0,
        f"{cases} generated traces, {failures} failures",
    )


def test_criterion_4_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    seeds = range(1, 21)
    for variant in ("nnsc", "instance", "word"):
        for seed in seeds:
            params, batch = random_model_case(seed, variant)
            worst = max(worst, max_grad_relative_error(params, batch, eps=1e-5))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 4 (gradient correctness)",
        worst < 1e-4 and elapsed < 120.0,
        f"3 variants x {len(list(seeds))} seeds, max relative error {worst:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_hybrids_beat_baseline(synthetic_run):
    rows, elapsed = synthetic_run
    data = [r for r in rows if r["sample_seed"] != "all"]
    means = {
        variant: float(
            np.mean([r["accuracy"] for r in data if r["variant"] == variant])
        )
        for variant in ("nnsc", "instance", "word")
    }
    gap_instance = means["instance"] - means["nnsc"]
    gap_word = means["word"] - means["nnsc"]
    _report(
        "criterion 5 (hybrids beat baseline)",
        gap_instance >= 0.10 and gap_word >= 0.10 and elapsed < 300.0,
        f"nnsc {means['nnsc']:.3f}, instance {means['instance']:.3f} "
        f"(+{gap_instance:.3f}), word {means['word']:.3f} (+{gap_word:.3f}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_variant_reduction():
    vocab = {"<unk>": 0, "one": 1, "two": 2, "three": 3}
    worst = 0.0
    for seed in range(5):
        outs = []
        for variant in ("nnsc", "instance", "word"):
            params = ModelParams.init(
                variant, vocab, d=6, h=5, C=4, p=0, m_total=0, seed=seed
            )
            sentence = Sentence.from_text("one three two two")
            feats = {
                "nnsc": None, "instance": np.zeros(0), "word": np.zeros((sentence.n, 0))
            }[variant]
            rec = forward(params, sentence, feats)
            outs.append(rec.y)
        worst = max(
            worst,
            float(np.max(np.abs(outs[0] - outs[1]))),
            float(np.max(np.abs(outs[0] - outs[2]))),
        )
    _report(
        "criterion 6 (variant reduction at p=0)",
        worst == 0.0,
        f"max absolute output difference {worst}",
    )


def test_criterion_7_optional_atis_soft():
    train_path = os.environ.get("RULEFUSE_ATIS_TRAIN", "data/atis/train.tsv")
    test_path = os.environ.get("RULEFUSE_ATIS_TEST", "data/atis/test.tsv")
    rules_path = os.environ.get("RULEFUSE_ATIS_RULES", "data/atis/rules.tsv")
    if not all(os.path.exists(p) for p in (train_path, test_path, rules_path)):
        print("[SKIP] criterion 7 (optional ATIS): external data not present")
        pytest.skip("ATIS split and rules files not available")
    train = load_dataset(train_path)
    test = load_dataset(test_path, label_names=train.label_names)
    ruleset = load_rules(rules_path, known_labels=set(train.label_names))
    mdfas = compile_rules(ruleset)
    rule_acc = rule_baseline_accuracy(ruleset, mdfas, test)
    config = ExperimentConfig(
        variants=("instance",),
        q_values=(10,),
        sample_seeds=(0,),
        train_seeds=(0, 1, 2),
        epochs=40,
        lr=0.3,
        d=32,
        h=32,
    )
    rows = run_experiment(ruleset, mdfas, train, test, config)
    inst_acc = float(
        np.mean([r["accuracy"] for r in rows if r["sample_seed"] != "all"])
    )
    ok = abs(rule_acc - 0.657) <= 0.03 and abs(inst_acc - 0.8499) <= 0.06
    print(
        f"[{'PASS' if ok else 'SOFT-FAIL'}] criterion 7 (optional ATIS): "
        f"rule-only {rule_acc:.3f} (target 0.657±0.03), "
        f"instance@q=10 {inst_acc:.3f} (target 0.850±0.06)"
    )
    if not ok:
        pytest.xfail("soft criterion outside tolerance; investigate, not reject")


def test_criterion_8_determinism(synthetic_run):
    rows_first, _ = synthetic_run
    rows_second = _run_synthetic_experiment()

    def stable_part(rows):
        lines = rows_to_csv(rows).splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    same = stable_part(rows_first) == stable_part(rows_second)
    _report(
        "criterion 8 (experiment determinism)",
        same,
        "CSV identical excluding wall_secs" if same else "CSV differs",
    )
