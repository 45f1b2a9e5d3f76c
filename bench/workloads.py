"""The three workloads.  Each drives rulefuse only through public functions.

A workload has a timed `setup`, a timed `op(i)`, and untimed checks:
`check(i, result)` after every op and `finish(results)` once after the
measured loop.  A check returns a list of messages; any message marks the
op as failed.  `accuracy(results)` reads the ops' outputs and covers a
fixed set of ops (the first `min_ops`), so it is a function of the seed
alone.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import rulefuse.automata
import rulefuse.cli
import rulefuse.data
import rulefuse.experiment
import rulefuse.model
import rulefuse.rules

import atis_gen

VARIANTS = ("nnsc", "instance", "word")


def load_oracles(root: Path):
    """tests/oracles.py: independent automata and matcher for the checks."""
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, `TINY` is the smoke test."""

    grid_train: int = 600
    grid_test: int = 300
    grid_epochs: int = 40
    q: int = 5
    min_cells: int = 6        # cells (2 per variant) that the accuracy covers
    min_gap: float = 0.10     # instance and word must beat nnsc by this much
    atis_sentences: int = 5000
    atis_slice: int = 250     # sentences encoded per rules_atis op
    oracle_sentences: int = 200
    eval_test: int = 3000
    eval_epochs: int = 20


TINY = Sizes(
    grid_train=60, grid_test=30, grid_epochs=2, q=2, min_cells=3, min_gap=-1.0,
    atis_sentences=120, atis_slice=40, oracle_sentences=10, eval_test=60, eval_epochs=2,
)


class Workload:
    """Defaults for the optional hooks."""

    def expect(self) -> None:
        """Untimed set-up of expected values, after `setup`."""

    def keep(self, i: int, out):
        """The part of an op's output that the checks and metrics read."""
        return out

    def finish(self, results: list) -> dict[int, list[str]]:
        return {}

    def detail(self, results: list) -> dict:
        return {}


class GridSynth(Workload):
    """Acceptance-grid cells: one `run_experiment` call per (variant, seeds) cell."""

    name = "grid_synth"
    op_name = "grid_cell_s"
    op_kinds = len(VARIANTS)

    def __init__(self, seed: int, workdir: Path, root: Path, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.min_ops = sizes.min_cells

    def setup(self) -> None:
        spec = rulefuse.data.SyntheticSpec(
            classes=6, train_size=self.sizes.grid_train, test_size=self.sizes.grid_test,
            noise=0.1, seed=self.seed,
        )
        self.train, self.test, lines = rulefuse.data.generate_synthetic(spec)
        self.ruleset = rulefuse.rules.parse_rule_lines(lines)
        self.mdfas = rulefuse.experiment.compile_rules(self.ruleset)

    def cell(self, i: int) -> tuple[str, int]:
        return VARIANTS[i % len(VARIANTS)], self.seed * 1000 + i // len(VARIANTS)

    def op(self, i: int) -> float:
        variant, cell_seed = self.cell(i)
        config = rulefuse.experiment.ExperimentConfig(
            variants=(variant,), q_values=(self.sizes.q,), sample_seeds=(cell_seed,),
            train_seeds=(cell_seed,), epochs=self.sizes.grid_epochs, batch_size=8,
            lr=0.3, d=16, h=16,
        )
        rows = rulefuse.experiment.run_experiment(
            self.ruleset, self.mdfas, self.train, self.test, config
        )
        return rows[0]["accuracy"]

    def check(self, i: int, acc: float) -> list[str]:
        if not (math.isfinite(acc) and 0.0 <= acc <= 1.0):
            return [f"cell {i}: accuracy {acc!r} outside [0, 1]"]
        return []

    def variant_means(self, results: list) -> dict[str, float]:
        accs: dict[str, list[float]] = {v: [] for v in VARIANTS}
        for i, acc in enumerate(results[: self.min_ops]):
            accs[self.cell(i)[0]].append(acc)
        return {v: sum(a) / len(a) for v, a in accs.items() if a}

    def accuracy(self, results: list) -> float:
        covered = results[: self.min_ops]
        return sum(covered) / len(covered)

    def finish(self, results: list) -> dict[int, list[str]]:
        errors: dict[int, list[str]] = {}
        means = self.variant_means(results)
        for variant in ("instance", "word"):
            gap = means[variant] - means["nnsc"]
            if not gap >= self.sizes.min_gap:
                errors.setdefault(0, []).append(
                    f"acc.{variant} beats acc.nnsc by {gap:.4f} < {self.sizes.min_gap}"
                )
        rerun = self.op(0)
        if rerun != results[0]:
            errors.setdefault(0, []).append(f"rerun of cell 0 gave {rerun!r} != {results[0]!r}")
        return errors

    def detail(self, results: list) -> dict:
        return {f"acc.{v}": acc for v, acc in self.variant_means(results).items()}


class RulesAtis(Workload):
    """Rule author's edit loop: load + compile 54 rules, encode a corpus slice."""

    name = "rules_atis"
    op_name = "edit_loop_s"
    op_kinds = 1

    def __init__(self, seed: int, workdir: Path, root: Path, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.rules_path = workdir / "atis_rules.tsv"
        self.corpus_path = workdir / "atis_corpus.tsv"
        self.oracles = load_oracles(root)
        self.slices = math.ceil(sizes.atis_sentences / sizes.atis_slice)
        self.min_ops = self.slices  # one full pass over the corpus
        self.phases: list[tuple[float, float, int]] = []

    def setup(self) -> None:
        lines = atis_gen.generate_rules(self.seed)
        with open(self.rules_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        corpus = atis_gen.generate_corpus(self.seed, lines, self.sizes.atis_sentences)
        with open(self.corpus_path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{label}\t{text}\n" for label, text, _ in corpus)
        self.sources = [k for _, _, k in corpus]
        self.corpus = rulefuse.data.load_dataset(
            self.corpus_path, label_names=list(atis_gen.LABELS)
        )

    def slice_range(self, i: int) -> range:
        lo = (i % self.slices) * self.sizes.atis_slice
        return range(lo, min(lo + self.sizes.atis_slice, len(self.corpus)))

    def op(self, i: int):
        t0 = time.perf_counter()
        ruleset = rulefuse.rules.load_rules(self.rules_path, set(atis_gen.LABELS))
        mdfas = rulefuse.experiment.compile_rules(ruleset)
        t1 = time.perf_counter()
        cache = rulefuse.experiment.FeatureCache(ruleset, mdfas)
        feats = [cache.features(self.corpus.samples[j][0]) for j in self.slice_range(i)]
        self.phases.append((t1 - t0, time.perf_counter() - t1, len(feats)))
        return ruleset, mdfas, feats

    def keep(self, i: int, out) -> dict:
        """Keep what the checks need: fingerprints and acceptance bits."""
        ruleset, mdfas, feats = out
        if i == 0:
            self.first_ruleset, self.first_mdfas = ruleset, mdfas
            self.rule_labels = [rule.label for rule in ruleset.rules]
        return {
            "fingerprints": [m.fingerprint() for m in mdfas],
            "accepts": [tuple(bool(seq.tags.any()) for seq in tags) for _, tags in feats],
        }

    def check(self, i: int, summary: dict) -> list[str]:
        errors = []
        if i == 0:
            self.first_fingerprints = summary["fingerprints"]
        elif summary["fingerprints"] != self.first_fingerprints:
            errors.append(f"op {i}: compiled automata differ from op 0")
        for j, bits in zip(self.slice_range(i), summary["accepts"]):
            k = self.sources[j]
            if k >= 0 and not bits[k]:
                errors.append(f"sentence {j} is not accepted by the rule it came from")
        return errors

    def accuracy(self, results: list) -> float:
        """First-match rule-only accuracy over one full pass of the corpus."""
        names = self.corpus.label_names
        hits = 0
        for i, summary in enumerate(results[: self.min_ops]):
            for j, bits in zip(self.slice_range(i), summary["accepts"]):
                first = next((k for k, bit in enumerate(bits) if bit), None)
                gold = names[self.corpus.samples[j][1]]
                hits += first is not None and self.rule_labels[first] == gold
        return hits / len(self.corpus)

    def finish(self, results: list) -> dict[int, list[str]]:
        errors: list[str] = []
        for rule, mdfa in zip(self.first_ruleset.rules, self.first_mdfas):
            literals = rulefuse.automata.collect_literals(rule.ast)
            expected = self.oracles.minimal_state_count(rule.ast, literals)
            if mdfa.state_count != expected:
                errors.append(
                    f"rule {rule.rule_id}: {mdfa.state_count} states, minimal is {expected}"
                )
        recompiled = rulefuse.experiment.compile_rules(self.first_ruleset)
        if [m.fingerprint() for m in recompiled] != self.first_fingerprints:
            errors.append("a second compilation changed an automaton fingerprint")
        bits_by_sentence = {}
        for i, summary in enumerate(results[: self.min_ops]):
            bits_by_sentence.update(zip(self.slice_range(i), summary["accepts"]))
        rng = random.Random(self.seed)
        sample = rng.sample(sorted(bits_by_sentence), min(self.sizes.oracle_sentences, len(bits_by_sentence)))
        for j in sample:
            words = self.corpus.samples[j][0].words
            for k, rule in enumerate(self.first_ruleset.rules):
                if self.oracles.oracle_earlystop_accepts(rule.ast, words) != bits_by_sentence[j][k]:
                    errors.append(f"sentence {j}, rule {rule.rule_id}: acceptance differs from oracle")
        return {0: errors} if errors else {}

    def detail(self, results: list) -> dict:
        return {
            "compile_s": [c for c, _, _ in self.phases],
            "encode_sents_per_s": [n / e for _, e, n in self.phases],
        }


class EvalBulk(Workload):
    """Inference path: `rulefuse eval` of one checkpoint per variant, in process."""

    name = "eval_bulk"
    op_name = "eval_s"
    op_kinds = len(VARIANTS)

    def __init__(self, seed: int, workdir: Path, root: Path, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.dir = workdir
        self.min_ops = len(VARIANTS)
        self.rules = str(workdir / "rules.tsv")
        self.test = str(workdir / "test.tsv")
        self.ckpts = [str(workdir / f"{v}.npz") for v in VARIANTS]

    def _cli(self, *argv: str) -> str:
        """Run `rulefuse ARGV` in this process; returns what it printed."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = rulefuse.cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"rulefuse {' '.join(argv)} exited with {code}")
        return out.getvalue()

    def setup(self) -> None:
        s = self.sizes
        self._cli("synth-gen", "--out", str(self.dir), "--classes", "6", "--train-size", "600",
                  "--test-size", str(s.eval_test), "--noise", "0.1", "--seed", str(self.seed))
        fewshot = self.dir / "fewshot"
        self._cli("fewshot", "--train", str(self.dir / "train.tsv"), "--out", str(fewshot),
                  "--q", str(s.q), "--seeds", str(self.seed))
        subset = str(fewshot / f"fewshot_q{s.q}_seed{self.seed}.tsv")
        for variant, ckpt in zip(VARIANTS, self.ckpts):
            self._cli("train", "--rules", self.rules, "--train", subset, "--variant", variant,
                      "--epochs", str(s.eval_epochs), "--lr", "0.3", "--seed", str(self.seed),
                      "--out", ckpt)

    def expect(self) -> None:
        """Accuracy of each checkpoint by `evaluate_items`, for the op checks."""
        self.expected = []
        for ckpt in self.ckpts:
            params = rulefuse.model.load_model(ckpt)
            dataset = rulefuse.data.load_dataset(self.test, label_names=params.labels)
            ruleset = rulefuse.rules.load_rules(self.rules, set(dataset.label_names))
            cache = rulefuse.experiment.FeatureCache(
                ruleset, rulefuse.experiment.compile_rules(ruleset)
            )
            items = rulefuse.experiment.build_items(dataset, params.variant, cache)
            self.expected.append(rulefuse.model.evaluate_items(params, items))

    def op(self, i: int) -> str:
        ckpt = self.ckpts[i % len(self.ckpts)]
        return self._cli("eval", "--rules", self.rules, "--test", self.test, "--model", ckpt)

    @staticmethod
    def parse(out: str) -> float:
        line = out.strip().splitlines()[-1]
        if not line.startswith("accuracy="):
            raise ValueError(f"unexpected eval output {line!r}")
        return float(line.split("=", 1)[1])

    def check(self, i: int, out: str) -> list[str]:
        expected = f"accuracy={self.expected[i % len(self.ckpts)]:.4f}"
        if out.strip() != expected:
            return [f"eval printed {out.strip()!r}, evaluate_items gives {expected!r}"]
        return []

    def accuracy(self, results: list) -> float:
        covered = [self.parse(out) for out in results[: self.min_ops]]
        return sum(covered) / len(covered)

    def detail(self, results: list) -> dict:
        return {f"acc.{v}": self.parse(out) for v, out in zip(VARIANTS, results)}


WORKLOADS = {cls.name: cls for cls in (GridSynth, RulesAtis, EvalBulk)}
