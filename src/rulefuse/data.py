"""Datasets: TSV ingestion, few-shot sampling, and a synthetic corpus.

The synthetic generator exists so the training pipeline can be exercised
end to end without any external download: each class is governed by one
pattern (two ordered keywords with arbitrary words around them), sentences
are draws from that pattern padded with filler words, and a configurable
fraction of labels is flipped to a different class as noise.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyDatasetError, MalformedLineError, require
from .matching import Sentence

__all__ = [
    "Dataset",
    "FewShotConfig",
    "load_dataset",
    "load_labels",
    "write_dataset",
    "sample_fewshot",
    "SyntheticSpec",
    "generate_synthetic",
]


@dataclass
class Dataset:
    """Labelled sentences and the class names their labels index."""

    samples: list[tuple[Sentence, int]]
    label_names: list[str]

    @property
    def C(self) -> int:
        return len(self.label_names)

    def __len__(self) -> int:
        return len(self.samples)

    def label_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.label_names)}


def load_labels(path: str | os.PathLike) -> list[str]:
    """One label per line; order defines the class indices.  A leading
    UTF-8 byte-order mark is dropped."""
    with open(path, encoding="utf-8-sig") as fh:
        labels = [line.strip().lower() for line in fh if line.strip()]
    seen = set()
    for label in labels:
        if label in seen:
            raise ConfigError(f"duplicate label {label!r} in {path}")
        seen.add(label)
    return labels


def load_dataset(
    path: str | os.PathLike, label_names: list[str] | None = None
) -> Dataset:
    """Load a `label<TAB>text` TSV; text is lowercased and split on whitespace.

    Labels map to indices in first-appearance order unless `label_names`
    pins the order (then unknown labels are malformed lines).  A leading
    UTF-8 byte-order mark is dropped.  Words are interned
    (`Sentence.from_text`): every dataset loaded in the process shares
    one string per distinct word.
    """
    names = list(label_names) if label_names is not None else []
    index = {name: i for i, name in enumerate(names)}
    fixed = label_names is not None
    # the class of each label field as written, so each spelling is
    # stripped, lowercased and checked once
    classes: dict[str, int] = {}
    from_text = Sentence.from_text
    samples: list[tuple[Sentence, int]] = []
    with open(path, encoding="utf-8-sig") as fh:
        # each line keeps its "\n", which splitting the text drops
        for line_no, line in enumerate(fh, start=1):
            label, tab, text = line.partition("\t")
            if not tab:
                if line.strip():
                    raise MalformedLineError("expected label<TAB>text", line=line_no)
                continue
            sentence = from_text(text)
            c = classes.get(label)
            if c is None or not sentence.words:
                name = label.strip().lower()
                if not (name and sentence.words):
                    if not line.strip():
                        continue
                    raise MalformedLineError("empty label or text", line=line_no)
                if name not in index:
                    if fixed:
                        raise MalformedLineError(f"unknown label {name!r}", line=line_no)
                    index[name] = len(names)
                    names.append(name)
                c = classes[label] = index[name]
            samples.append((sentence, c))
    if not samples:
        raise EmptyDatasetError(f"no samples in {path}")
    return Dataset(samples, names)


def write_dataset(dataset: Dataset, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sentence, label in dataset.samples:
            fh.write(f"{dataset.label_names[label]}\t{sentence.text()}\n")


@dataclass(frozen=True)
class FewShotConfig:
    q: int
    seeds: tuple[int, ...]
    augment_top3: int | None = None  # extra samples per top-3-frequency class

    def __post_init__(self):
        require(self.q >= 1, f"q must be >= 1, got {self.q}")
        require(bool(self.seeds), "at least one sampling seed required")
        require(min(self.seeds) >= 0, f"sampling seeds must be >= 0, got {min(self.seeds)}")
        top3 = self.augment_top3
        require(top3 is None or top3 >= 0, f"augment_top3 must be None or >= 0, got {top3}")


def sample_fewshot(dataset: Dataset, config: FewShotConfig) -> list[Dataset]:
    """One few-shot subset per seed.

    Per class: min(q, class size) samples drawn uniformly without
    replacement.  With augment_top3 set, that many extra samples (or all
    that remain) are added from each of the three most frequent classes.
    """
    by_class: list[list[int]] = [[] for _ in range(dataset.C)]
    for i, (_, label) in enumerate(dataset.samples):
        by_class[label].append(i)
    counts = [len(pool) for pool in by_class]
    top3 = sorted(range(dataset.C), key=lambda c: (-counts[c], c))[:3]

    subsets = []
    for seed in config.seeds:
        rng = np.random.default_rng(seed)
        chosen: list[int] = []
        chosen_per_class: list[set[int]] = [set() for _ in range(dataset.C)]
        for c in range(dataset.C):
            pool = by_class[c]
            k = min(config.q, len(pool))
            if k:
                picks = rng.choice(len(pool), size=k, replace=False)
                selected = sorted(pool[i] for i in picks)
                chosen.extend(selected)
                chosen_per_class[c].update(selected)
        if config.augment_top3:
            for c in top3:
                remaining = [i for i in by_class[c] if i not in chosen_per_class[c]]
                k = min(config.augment_top3, len(remaining))
                if k:
                    picks = rng.choice(len(remaining), size=k, replace=False)
                    chosen.extend(sorted(remaining[i] for i in picks))
        subsets.append(
            Dataset([dataset.samples[i] for i in chosen], list(dataset.label_names))
        )
    return subsets


# ---------------------------------------------------------------------------
# synthetic rule-governed corpus


_KEYWORDS = ("alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "theta")
_MAX_CLASSES = len(_KEYWORDS) * (len(_KEYWORDS) - 1)  # one ordered keyword pair each
_FILLERS = tuple(f"w{i:02d}" for i in range(40))
_MAX_GAP = 3  # filler words per gap: 1.._MAX_GAP


@dataclass(frozen=True)
class SyntheticSpec:
    classes: int = 6
    train_size: int = 600
    test_size: int = 300
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        _require_classes(self.classes)
        require(self.train_size >= 1, f"train_size must be >= 1, got {self.train_size}")
        require(self.test_size >= 1, f"test_size must be >= 1, got {self.test_size}")
        require(0.0 <= self.noise <= 1.0, f"noise must be in [0, 1], got {self.noise}")
        require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")


def _require_classes(classes: int) -> None:
    require(2 <= classes <= _MAX_CLASSES, f"classes must be in 2..{_MAX_CLASSES}, got {classes}")


def _keyword_pairs(classes: int) -> list[tuple[str, str]]:
    """The first `classes` ordered pairs of the fewest keywords that have as many."""
    k = next(k for k in range(2, len(_KEYWORDS) + 1) if k * (k - 1) >= classes)
    return list(itertools.permutations(_KEYWORDS[:k], 2))[:classes]


def synthetic_rule_lines(classes: int) -> list[str]:
    """`label<TAB>pattern` lines, one ordered keyword-pair rule per class.

    Raises ConfigError unless `classes` is in the range SyntheticSpec takes.
    """
    _require_classes(classes)
    lines = []
    for first, second in _keyword_pairs(classes):
        lines.append(f"{first}_{second}\t( . )* {first} ( . )* {second}")
    return lines


def generate_synthetic(spec: SyntheticSpec = SyntheticSpec()) -> tuple[Dataset, Dataset, list[str]]:
    """Build (train, test, rule lines) for a rule-governed corpus.

    Class k's sentences contain its two keywords in order, surrounded by
    1.._MAX_GAP filler words per gap.  With probability `noise` a sample is
    labeled with a uniformly chosen *other* class.
    """
    pairs = _keyword_pairs(spec.classes)
    label_names = [f"{a}_{b}" for a, b in pairs]
    rng = np.random.default_rng(spec.seed)

    def make_split(size: int) -> Dataset:
        samples = []
        for i in range(size):
            c = int(i % spec.classes)  # balanced classes
            first, second = pairs[c]
            words: list[str] = []
            for piece in (first, second, None):
                gap = int(rng.integers(1, _MAX_GAP + 1))
                words.extend(_FILLERS[j] for j in rng.integers(0, len(_FILLERS), size=gap))
                if piece is not None:
                    words.append(piece)
            label = c
            if rng.random() < spec.noise:
                others = [k for k in range(spec.classes) if k != c]
                label = int(others[rng.integers(0, len(others))])
            samples.append((Sentence(tuple(words)), label))
        return Dataset(samples, list(label_names))

    train = make_split(spec.train_size)
    test = make_split(spec.test_size)
    return train, test, synthetic_rule_lines(spec.classes)
