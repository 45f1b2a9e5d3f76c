import random
import re
import tracemalloc

import pytest

from rulefuse.data import (
    Dataset,
    FewShotConfig,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_labels,
    sample_fewshot,
    synthetic_rule_lines,
    write_dataset,
)
from rulefuse.errors import ConfigError, EmptyDatasetError, MalformedLineError
from rulefuse.experiment import compile_rules, rule_baseline_accuracy
from rulefuse.matching import Sentence
from rulefuse.rules import parse_rule_lines


def test_load_dataset_basic(tmp_path):
    path = tmp_path / "train.tsv"
    path.write_text("flight\tShow me Flights\nairline\twhich AIRLINE\nflight\tbook it\n")
    ds = load_dataset(path)
    assert len(ds) == 3
    assert ds.label_names == ["flight", "airline"]  # first-appearance order
    assert ds.samples[0][0].words == ("show", "me", "flights")
    assert [label for _, label in ds.samples] == [0, 1, 0]
    assert [sum(label == c for _, label in ds.samples) for c in range(ds.C)] == [2, 1]


def test_load_dataset_fixed_labels(tmp_path):
    path = tmp_path / "train.tsv"
    path.write_text("b\tx y\na\tz\n")
    ds = load_dataset(path, label_names=["a", "b"])
    assert [label for _, label in ds.samples] == [1, 0]
    with pytest.raises(MalformedLineError):
        load_dataset(path, label_names=["a"])


def test_load_dataset_malformed(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("flight show me\n")
    with pytest.raises(MalformedLineError) as exc_info:
        load_dataset(path)
    assert exc_info.value.line == 1


def _load_bytes(tmp_path, data: bytes, label_names=None):
    path = tmp_path / "data.tsv"
    path.write_bytes(data)
    return load_dataset(path, label_names=label_names)


def _samples(ds):
    return [(s.words, label) for s, label in ds.samples]


def _malformed(tmp_path, data: bytes, label_names=None) -> str:
    with pytest.raises(MalformedLineError) as exc_info:
        _load_bytes(tmp_path, data, label_names)
    return str(exc_info.value)


def test_load_dataset_counts_blank_lines_in_line_numbers(tmp_path):
    blank = b"a\tx\n\n   \n\t \n \t\t\n"
    assert _malformed(tmp_path, blank + b"no tab here\n") == (
        "expected label<TAB>text (line 6)"
    )
    ds = _load_bytes(tmp_path, blank + b"b\ty z")  # no final newline
    assert _samples(ds) == [(("x",), 0), (("y", "z"), 1)]


def test_load_dataset_unknown_label_under_fixed_names(tmp_path):
    data = b"b\tx\n\nc\ty\n"
    assert _malformed(tmp_path, data, ["a", "b"]) == "unknown label 'c' (line 3)"
    assert _load_bytes(tmp_path, data).label_names == ["b", "c"]


def test_load_dataset_tab_then_only_spaces_is_empty_text(tmp_path):
    assert _malformed(tmp_path, b"a\tx\nb\t   \n") == "empty label or text (line 2)"
    assert _malformed(tmp_path, b"   \tx\n") == "empty label or text (line 1)"


def test_load_dataset_extra_tabs_split_the_text(tmp_path):
    ds = _load_bytes(tmp_path, b"a\tFoo\tbar\t baz\t\n")
    assert _samples(ds) == [(("foo", "bar", "baz"), 0)]


def test_load_dataset_line_breaks(tmp_path):
    # CRLF and a lone CR end a line; other characters str.splitlines would
    # split on (\x0b, \x1c, U+2028) only separate words
    data = "a\tFoo Bar\r\n\r\nb\tbaz\rb\tq\x0br\x1cs t\r\n".encode()
    ds = _load_bytes(tmp_path, data)
    assert _samples(ds) == [
        (("foo", "bar"), 0),
        (("baz",), 1),
        (("q", "r", "s", "t"), 1),
    ]
    assert _malformed(tmp_path, b"a\tx\r\n\r\nbad\r\n") == "expected label<TAB>text (line 3)"
    assert _malformed(tmp_path, b"a\tx\rbad\r") == "expected label<TAB>text (line 2)"


def test_load_dataset_labels_are_stripped_and_lowercased(tmp_path):
    data = b" Flight \tx\nFLIGHT\ty\nflight\tz\n  AirLine\tw\n\tAirLine \tv\n"
    assert _malformed(tmp_path, data) == "empty label or text (line 5)"
    data = data[: data.rindex(b"\n\t") + 1]
    assert _load_bytes(tmp_path, data).label_names == ["flight", "airline"]
    ds = _load_bytes(tmp_path, data, ["airline", "flight"])
    assert [label for _, label in ds.samples] == [1, 1, 1, 0]
    assert _malformed(tmp_path, data, ["Flight", "airline"]) == "unknown label 'flight' (line 1)"


def test_load_dataset_drops_a_byte_order_mark(tmp_path):
    data = "\ufeffflight\tShow flights\nfare\tcheap fares\n".encode()
    assert _load_bytes(tmp_path, data).label_names == ["flight", "fare"]
    ds = _load_bytes(tmp_path, data, ["fare", "flight"])
    assert _samples(ds) == [(("show", "flights"), 1), (("cheap", "fares"), 0)]


def test_load_dataset_shares_one_string_per_distinct_word(tmp_path):
    first, second = tmp_path / "a.tsv", tmp_path / "b.tsv"
    first.write_text("flight\tShow me the flights\n")
    second.write_text("fare\tflights and FARES\nfare\tthe fares\n")
    (a,), (b, c) = ([s.words for s, _ in load_dataset(p).samples] for p in (first, second))
    assert a[3] == b[0] == "flights" and a[3] is b[0]
    assert a[2] is c[0] and b[2] is c[1]


def test_a_loaded_corpus_holds_one_string_per_distinct_word(tmp_path):
    # 5,000 sentences of 16 words over 200 distinct ones: about 1.4 MB with
    # one string per distinct word, 5.8 MB with each of the 80,000 its own
    rng = random.Random(0)
    vocab = [f"word{i:03d}" for i in range(200)]
    path = tmp_path / "corpus.tsv"
    path.write_text(
        "".join(f"c{i % 18}\t{' '.join(rng.choices(vocab, k=16))}\n" for i in range(5000))
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = load_dataset(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ds) == 5000 and {w for s, _ in ds.samples for w in s.words} <= set(vocab)
    assert held < 2_000_000, f"loading held {held / 1e6:.2f} MB"


def test_load_dataset_empty(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("\n\n")
    with pytest.raises(EmptyDatasetError):
        load_dataset(path)


def test_dataset_roundtrip(tmp_path):
    path = tmp_path / "ds.tsv"
    ds = Dataset(
        [(Sentence.from_text("a b"), 0), (Sentence.from_text("c"), 1)], ["x", "y"]
    )
    write_dataset(ds, path)
    again = load_dataset(path, label_names=["x", "y"])
    assert [(s.words, l) for s, l in again.samples] == [
        (("a", "b"), 0),
        (("c",), 1),
    ]


def test_load_labels(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("Flight\nairline\n\n")
    assert load_labels(path) == ["flight", "airline"]
    dup = tmp_path / "dup.txt"
    dup.write_text("a\na\n")
    with pytest.raises(ValueError):
        load_labels(dup)


def test_load_labels_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_bytes("\ufeffFlight\nfare\n".encode())
    assert load_labels(path) == ["flight", "fare"]


def test_duplicate_label_is_config_error(tmp_path):
    dup = tmp_path / "dup.txt"
    dup.write_text("a\nb\nA\n")
    with pytest.raises(ConfigError, match="duplicate label 'a'"):
        load_labels(dup)


def _balanced_dataset(classes=18, per_class=9):
    samples = []
    names = [f"c{i}" for i in range(classes)]
    for c in range(classes):
        for j in range(per_class):
            samples.append((Sentence.from_text(f"word{c} filler{j}"), c))
    return Dataset(samples, names)


def test_fewshot_counts():
    ds = _balanced_dataset(classes=18, per_class=9)
    subsets = sample_fewshot(ds, FewShotConfig(q=5, seeds=(0,)))
    assert len(subsets) == 1
    assert len(subsets[0]) == 18 * 5


def test_fewshot_q1_and_small_classes():
    ds = _balanced_dataset(classes=4, per_class=2)
    subset = sample_fewshot(ds, FewShotConfig(q=1, seeds=(3,)))[0]
    assert len(subset) == 4
    capped = sample_fewshot(ds, FewShotConfig(q=10, seeds=(3,)))[0]
    assert len(capped) == 8  # min(q, class size) per class


def test_fewshot_subset_no_duplicates_deterministic():
    ds = _balanced_dataset(classes=6, per_class=7)
    config = FewShotConfig(q=3, seeds=(5, 9))
    first = sample_fewshot(ds, config)
    second = sample_fewshot(ds, config)
    originals = {(s.words, l) for s, l in ds.samples}
    for subset_a, subset_b in zip(first, second):
        keys = [(s.words, l) for s, l in subset_a.samples]
        assert len(keys) == len(set(keys))  # no duplicates
        assert set(keys) <= originals  # subset of the training set
        assert keys == [(s.words, l) for s, l in subset_b.samples]  # per-seed determinism
    assert [(s.words, l) for s, l in first[0].samples] != [
        (s.words, l) for s, l in first[1].samples
    ]


def test_fewshot_per_class_counts():
    ds = _balanced_dataset(classes=5, per_class=6)
    subset = sample_fewshot(ds, FewShotConfig(q=4, seeds=(1,)))[0]
    counts = [sum(label == c for _, label in subset.samples) for c in range(subset.C)]
    assert counts == [4] * 5


def test_fewshot_augment_top3():
    samples = []
    names = ["big0", "big1", "big2", "small"]
    for c, size in enumerate((20, 15, 12, 4)):
        for j in range(size):
            samples.append((Sentence.from_text(f"t{c} s{j}"), c))
    ds = Dataset(samples, names)
    subset = sample_fewshot(ds, FewShotConfig(q=2, seeds=(0,), augment_top3=5))[0]
    counts = [sum(label == c for _, label in subset.samples) for c in range(subset.C)]
    assert counts[:3] == [7, 7, 7]  # q + augment for the 3 largest classes
    assert counts[3] == 2
    keys = [(s.words, l) for s, l in subset.samples]
    assert len(keys) == len(set(keys))


def test_fewshot_validation():
    with pytest.raises(ValueError):
        FewShotConfig(q=0, seeds=(1,))
    with pytest.raises(ValueError):
        FewShotConfig(q=1, seeds=())


@pytest.mark.parametrize("q, seeds", [(0, (1,)), (-2, (1,)), (1, ())])
def test_fewshot_settings_are_config_errors(q, seeds):
    with pytest.raises(ConfigError):
        FewShotConfig(q=q, seeds=seeds)


def test_synthetic_shapes_and_balance():
    spec = SyntheticSpec(classes=6, train_size=120, test_size=60, noise=0.0, seed=4)
    train, test, rule_lines = generate_synthetic(spec)
    assert len(train) == 120 and len(test) == 60
    assert train.C == 6 and train.label_names == test.label_names
    assert len(rule_lines) == 6
    assert [sum(label == c for _, label in train.samples) for c in range(train.C)] == [20] * 6


def test_synthetic_noise_free_corpus_is_rule_determined():
    spec = SyntheticSpec(classes=6, train_size=90, test_size=30, noise=0.0, seed=11)
    train, test, rule_lines = generate_synthetic(spec)
    ruleset = parse_rule_lines(rule_lines, known_labels=set(train.label_names))
    mdfas = compile_rules(ruleset)
    assert rule_baseline_accuracy(ruleset, mdfas, train) == 1.0
    assert rule_baseline_accuracy(ruleset, mdfas, test) == 1.0


def test_synthetic_noise_rate():
    spec = SyntheticSpec(classes=6, train_size=600, test_size=60, noise=0.1, seed=2)
    train, _, rule_lines = generate_synthetic(spec)
    ruleset = parse_rule_lines(rule_lines, known_labels=set(train.label_names))
    mdfas = compile_rules(ruleset)
    acc = rule_baseline_accuracy(ruleset, mdfas, train)
    assert 0.85 <= acc <= 0.95  # ~10% of labels flipped


def test_synthetic_determinism():
    spec = SyntheticSpec(seed=8, train_size=50, test_size=20)
    first = generate_synthetic(spec)
    second = generate_synthetic(spec)
    assert [(s.words, l) for s, l in first[0].samples] == [
        (s.words, l) for s, l in second[0].samples
    ]
    assert first[2] == second[2]


@pytest.mark.parametrize("classes", [0, 1, 57])
def test_synthetic_rule_lines_out_of_range_is_a_config_error(classes):
    # 0 gave no rules, 1 one rule, and 57 a bare ValueError
    with pytest.raises(ConfigError, match=f"^classes must be in 2..56, got {classes}$"):
        synthetic_rule_lines(classes)


def test_synthetic_rule_lines_format():
    lines = synthetic_rule_lines(6)
    assert all("\t" in line for line in lines)
    labels = [line.split("\t")[0] for line in lines]
    assert len(set(labels)) == 6


@pytest.mark.parametrize("field, value", [
    ("classes", 0), ("classes", 1), ("classes", 57), ("classes", 99),
    ("train_size", -5), ("test_size", 0),
    ("noise", 1.5), ("noise", -0.5), ("noise", float("nan")), ("seed", -1),
])
def test_synthetic_spec_rejects_out_of_range_fields(field, value):
    # classes 0, 1 and 99 raised ZeroDivisionError or a bare ValueError; the
    # others were accepted, an empty split giving an empty TSV
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        SyntheticSpec(**{field: value})


def test_synthetic_spec_has_only_its_five_settings():
    # the filler vocabulary (40 words) and the gap (1-3 words) are fixed
    assert list(SyntheticSpec.__dataclass_fields__) == [
        "classes", "train_size", "test_size", "noise", "seed"
    ]
    train, _, _ = generate_synthetic(SyntheticSpec(classes=2, train_size=200, test_size=1))
    fillers = {w for s, _ in train.samples for w in s.words if w.startswith("w")}
    assert fillers == {f"w{i:02d}" for i in range(40)}
    assert {s.n for s, _ in train.samples} == set(range(5, 12))


@pytest.mark.parametrize("kwargs, message", [
    ({"seeds": (0, -1)}, "sampling seeds must be >= 0, got -1"),
    ({"augment_top3": -2}, "augment_top3 must be None or >= 0, got -2"),
])
def test_fewshot_config_rejects_negative_values(kwargs, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        FewShotConfig(**{"q": 1, "seeds": (0,), **kwargs})
