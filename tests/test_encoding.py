import copy
import importlib.util
import inspect
import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import OOV, random_ast
from rulefuse.encoding import (
    RuleMatcher,
    WordTagSeq,
    encode_all,
    encode_instance,
    encode_word_tags,
)
from rulefuse.errors import DimensionMismatchError
from rulefuse.experiment import FeatureCache, compile_rules
from rulefuse.matching import Sentence, Trace, run_trace
from rulefuse.rules import Rule, RuleSet, parse_regex, parse_rule_lines


def test_instance_is_indicator_of_visited():
    trace = Trace((1, 2, 2, 3), 4, True)
    feat = encode_instance(trace, 4)
    assert feat.tolist() == [0.0, 1.0, 1.0, 1.0]


def test_instance_empty_trace_is_zero():
    feat = encode_instance(Trace((), 0, False), 5)
    assert feat.tolist() == [0.0] * 5


def test_instance_saturates():
    feat = encode_instance(Trace((0, 1, 2), 3, False), 3)
    assert feat.tolist() == [1.0, 1.0, 1.0]


def test_instance_rejected_trace_still_encoded_by_default():
    feat = encode_instance(Trace((2, 2), 2, False), 3)
    assert feat.tolist() == [0.0, 0.0, 1.0]


def test_instance_gate_zeroes_rejections():
    feat = encode_instance(Trace((2, 2), 2, False), 3, gate=True)
    assert feat.tolist() == [0.0, 0.0, 0.0]
    kept = encode_instance(Trace((2,), 1, True), 3, gate=True)
    assert kept.tolist() == [0.0, 0.0, 1.0]


def test_instance_out_of_range_state():
    with pytest.raises(IndexError):
        encode_instance(Trace((4,), 1, True), 4)


def test_word_tags_prefix_ones():
    seq = encode_word_tags(Trace((1, 2, 3), 3, True), 5)
    assert seq.tags.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]


def test_word_tags_rejected_all_zero():
    seq = encode_word_tags(Trace((1, 2, 2, 2), 4, False), 4)
    assert seq.tags.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_word_tags_full_consumption():
    seq = encode_word_tags(Trace((1, 2, 3, 4), 4, True), 4)
    assert seq.tags.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_word_tags_length_mismatch():
    with pytest.raises(ValueError):
        encode_word_tags(Trace((1, 2, 3), 3, True), 2)


def _tiny_rules():
    ruleset = parse_rule_lines(
        ["hit\ta (.)*", "miss\tq q q"], known_labels={"hit", "miss"}
    )
    return ruleset, compile_rules(ruleset)


def _batch_row(ruleset, mdfas, sentence):
    """The sentence's `(m_total,)` indicator row from `encode_batch`."""
    return RuleMatcher(ruleset, mdfas).encode_batch([sentence])[0][0]


def _assert_indicator(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_encode_all_empty_ruleset():
    ruleset = parse_rule_lines([])
    sentence = Sentence.from_text("a b")
    indicator, tags = encode_all(ruleset, [], sentence)
    assert indicator.shape == (0,) and tags == []
    _assert_indicator(indicator, _batch_row(ruleset, [], sentence))


def test_encode_all_accept_and_reject_composition():
    ruleset, mdfas = _tiny_rules()
    sentence = Sentence.from_text("a b c")
    indicator, tags = encode_all(ruleset, mdfas, sentence)
    assert tags[0].tags.tolist() == [1.0, 0.0, 0.0]  # early stop after "a"
    assert tags[1].tags.tolist() == [0.0, 0.0, 0.0]  # rejected rule gated off
    _assert_indicator(indicator, _batch_row(ruleset, mdfas, sentence))
    # rejected rule's slice of the indicator still records visited states
    assert indicator[RuleMatcher(ruleset, mdfas).slices[1]].sum() > 0


def test_encode_all_determinism():
    ruleset, mdfas = _tiny_rules()
    sentence = Sentence.from_text("a b a")
    first = encode_all(ruleset, mdfas, sentence)
    second = encode_all(ruleset, mdfas, sentence)
    _assert_indicator(first[0], second[0])
    _assert_indicator(first[0], _batch_row(ruleset, mdfas, sentence))
    for a, b in zip(first[1], second[1]):
        assert np.array_equal(a.tags, b.tags)


def test_encode_all_wrong_mdfa_count():
    ruleset, mdfas = _tiny_rules()
    with pytest.raises(ValueError):
        encode_all(ruleset, mdfas[:1], Sentence.from_text("a"))


def test_feature_cache_wrong_mdfa_count_is_a_dimension_mismatch():
    ruleset, mdfas = _tiny_rules()
    with pytest.raises(DimensionMismatchError, match="expected 2 automata, got 1"):
        FeatureCache(ruleset, mdfas[:1])
    with pytest.raises(ValueError):
        FeatureCache(ruleset, mdfas + mdfas[:1])


def test_changing_returned_instance_lists_leaves_later_results_unchanged():
    ruleset, mdfas = _tiny_rules()
    matcher = RuleMatcher(ruleset, mdfas)
    cache = FeatureCache(ruleset, mdfas)
    for indicator, tags in (
        matcher.encode(Sentence.from_text("a b c")),
        cache.features(Sentence.from_text("a b")),
    ):
        assert indicator.flags.writeable and indicator.flags.owndata
        indicator[:] = 5.0
        tags.reverse()
        tags.append(tags[0])
    # every later sentence visits states the changed indicators stood for
    for text in ("a b c", "a b", "a c c", "c c c", "a b c d", ""):
        sentence = Sentence.from_text(text)
        want_inst = _batch_row(ruleset, mdfas, sentence)
        _, want_tags = RuleMatcher(ruleset, mdfas).encode(sentence)
        for got_inst, got_tags in (matcher.encode(sentence), cache.features(sentence)):
            _assert_indicator(got_inst, want_inst)
            assert len(got_tags) == len(want_tags)
            for got, want in zip(got_tags, want_tags):
                assert got.tags.tobytes() == want.tags.tobytes()


def test_rejecting_rule_tags_are_read_only():
    ruleset, mdfas = _tiny_rules()
    _, tags = RuleMatcher(ruleset, mdfas).encode(Sentence.from_text("a b c"))
    assert not tags[1].tags.flags.writeable
    with pytest.raises(ValueError):
        tags[1].tags[0] = 1.0
    assert tags[1].tags.tolist() == [0.0, 0.0, 0.0]


def test_accepting_rule_tags_are_fresh_writeable_arrays():
    ruleset, mdfas = _tiny_rules()
    matcher = RuleMatcher(ruleset, mdfas)
    sentence = Sentence.from_text("a b c")
    _, first = matcher.encode(sentence)
    _, second = matcher.encode(sentence)
    assert first[0].tags.flags.writeable and first[0].tags.flags.owndata
    assert first[0].tags is not second[0].tags
    first[0].tags[:] = 5.0
    assert second[0].tags.tolist() == [1.0, 0.0, 0.0]


def test_rejecting_rules_share_one_read_only_array_within_a_call_only():
    ruleset = parse_rule_lines(["hit\ta (.)*", "miss\tq q q", "miss\tz"], {"hit", "miss"})
    matcher = RuleMatcher(ruleset, compile_rules(ruleset))
    _, first = matcher.encode(Sentence.from_text("a b c"))
    _, second = matcher.encode(Sentence.from_text("b c b"))
    assert first[1].tags is first[2].tags  # rules 2 and 3 reject "a b c"
    assert not first[1].tags.flags.writeable
    assert first[0].tags is not first[1].tags  # rule 1 accepts it
    assert second[0].tags is second[1].tags is second[2].tags  # every rule rejects
    # a second call of the same length shares nothing with the first
    assert not np.shares_memory(second[1].tags, first[1].tags)
    assert second[1] is not first[1]


def test_encoding_leaves_every_matcher_attribute_as_it_was():
    ruleset, mdfas = _tiny_rules()
    matcher = RuleMatcher(ruleset, mdfas)
    objects = dict(vars(matcher))
    values = copy.deepcopy(objects)
    rng = random.Random(4)
    sentences = [
        Sentence(tuple(rng.choice("a b c q z".split()) for _ in range(rng.randrange(9))))
        for _ in range(100)
    ]
    for sentence in sentences:
        matcher.encode(sentence)
    matcher.run_batch(sentences, visited=True)
    matcher.run_batch(sentences, full_match=True)
    assert vars(matcher).keys() == objects.keys()
    for name, value in vars(matcher).items():
        assert value is objects[name], name
        if isinstance(value, np.ndarray):
            assert value.dtype == values[name].dtype and value.shape == values[name].shape
            assert value.tobytes() == values[name].tobytes(), name
        else:
            assert value == values[name], name


def test_changing_returned_features_leaves_later_results_unchanged():
    ruleset, mdfas = _tiny_rules()
    cache = FeatureCache(ruleset, mdfas)
    _, tags = cache.features(Sentence.from_text("a b c"))
    tags[0].tags[:] = 7.0
    tags[1] = tags[0]
    tags.append(tags[0])
    for text in ("a c c", "c c c", "a b c d"):
        sentence = Sentence.from_text(text)
        got_inst, got_tags = cache.features(sentence)
        _, want_tags = RuleMatcher(ruleset, mdfas).encode(sentence)
        for got, want in zip(got_tags, want_tags):
            assert got.tags.tobytes() == want.tags.tobytes()
        _assert_indicator(got_inst, _batch_row(ruleset, mdfas, sentence))


def test_feature_record_is_json_ints():
    ruleset, mdfas = _tiny_rules()
    [record] = RuleMatcher(ruleset, mdfas).records([Sentence.from_text("a b")], ["hit"])
    blob = json.loads(json.dumps(record))
    assert blob["text"] == "a b"
    assert blob["label"] == "hit"
    assert len(blob["instance"]) == 2 and len(blob["tags"]) == 2
    assert all(v in (0, 1) for vec in blob["instance"] for v in vec)
    assert all(v in (0, 1) for vec in blob["tags"] for v in vec)


@st.composite
def _random_trace(draw):
    m_k = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=0, max_value=8))
    consumed = draw(st.integers(min_value=0, max_value=n))
    visited = tuple(
        draw(st.integers(min_value=0, max_value=m_k - 1)) for _ in range(consumed)
    )
    accepted = draw(st.booleans()) if consumed or n == 0 else False
    return Trace(visited, consumed, accepted), m_k, n


@given(_random_trace())
def test_encoding_properties(case):
    trace, m_k, n = case
    feat = encode_instance(trace, m_k)
    tags = encode_word_tags(trace, n)
    assert set(feat.tolist()) <= {0.0, 1.0}
    assert set(tags.tags.tolist()) <= {0.0, 1.0}
    # indicator-of-visited-states semantics
    assert feat.sum() == len(set(trace.visited))
    for state in range(m_k):
        assert feat[state] == (1.0 if state in trace.visited else 0.0)
    # accept gating and prefix-ones shape
    if not trace.accepted:
        assert not tags.tags.any()
    else:
        assert tags.tags.tolist() == [1.0] * trace.consumed + [0.0] * (n - trace.consumed)


def _random_ruleset(rng: random.Random) -> RuleSet:
    asts = [random_ast(rng, depth=rng.choice((1, 2, 3, 4))) for _ in range(rng.randint(0, 6))]
    if asts and rng.random() < 0.3:
        asts[rng.randrange(len(asts))] = parse_regex("( . )*")
    return RuleSet(
        tuple(Rule(k + 1, f"l{k % 2}", ast) for k, ast in enumerate(asts))
    )


def _assert_equals_traces(matcher, mdfas, sentences):
    """encode_batch and run_batch, split at `bounds`, agree bit for bit with
    `run_trace` + `encode_instance`/`encode_word_tags` per rule under all four
    gate/full-match settings, and per-sentence `encode` does at its defaults:
    its indicator is the whole default `encode_batch` row."""
    assert matcher.m_total == sum(m.state_count for m in mdfas)
    p = len(mdfas)
    for full in (False, True):
        traces = [[run_trace(mdfa, s, full_match=full) for mdfa in mdfas] for s in sentences]
        _, consumed, accepted = matcher.run_batch(sentences, full_match=full)
        assert consumed.shape == accepted.shape == (len(sentences), p)
        for gate in (False, True):
            indicator, tags = matcher.encode_batch(sentences, gate_instance=gate, full_match=full)
            assert indicator.dtype == np.float64
            assert indicator.shape == (len(sentences), matcher.m_total)
            assert len(tags) == len(sentences)
            for i, (sentence, row) in enumerate(zip(sentences, traces)):
                assert tags[i].dtype == np.float64
                assert tags[i].shape == (sentence.n, p)
                for k, (trace, mdfa, part) in enumerate(zip(row, mdfas, matcher.slices)):
                    want_inst = encode_instance(trace, mdfa.state_count, gate=gate)
                    want_tags = encode_word_tags(trace, sentence.n).tags
                    assert indicator[i, part].tobytes() == want_inst.tobytes()
                    assert tags[i][:, k].tobytes() == want_tags.tobytes()
                    assert consumed[i, k] == trace.consumed
                    assert bool(accepted[i, k]) == trace.accepted
    traces = [[run_trace(mdfa, s) for mdfa in mdfas] for s in sentences]
    indicator, _ = matcher.encode_batch(sentences)
    for sentence, row, want_row in zip(sentences, traces, indicator):
        got_row, tag_seqs = matcher.encode(sentence)
        _assert_indicator(got_row, want_row)
        assert len(tag_seqs) == p
        for got_tags, trace, mdfa, part in zip(tag_seqs, row, mdfas, matcher.slices):
            want_inst = encode_instance(trace, mdfa.state_count)
            want_tags = encode_word_tags(trace, sentence.n).tags
            assert got_row[part].tobytes() == want_inst.tobytes()
            assert got_tags.tags.dtype == want_tags.dtype
            assert got_tags.tags.shape == want_tags.shape
            assert got_tags.tags.tobytes() == want_tags.tobytes()


def test_matcher_equals_per_rule_traces_bit_for_bit():
    rng = random.Random(4242)
    tokens = ["a", "b", "c", OOV, "other"]
    for case in range(120):
        ruleset = _random_ruleset(rng)
        if case == 0:  # a rule without literals next to ordinary ones
            ruleset = parse_rule_lines(["x\t( . )*", "y\ta b", "x\t. c ."])
        mdfas = compile_rules(ruleset)
        matcher = RuleMatcher(ruleset, mdfas)
        sentences = [Sentence(())] + [
            Sentence(tuple(rng.choice(tokens) for _ in range(rng.randint(1, 7))))
            for _ in range(12)
        ]
        _assert_equals_traces(matcher, mdfas, sentences)
        # one sentence at a time, as well as all of them in one batch
        for sentence in sentences:
            _assert_equals_traces(matcher, mdfas, [sentence])


def _nullable_rules():
    """Rules whose start state is final, `( a b )*`, `a ?` and `( . )*`, each
    after a rule that is not, so that their start copies sit after other
    rules' states."""
    ruleset = parse_rule_lines(
        ["x\ta b", "y\t( a b )*", "x\tb a", "y\ta ?", "x\tb ( a | b ) b", "y\t( . )*"]
    )
    mdfas = compile_rules(ruleset)
    assert [m.is_final(m.start) for m in mdfas] == [False, True, False, True, False, True]
    return ruleset, mdfas


def test_rules_that_accept_the_empty_sentence_match_like_their_traces():
    # a start state that loops to itself at the early stop would keep such a
    # rule from ever leaving it: "a" would visit the start, not the state after a
    ruleset, mdfas = _nullable_rules()
    matcher = RuleMatcher(ruleset, mdfas)
    sentences = [Sentence.from_text(text) for text in ("", "a", "b a", "a b a b")]
    _assert_equals_traces(matcher, mdfas, sentences)
    for sentence in sentences:
        _assert_equals_traces(matcher, mdfas, [sentence])
    _, consumed, accepted = matcher.run_batch(sentences)
    assert accepted[0].tolist() == [False, True, False, True, False, True]
    assert consumed[1].tolist() == [1, 1, 1, 1, 1, 1]  # "a"'s one word, accepted or not
    assert accepted[1].tolist() == [False, False, False, True, False, True]


def test_a_start_copy_is_never_re_entered_and_final_rows_loop_at_the_early_stop():
    ruleset, mdfas = _nullable_rules()
    matcher = RuleMatcher(ruleset, mdfas)
    width, m_total = matcher.width, matcher.m_total
    nullable = matcher.final[matcher.start]
    rows = m_total + int(nullable.sum())
    plain = matcher.offsets.reshape(rows, width)
    stops = matcher.stops.reshape(rows, width)
    # each nullable rule begins in its own copy row, after every rule's states;
    # the others begin in their start state
    copies = matcher.entry[nullable] // width
    assert copies.tolist() == list(range(m_total, rows))
    assert (matcher.entry[~nullable] == matcher.start[~nullable] * width).all()
    assert plain[copies].tobytes() == plain[matcher.start[nullable]].tobytes()
    # no transition of either table targets a copy row
    assert plain.max() < m_total * width and stops.max() < m_total * width
    for state in range(rows):
        if state < m_total and matcher.final[state]:
            assert (stops[state] == state * width).all(), state
        else:
            assert stops[state].tobytes() == plain[state].tobytes(), state
    flags = matcher.nonfinal.reshape(rows, width)
    assert (flags == flags[:, :1]).all()
    assert flags[:, 0].tolist() == [*(~matcher.final).tolist(), *[True] * len(copies)]


def test_run_batch_does_not_depend_on_input_order():
    ruleset, mdfas = _nullable_rules()
    matcher = RuleMatcher(ruleset, mdfas)
    rng = random.Random(31)
    # many ties under the stable sort, several empty sentences, one longest
    lengths = [3] * 12 + [5] * 9 + [0] * 4 + [1] * 6 + [11]
    sentences = [Sentence(tuple(rng.choice("a b c".split()) for _ in range(n))) for n in lengths]
    for _ in range(5):
        perm = list(range(len(sentences)))
        rng.shuffle(perm)
        shuffled = [sentences[i] for i in perm]
        for full_match in (False, True):
            for visited in (False, True):
                want = matcher.run_batch(sentences, full_match, visited)
                got = matcher.run_batch(shuffled, full_match, visited)
                assert (want[0] is None) == (got[0] is None) == (not visited)
                for g, w in zip(got, want):
                    if w is not None:
                        assert g.dtype == w.dtype and g.shape == w.shape
                        assert g.tobytes() == w[perm].tobytes()


def test_every_matcher_array_is_read_only():
    matcher = RuleMatcher(*_nullable_rules())
    arrays = {name: v for name, v in vars(matcher).items() if isinstance(v, np.ndarray)}
    assert arrays.keys() == {"symbols", "offsets", "stops", "nonfinal", "entry", "final", "start"}
    for name, array in arrays.items():
        assert not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = array[(0,) * array.ndim]
        with pytest.raises(ValueError, match="read-only"):
            array += array[(0,) * array.ndim]


def _atis_gen():
    """bench/atis_gen.py: the seeded 54-rule ATIS-shaped rules and corpus."""
    path = Path(__file__).resolve().parents[1] / "bench" / "atis_gen.py"
    spec = importlib.util.spec_from_file_location("atis_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_batch_encoder_equals_per_sentence_encode():
    rng = random.Random(977)
    tokens = ["a", "b", "c", OOV, "other"]
    for case in range(80):
        ruleset = _random_ruleset(rng)
        if case == 0:
            ruleset = parse_rule_lines(["x\t( . )*", "y\ta b", "x\t. c ."])
        mdfas = compile_rules(ruleset)
        matcher = RuleMatcher(ruleset, mdfas)
        # the longest sentence sits among shorter ones, so most rows are padded
        lengths = [0, 1, 12, 1, 0] + [rng.randint(1, 7) for _ in range(10)]
        rng.shuffle(lengths)
        sentences = [Sentence(tuple(rng.choice(tokens) for _ in range(n))) for n in lengths]
        _assert_equals_traces(matcher, mdfas, sentences)
        _assert_equals_traces(matcher, mdfas, [Sentence(())])
        indicator, tags = matcher.encode_batch([])
        assert indicator.shape == (0, matcher.m_total) and tags == []


def test_batch_encoder_equals_per_sentence_encode_on_atis_rules():
    atis_gen = _atis_gen()
    lines = atis_gen.generate_rules(0)
    ruleset = parse_rule_lines(lines, known_labels=set(atis_gen.LABELS))
    assert ruleset.p == 54
    mdfas = compile_rules(ruleset)
    matcher = RuleMatcher(ruleset, mdfas)
    corpus = atis_gen.generate_corpus(0, lines, 300)
    sentences = [Sentence.from_text(text) for _, text, _ in corpus]
    sentences += [Sentence(()), Sentence((OOV, "zzz")), Sentence(("flights",))]
    _assert_equals_traces(matcher, mdfas, sentences)


def test_encode_equals_batch_row_on_atis_rules():
    atis_gen = _atis_gen()
    lines = atis_gen.generate_rules(0)
    ruleset = parse_rule_lines(lines, known_labels=set(atis_gen.LABELS))
    corpus = atis_gen.generate_corpus(0, lines, 300)
    sentences = [Sentence.from_text(text) for _, text, _ in corpus] + [Sentence(())]
    matcher = RuleMatcher(ruleset, compile_rules(ruleset))
    indicator, tags = matcher.encode_batch(sentences)
    rows = []
    for i, sentence in enumerate(sentences):
        row, tag_seqs = matcher.encode(sentence)
        _assert_indicator(row, indicator[i])
        assert len(tag_seqs) == ruleset.p
        for k, seq in enumerate(tag_seqs):
            assert seq.tags.tobytes() == tags[i][:, k].tobytes()
        rows.append(row)
    # each call returns its own array
    assert len({id(row) for row in rows}) == len(sentences)


def test_feature_records_are_positional():
    # entry k of a feature list belongs to ruleset.rules[k], so no trace or
    # feature record carries a rule id
    assert list(Trace.__dataclass_fields__) == ["visited", "consumed", "accepted"]
    assert list(WordTagSeq.__dataclass_fields__) == ["tags"]
    assert list(inspect.signature(run_trace).parameters) == ["mdfa", "sentence", "full_match"]
    matcher = RuleMatcher(*_tiny_rules())
    assert not hasattr(matcher, "rule_ids")
    # one flat transition table and one stepping loop; the per-sentence path
    # runs at the default settings only and returns the bare indicator
    assert not hasattr(matcher, "table") and not hasattr(matcher, "run")
    assert list(inspect.signature(RuleMatcher.encode).parameters) == ["self", "sentence"]
    assert list(inspect.signature(encode_all).parameters) == ["ruleset", "mdfas", "sentence"]
    assert type(encode_instance(Trace((0,), 1, True), 2)) is np.ndarray
    assert type(matcher.encode(Sentence.from_text("a"))[0]) is np.ndarray


def _many_rules_case(p: int, n_sentences: int, longest: int):
    """p rules of the many-rule shape `( . )* a ( . )? ( b | c ) ( . )* d`, each
    with its own words, and seeded sentences of 3..longest words (one of
    exactly `longest`) of filler and rule words; half of them hold one
    rule's match."""
    ruleset = parse_rule_lines(
        [f"l{k % 18}\t( . )* a{k} ( . )? ( b{k} | c{k} ) ( . )* d{k}" for k in range(p)]
    )
    rng = random.Random(24)
    vocab = [f"{w}{k}" for k in range(p) for w in "abcd"] + [f"w{i}" for i in range(40)]
    sentences = []
    for n in [longest] + [rng.randint(3, longest) for _ in range(n_sentences - 1)]:
        words = [rng.choice(vocab) for _ in range(n)]
        if rng.random() < 0.5:
            k, i = rng.randrange(p), rng.randrange(n - 2)
            j = min(i + rng.randint(1, 2), n - 2)
            words[i], words[j], words[rng.randint(j + 1, n - 1)] = f"a{k}", f"c{k}", f"d{k}"
        sentences.append(Sentence(tuple(words)))
    return RuleMatcher(ruleset, compile_rules(ruleset)), sentences


def _traced_peak(encode, sentences):
    """encode(sentences) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        out = encode(sentences)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_matcher_memory_stays_near_its_output():
    # the matcher steps one word position at a time; a single (T, N, p) intp
    # array, 25 x 400 x 200 x 8 B = 16 MB here, exceeds either margin
    matcher, sentences = _many_rules_case(p=200, n_sentences=400, longest=25)
    every_step_states = 25 * 400 * 200 * np.dtype(np.intp).itemsize
    indicator, peak = _traced_peak(matcher.state_indicators, sentences)
    assert peak < indicator.nbytes + 5e6 < indicator.nbytes + every_step_states
    tags, peak = _traced_peak(matcher.word_tags, sentences)
    assert tags.shape == (400, 25, 200)
    assert peak < 1.25 * tags.nbytes < tags.nbytes + every_step_states
    # about half the sentences hold a match, so the tags are not all zero
    assert (tags.any(axis=(1, 2))).mean() > 0.4
