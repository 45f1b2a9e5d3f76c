import importlib.util
import inspect
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import OOV, random_ast
from rulefuse.encoding import (
    InstanceFeature,
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
    assert feat.values.tolist() == [0.0, 1.0, 1.0, 1.0]


def test_instance_empty_trace_is_zero():
    feat = encode_instance(Trace((), 0, False), 5)
    assert feat.values.tolist() == [0.0] * 5


def test_instance_saturates():
    feat = encode_instance(Trace((0, 1, 2), 3, False), 3)
    assert feat.values.tolist() == [1.0, 1.0, 1.0]


def test_instance_rejected_trace_still_encoded_by_default():
    feat = encode_instance(Trace((2, 2), 2, False), 3)
    assert feat.values.tolist() == [0.0, 0.0, 1.0]


def test_instance_gate_zeroes_rejections():
    feat = encode_instance(Trace((2, 2), 2, False), 3, gate=True)
    assert feat.values.tolist() == [0.0, 0.0, 0.0]
    kept = encode_instance(Trace((2,), 1, True), 3, gate=True)
    assert kept.values.tolist() == [0.0, 0.0, 1.0]


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


def test_encode_all_empty_ruleset():
    ruleset = parse_rule_lines([])
    instances, tags = encode_all(ruleset, [], Sentence.from_text("a b"))
    assert instances == [] and tags == []


def test_encode_all_accept_and_reject_composition():
    ruleset, mdfas = _tiny_rules()
    sentence = Sentence.from_text("a b c")
    instances, tags = encode_all(ruleset, mdfas, sentence)
    assert tags[0].tags.tolist() == [1.0, 0.0, 0.0]  # early stop after "a"
    assert tags[1].tags.tolist() == [0.0, 0.0, 0.0]  # rejected rule gated off
    # rejected rule's instance vector still records visited states
    assert instances[1].values.sum() > 0


def test_encode_all_determinism():
    ruleset, mdfas = _tiny_rules()
    sentence = Sentence.from_text("a b a")
    first = encode_all(ruleset, mdfas, sentence)
    second = encode_all(ruleset, mdfas, sentence)
    for a, b in zip(first[0], second[0]):
        assert np.array_equal(a.values, b.values)
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


def test_instance_values_are_read_only():
    ruleset, mdfas = _tiny_rules()
    instances, _ = RuleMatcher(ruleset, mdfas).encode(Sentence.from_text("a b c"))
    for feature in instances:
        assert feature.values.dtype == np.float64
        assert not feature.values.flags.writeable
        with pytest.raises(ValueError):
            feature.values[0] = 5.0
    assert set(instances[0].values.tolist()) == {0.0, 1.0}


def test_same_visited_states_share_one_instance_feature():
    ruleset, mdfas = _tiny_rules()
    matcher = RuleMatcher(ruleset, mdfas)
    # rule 1 stops early after "a" in all three; rule 2 falls into its sink
    # on the first word and stays there
    first, _ = matcher.encode(Sentence.from_text("a b c"))
    other_words, _ = matcher.encode(Sentence.from_text("a c a"))
    shorter, _ = matcher.encode(Sentence.from_text("a"))
    assert other_words[0] is first[0] and shorter[0] is first[0]
    assert other_words[1] is first[1] and shorter[1] is first[1]
    # a different visited set gets its own feature
    more, _ = matcher.encode(Sentence.from_text("q q"))
    assert more[1] is not first[1] and more[1].values.sum() > first[1].values.sum()
    # the list is fresh on every call even when every entry is shared
    again, _ = matcher.encode(Sentence.from_text("a b c"))
    assert again is not first and all(a is b for a, b in zip(again, first, strict=True))


def test_gated_off_rules_share_one_zero_feature():
    ruleset, mdfas = _tiny_rules()
    matcher = RuleMatcher(ruleset, mdfas)
    texts = ("a b c", "b", "q q", "c a b c", "")
    encoded = [matcher.encode(Sentence.from_text(t), gate_instance=True)[0] for t in texts]
    assert [f.values.any() for f in encoded[0]] == [True, False]  # rule 2 rejects
    zero_2 = encoded[0][1]
    assert not zero_2.values.any() and zero_2.values.shape == (mdfas[1].state_count,)
    assert all(inst[1] is zero_2 for inst in encoded)
    zero_1 = encoded[1][0]  # rule 1 rejects "b": no leading "a"
    assert not zero_1.values.any()
    assert all(inst[0] is zero_1 for inst in encoded[1:])
    # an ungated rejecting trace keeps its visited states
    ungated, _ = matcher.encode(Sentence.from_text("b"))
    assert ungated[0].values.any() and ungated[0] is not zero_1


def test_changing_returned_instance_lists_leaves_later_results_unchanged():
    ruleset, mdfas = _tiny_rules()
    matcher = RuleMatcher(ruleset, mdfas)
    cache = FeatureCache(ruleset, mdfas)
    for instances, tags in (
        matcher.encode(Sentence.from_text("a b c")),
        cache.features(Sentence.from_text("a b")),
    ):
        instances[0], instances[1] = instances[1], instances[0]
        instances.append(instances[0])
        tags.reverse()
    # every later sentence visits states the changed lists' features stand for
    for text in ("a b c", "a b", "a c c", "c c c", "a b c d", ""):
        sentence = Sentence.from_text(text)
        want_inst, want_tags = RuleMatcher(ruleset, mdfas).encode(sentence)
        results = [matcher.encode(sentence)]
        if text != "a b":  # the cache hands back the list it stored for "a b"
            results.append(cache.features(sentence))
        for got_inst, got_tags in results:
            for got, want in zip(got_inst, want_inst):
                assert got.values.tobytes() == want.values.tobytes()
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


def test_same_length_rejections_share_one_tag_sequence():
    ruleset, mdfas = _tiny_rules()
    matcher = RuleMatcher(ruleset, mdfas)
    _, tags_a = matcher.encode(Sentence.from_text("a b c"))
    _, tags_b = matcher.encode(Sentence.from_text("b c b"))
    assert tags_b[1] is tags_a[1]  # rule 2 rejects both
    assert tags_b[0] is not tags_a[0]  # rule 1 accepts only "a b c"
    assert tags_b[0].tags is tags_b[1].tags  # rejecting rules share one array
    _, shorter = matcher.encode(Sentence.from_text("b c"))
    assert shorter[1].tags.shape == (2,) and shorter[1] is not tags_a[1]


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
        want_inst, want_tags = RuleMatcher(ruleset, mdfas).encode(sentence)
        for got, want in zip(got_tags, want_tags):
            assert got.tags.tobytes() == want.tags.tobytes()
        for got, want in zip(got_inst, want_inst):
            assert got.values.tobytes() == want.values.tobytes()


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
    assert set(feat.values.tolist()) <= {0.0, 1.0}
    assert set(tags.tags.tolist()) <= {0.0, 1.0}
    # indicator-of-visited-states semantics
    assert feat.values.sum() == len(set(trace.visited))
    for state in range(m_k):
        assert feat.values[state] == (1.0 if state in trace.visited else 0.0)
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


def test_matcher_equals_per_rule_traces_bit_for_bit():
    rng = random.Random(4242)
    tokens = ["a", "b", "c", OOV, "other"]
    for case in range(120):
        ruleset = _random_ruleset(rng)
        if case == 0:  # a rule without literals next to ordinary ones
            ruleset = parse_rule_lines(["x\t( . )*", "y\ta b", "x\t. c ."])
        mdfas = compile_rules(ruleset)
        matcher = RuleMatcher(ruleset, mdfas)
        assert matcher.m_total == sum(m.state_count for m in mdfas)
        sentences = [Sentence(())] + [
            Sentence(tuple(rng.choice(tokens) for _ in range(rng.randint(1, 7))))
            for _ in range(12)
        ]
        for sentence in sentences:
            for gate in (False, True):
                for full in (False, True):
                    instances, tag_seqs = matcher.encode(
                        sentence, gate_instance=gate, full_match=full
                    )
                    _, _, accepted = matcher.run(sentence, full_match=full)
                    for k, (rule, mdfa) in enumerate(zip(ruleset.rules, mdfas)):
                        trace = run_trace(mdfa, sentence, full_match=full)
                        want_inst = encode_instance(trace, mdfa.state_count, gate=gate)
                        want_tags = encode_word_tags(trace, sentence.n)
                        got_inst, got_tags = instances[k].values, tag_seqs[k].tags
                        assert got_inst.dtype == want_inst.values.dtype
                        assert got_inst.shape == want_inst.values.shape
                        assert got_inst.tobytes() == want_inst.values.tobytes()
                        assert got_tags.dtype == want_tags.tags.dtype
                        assert got_tags.shape == want_tags.tags.shape
                        assert got_tags.tobytes() == want_tags.tags.tobytes()
                        assert bool(accepted[k]) == trace.accepted


def _atis_gen():
    """bench/atis_gen.py: the seeded 54-rule ATIS-shaped rules and corpus."""
    path = Path(__file__).resolve().parents[1] / "bench" / "atis_gen.py"
    spec = importlib.util.spec_from_file_location("atis_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_batch_equals_encode(matcher, sentences):
    """encode_batch and run_batch agree with encode and run, bit for bit."""
    p = len(matcher.start)
    for gate in (False, True):
        for full in (False, True):
            indicator, tags = matcher.encode_batch(sentences, gate_instance=gate, full_match=full)
            assert indicator.dtype == np.float64
            assert indicator.shape == (len(sentences), matcher.m_total)
            assert len(tags) == len(sentences)
            _, consumed, accepted = matcher.run_batch(sentences, full_match=full)
            for i, sentence in enumerate(sentences):
                instances, tag_seqs = matcher.encode(sentence, gate_instance=gate, full_match=full)
                want_u = np.concatenate([f.values for f in instances] + [np.zeros(0)])
                want_tags = np.stack(
                    [seq.tags for seq in tag_seqs] + [np.zeros(sentence.n)], axis=1
                )[:, :p]
                assert indicator[i].tobytes() == want_u.tobytes()
                assert tags[i].dtype == np.float64
                assert tags[i].shape == (sentence.n, p)
                assert tags[i].tobytes() == want_tags.tobytes()
                _, want_consumed, want_accepted = matcher.run(sentence, full_match=full)
                assert consumed[i].tolist() == want_consumed.tolist()
                assert accepted[i].tolist() == want_accepted.tolist()


def test_batch_encoder_equals_per_sentence_encode():
    rng = random.Random(977)
    tokens = ["a", "b", "c", OOV, "other"]
    for case in range(80):
        ruleset = _random_ruleset(rng)
        if case == 0:
            ruleset = parse_rule_lines(["x\t( . )*", "y\ta b", "x\t. c ."])
        matcher = RuleMatcher(ruleset, compile_rules(ruleset))
        # the longest sentence sits among shorter ones, so most rows are padded
        lengths = [0, 1, 12, 1, 0] + [rng.randint(1, 7) for _ in range(10)]
        rng.shuffle(lengths)
        sentences = [Sentence(tuple(rng.choice(tokens) for _ in range(n))) for n in lengths]
        _assert_batch_equals_encode(matcher, sentences)
        _assert_batch_equals_encode(matcher, [Sentence(())])
        indicator, tags = matcher.encode_batch([])
        assert indicator.shape == (0, matcher.m_total) and tags == []


def test_batch_encoder_equals_per_sentence_encode_on_atis_rules():
    atis_gen = _atis_gen()
    lines = atis_gen.generate_rules(0)
    ruleset = parse_rule_lines(lines, known_labels=set(atis_gen.LABELS))
    assert ruleset.p == 54
    matcher = RuleMatcher(ruleset, compile_rules(ruleset))
    corpus = atis_gen.generate_corpus(0, lines, 300)
    sentences = [Sentence.from_text(text) for _, text, _ in corpus]
    sentences += [Sentence(()), Sentence((OOV, "zzz")), Sentence(("flights",))]
    _assert_batch_equals_encode(matcher, sentences)


def test_interned_encode_equals_batch_split_at_bounds_on_atis_rules():
    atis_gen = _atis_gen()
    lines = atis_gen.generate_rules(0)
    ruleset = parse_rule_lines(lines, known_labels=set(atis_gen.LABELS))
    corpus = atis_gen.generate_corpus(0, lines, 300)
    sentences = [Sentence.from_text(text) for _, text, _ in corpus] + [Sentence(())]
    matcher = RuleMatcher(ruleset, compile_rules(ruleset))
    parts = list(zip(matcher.bounds, matcher.bounds[1:]))
    for gate in (False, True):
        for full in (False, True):
            indicator, tags = matcher.encode_batch(sentences, gate_instance=gate, full_match=full)
            features = set()
            for i, sentence in enumerate(sentences):
                instances, tag_seqs = matcher.encode(sentence, gate_instance=gate, full_match=full)
                for feature, (lo, hi) in zip(instances, parts):
                    assert feature.values.dtype == np.float64
                    assert feature.values.shape == (hi - lo,)
                    assert feature.values.tobytes() == indicator[i, lo:hi].tobytes()
                    assert not feature.values.flags.writeable
                    features.add(id(feature))
                for k, seq in enumerate(tag_seqs):
                    assert seq.tags.tobytes() == tags[i][:, k].tobytes()
            # a few visited sets per rule, not one feature per (sentence, rule)
            assert len(features) < len(sentences) * ruleset.p // 10


def test_feature_records_are_positional():
    # entry k of a feature list belongs to ruleset.rules[k], so no trace or
    # feature record carries a rule id
    assert list(Trace.__dataclass_fields__) == ["visited", "consumed", "accepted"]
    assert list(InstanceFeature.__dataclass_fields__) == ["values"]
    assert list(WordTagSeq.__dataclass_fields__) == ["tags"]
    assert list(inspect.signature(run_trace).parameters) == ["mdfa", "sentence", "full_match"]
    assert not hasattr(RuleMatcher(*_tiny_rules()), "rule_ids")
