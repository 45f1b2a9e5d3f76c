import json
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import OOV, random_ast
from rulefuse.encoding import (
    RuleMatcher,
    encode_all,
    encode_instance,
    encode_word_tags,
    feature_record,
)
from rulefuse.experiment import compile_rules
from rulefuse.matching import Sentence, Trace, run_trace
from rulefuse.rules import Rule, RuleSet, parse_regex, parse_rule_lines, unparse


def test_instance_is_indicator_of_visited():
    trace = Trace(1, (1, 2, 2, 3), 4, True)
    feat = encode_instance(trace, 4)
    assert feat.values.tolist() == [0.0, 1.0, 1.0, 1.0]


def test_instance_empty_trace_is_zero():
    feat = encode_instance(Trace(1, (), 0, False), 5)
    assert feat.values.tolist() == [0.0] * 5


def test_instance_saturates():
    feat = encode_instance(Trace(1, (0, 1, 2), 3, False), 3)
    assert feat.values.tolist() == [1.0, 1.0, 1.0]


def test_instance_rejected_trace_still_encoded_by_default():
    feat = encode_instance(Trace(1, (2, 2), 2, False), 3)
    assert feat.values.tolist() == [0.0, 0.0, 1.0]


def test_instance_gate_zeroes_rejections():
    feat = encode_instance(Trace(1, (2, 2), 2, False), 3, gate=True)
    assert feat.values.tolist() == [0.0, 0.0, 0.0]
    kept = encode_instance(Trace(1, (2,), 1, True), 3, gate=True)
    assert kept.values.tolist() == [0.0, 0.0, 1.0]


def test_instance_out_of_range_state():
    with pytest.raises(IndexError):
        encode_instance(Trace(1, (4,), 1, True), 4)


def test_word_tags_prefix_ones():
    seq = encode_word_tags(Trace(1, (1, 2, 3), 3, True), 5)
    assert seq.tags.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]


def test_word_tags_rejected_all_zero():
    seq = encode_word_tags(Trace(1, (1, 2, 2, 2), 4, False), 4)
    assert seq.tags.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_word_tags_full_consumption():
    seq = encode_word_tags(Trace(1, (1, 2, 3, 4), 4, True), 4)
    assert seq.tags.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_word_tags_length_mismatch():
    with pytest.raises(ValueError):
        encode_word_tags(Trace(1, (1, 2, 3), 3, True), 2)


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
    assert [f.rule_id for f in instances] == [1, 2]
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


def test_feature_record_is_json_ints():
    ruleset, mdfas = _tiny_rules()
    record = feature_record(ruleset, mdfas, Sentence.from_text("a b"), "hit")
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
    return Trace(1, visited, consumed, accepted), m_k, n


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
        tuple(Rule(k + 1, f"l{k % 2}", ast, unparse(ast)) for k, ast in enumerate(asts))
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
                    assert [f.rule_id for f in instances] == [r.rule_id for r in ruleset.rules]
                    assert [t.rule_id for t in tag_seqs] == [r.rule_id for r in ruleset.rules]
                    _, _, accepted = matcher.run(sentence, full_match=full)
                    for k, (rule, mdfa) in enumerate(zip(ruleset.rules, mdfas)):
                        trace = run_trace(mdfa, sentence, rule_id=rule.rule_id, full_match=full)
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
