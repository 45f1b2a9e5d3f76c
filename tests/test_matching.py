import dataclasses
import pickle
import random

import numpy as np
import pytest

from oracles import OOV, oracle_earlystop_accepts, oracle_full_match, random_ast
from rulefuse.automata import collect_literals, compile
from rulefuse.matching import Sentence, Trace, padded_ids, run_trace
from rulefuse.rules import AnyWord, Star, parse_regex


def test_sentence_from_text():
    s = Sentence.from_text("Show ME  flights ")
    assert s.words == ("show", "me", "flights")
    assert s.n == 3
    assert s.text() == "show me flights"


def test_sentence_from_text_interns_its_words_and_keeps_its_value_semantics():
    # a directly built sentence keeps the strings it is given; equality,
    # hashing and frozenness do not depend on which strings a sentence holds
    words = tuple("".join(pair) for pair in (("sh", "ow"), ("fli", "ghts")))
    built = Sentence(words)
    parsed, again = Sentence.from_text("SHOW flights"), Sentence.from_text("show FLIGHTS")
    assert all(a is b for a, b in zip(built.words, words))
    assert all(a is b for a, b in zip(parsed.words, again.words))
    assert built == parsed == again and hash(built) == hash(parsed) == hash(again)
    assert parsed != Sentence(words[:1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        parsed.words = words


def test_sentence_rejects_empty_words():
    with pytest.raises(ValueError):
        Sentence(("a", "", "b"))


def test_sentence_has_no_instance_dict_and_keeps_its_value_semantics():
    built, parsed = Sentence(("show", "me")), Sentence.from_text("Show ME")
    for s in (built, parsed):
        assert not hasattr(s, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.words = ("other",)
        # a new name is refused too: FrozenInstanceError (an AttributeError),
        # or on Python 3.11 a TypeError from the slotted class's __setattr__
        with pytest.raises((AttributeError, TypeError)):
            s.extra = 1
        assert s.words == ("show", "me")
    assert built == parsed and hash(built) == hash(parsed)
    assert built != Sentence(("show",)) and len({built, parsed}) == 1
    assert pickle.loads(pickle.dumps(parsed)) == built
    with pytest.raises(ValueError, match="sentences cannot contain empty words"):
        Sentence(("",))


def test_trace_through_wildcard_pattern():
    mdfa = compile(parse_regex("from . to ."))
    trace = run_trace(mdfa, Sentence.from_text("from boston to denver"))
    assert trace.consumed == 4
    assert trace.accepted
    assert len(trace.visited) == 4
    assert trace.visited[-1] in mdfa.finals


def test_empty_sentence_against_nonnullable_pattern():
    mdfa = compile(parse_regex("a"))
    trace = run_trace(mdfa, Sentence(()))
    assert trace == Trace((), 0, False)


def test_early_stop_at_first_final():
    mdfa = compile(parse_regex("a"))
    trace = run_trace(mdfa, Sentence.from_text("a b c"))
    assert trace.consumed == 1
    assert trace.accepted
    assert trace.visited == (1,)  # the single final state


def test_universal_pattern_accepts_everything():
    mdfa = compile(Star(AnyWord()))
    assert run_trace(mdfa, Sentence(())).accepted  # start state is final
    assert run_trace(mdfa, Sentence.from_text("anything at all")).accepted


def test_mismatch_goes_to_dead():
    mdfa = compile(parse_regex("a"))
    assert not run_trace(mdfa, Sentence.from_text("b")).accepted


def test_nullable_pattern_does_not_accept_on_start_state_alone():
    # early stop triggers on *entering* a final state, so a nullable
    # pattern still rejects a sentence with no matching non-empty prefix
    mdfa = compile(parse_regex("( a )?"))
    assert run_trace(mdfa, Sentence(())).accepted
    assert not run_trace(mdfa, Sentence.from_text("b")).accepted
    assert run_trace(mdfa, Sentence.from_text("a")).accepted


def test_rejection_keeps_full_trace_with_dead_visits():
    mdfa = compile(parse_regex("a b"))
    trace = run_trace(mdfa, Sentence.from_text("a x y"))
    assert not trace.accepted
    assert trace.consumed == 3
    assert trace.visited[-1] == mdfa.dead
    # dead state absorbs: once entered, every later entry is dead
    first_dead = trace.visited.index(mdfa.dead)
    assert all(s == mdfa.dead for s in trace.visited[first_dead:])


def test_full_match_mode():
    mdfa = compile(parse_regex("a"))
    assert run_trace(mdfa, Sentence.from_text("a"), full_match=True).accepted
    assert not run_trace(mdfa, Sentence.from_text("a b"), full_match=True).accepted
    trace = run_trace(mdfa, Sentence.from_text("a b"), full_match=True)
    assert trace.consumed == 2


def test_random_agreement_with_oracle():
    rng = random.Random(314159)
    for _ in range(100):
        ast = random_ast(rng, depth=4)
        literals = collect_literals(ast)
        tokens = literals + [OOV]
        mdfa = compile(ast)
        n = rng.randint(0, 5)
        words = tuple(rng.choice(tokens) for _ in range(n)) if tokens else ()
        sentence = Sentence(words)
        assert run_trace(mdfa, sentence).accepted == oracle_earlystop_accepts(ast, words)
        full = run_trace(mdfa, sentence, full_match=True).accepted
        assert full == oracle_full_match(ast, words)


def test_early_stop_soundness():
    # whenever a trace accepts, the consumed prefix itself is in the language
    rng = random.Random(1618)
    for _ in range(60):
        ast = random_ast(rng, depth=4)
        mdfa = compile(ast)
        tokens = collect_literals(ast) + [OOV]
        words = tuple(rng.choice(tokens) for _ in range(rng.randint(0, 5)))
        trace = run_trace(mdfa, Sentence(words))
        if trace.accepted:
            assert oracle_full_match(ast, words[: trace.consumed])


def test_monotone_consumption_and_purity():
    rng = random.Random(2718)
    for _ in range(50):
        ast = random_ast(rng, depth=3)
        mdfa = compile(ast)
        tokens = collect_literals(ast) + [OOV]
        words = tuple(rng.choice(tokens) for _ in range(rng.randint(0, 5)))
        sentence = Sentence(words)
        trace = run_trace(mdfa, sentence)
        assert trace.consumed <= sentence.n
        if not trace.accepted:
            assert trace.consumed == sentence.n
        assert run_trace(mdfa, sentence) == trace


def _padded(texts, table, default):
    sentences = [Sentence.from_text(text) for text in texts]
    lengths = np.array([s.n for s in sentences], dtype=np.intp)
    return padded_ids(sentences, lengths, table, default)


def test_padded_ids_give_unknown_words_and_padding_the_default():
    ids = _padded(["a b", "c", "b x a"], {"a": 1, "b": 2, "c": 3}, 9)
    assert ids.dtype == np.intp
    assert ids.tolist() == [[1, 2, 9], [3, 9, 9], [2, 9, 1]]


def test_padded_ids_of_no_sentences_and_of_empty_ones():
    assert _padded([], {"a": 1}, 0).shape == (0, 0)
    empty = _padded(["", "", ""], {"a": 1}, 5)
    assert empty.shape == (3, 0) and empty.dtype == np.intp


def test_padded_ids_of_mixed_lengths_match_a_word_by_word_lookup():
    rng = random.Random(3)
    table = {word: i for i, word in enumerate("abcdef")}
    texts = [" ".join(rng.choice("abcdefgh") for _ in range(rng.randrange(7))) for _ in range(40)]
    ids = _padded(texts, table, 6)
    longest = max(len(text.split()) for text in texts)
    want = [[table.get(w, 6) for w in text.split()] + [6] * (longest - len(text.split()))
            for text in texts]
    assert ids.tolist() == want
