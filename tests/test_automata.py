import random

import pytest

from oracles import (
    OOV,
    minimal_state_count,
    oracle_determinize,
    oracle_earlystop_accepts,
    oracle_full_match,
    random_ast,
    sentences_up_to,
)
from rulefuse.automata import (
    Dfa,
    collect_literals,
    compile,
    determinize,
    minimize,
    nfa_from_ast,
    to_dot,
)
from rulefuse.errors import CapacityExceededError
from rulefuse.matching import Sentence, accepts
from rulefuse.rules import AnyWord, Literal, Star, parse_regex


def test_single_literal_tables():
    mdfa = compile(Literal("a"))
    assert mdfa.state_count == 3
    assert mdfa.start == 0
    assert sorted(mdfa.finals) == [1]
    assert mdfa.dead == 2
    # start -a-> final, everything else falls into the dead sink
    assert mdfa.transitions == ((1, 2), (2, 2), (2, 2))


def test_literal_plus_star_is_three_states():
    mdfa = compile(parse_regex("a a*"))
    assert mdfa.state_count == 3
    assert mdfa.state_count == minimal_state_count(parse_regex("a a*"), ["a"])


def test_two_letter_words_is_four_states():
    ast = parse_regex("( a | b ) ( a | b )")
    mdfa = compile(ast)
    assert mdfa.state_count == 4
    assert mdfa.state_count == minimal_state_count(ast, ["a", "b"])


def test_universal_language_single_state():
    mdfa = compile(Star(AnyWord()))
    assert mdfa.state_count == 1
    assert mdfa.finals == frozenset({0})
    assert mdfa.dead is None
    assert all(t == 0 for row in mdfa.transitions for t in row)


def test_step_is_total_and_absorbing():
    mdfa = compile(Literal("a"))
    assert mdfa.step(0, "a") == 1
    assert mdfa.step(0, "zzz") == mdfa.dead  # OOV goes to dead
    assert mdfa.step(mdfa.dead, "a") == mdfa.dead
    assert mdfa.step(mdfa.dead, "anything") == mdfa.dead


def test_completeness():
    for src in ("a", "a a*", "( a | b )+ c", "(.)* x"):
        mdfa = compile(parse_regex(src))
        assert len(mdfa.transitions) == mdfa.state_count
        for row in mdfa.transitions:
            assert len(row) == mdfa.n_symbols
            assert all(0 <= t < mdfa.state_count for t in row)


def test_canonical_determinism():
    src = "show me ( the )? ( cheapest | earliest )+ flight (.)*"
    first = compile(parse_regex(src))
    second = compile(parse_regex(src))
    assert first == second
    assert first.fingerprint() == second.fingerprint()


def test_minimize_is_fixed_point():
    mdfa = compile(parse_regex("( a | b )* c"))
    again = minimize(
        Dfa(
            symbols=mdfa.symbols,
            other_id=mdfa.other_id,
            transitions=[list(row) for row in mdfa.transitions],
            start=mdfa.start,
            finals=set(mdfa.finals),
        )
    )
    assert again.transitions == mdfa.transitions
    assert again.finals == mdfa.finals
    assert again.dead == mdfa.dead


def test_capacity_budget():
    with pytest.raises(CapacityExceededError):
        compile(parse_regex("a b c d"), state_budget=2)


# the three rule shapes of the ATIS-style benchmark rules, with fixed words:
# keyword gaps, synonym alternations, optional words and `( . )?` windows
ATIS_SHAPED = (
    "( . )* ( fare | cost | price ) ( . )? ( . )? the ? flight ( . )* denver",
    "( . )* ( lunch | dinner | meal | snack ) ( . )? ( . )? ( . )? me ? served ( . )* boston",
    "( . )* please ? ( cheapest | lowest ) ( . )* ( fare | ticket ) ( . )? ( . )? to ? dallas",
)


def _reference_cases():
    rng = random.Random(31337)
    asts = [random_ast(rng, depth=rng.choice((2, 3, 4, 5))) for _ in range(240)]
    return asts + [parse_regex(src) for src in ATIS_SHAPED]


def test_determinize_matches_reference_subset_construction():
    for ast in _reference_cases():
        nfa = nfa_from_ast(ast)
        transitions, finals, start = oracle_determinize(nfa)
        dfa = determinize(nfa)
        assert dfa.transitions == transitions, ast
        assert dfa.finals == finals, ast
        assert dfa.start == start
        assert (dfa.symbols, dfa.other_id) == (nfa.symbols, nfa.other_id)


def test_determinize_budget_matches_reference_state_count():
    for ast in _reference_cases()[::4] + [parse_regex(src) for src in ATIS_SHAPED]:
        nfa = nfa_from_ast(ast)
        n_states = len(oracle_determinize(nfa)[0])
        for budget in range(1, 7):
            if n_states > budget:
                with pytest.raises(CapacityExceededError):
                    determinize(nfa, state_budget=budget)
            else:
                assert determinize(nfa, state_budget=budget).n_states == n_states


def test_nfa_stages_preserve_language():
    ast = parse_regex("( a | b ) b* ( c )?")
    literals = collect_literals(ast)
    mdfa = minimize(determinize(nfa_from_ast(ast)))
    for words in sentences_up_to(literals + [OOV], 4):
        sentence = Sentence(words)
        assert accepts(mdfa, sentence, full_match=True) == oracle_full_match(ast, words)


def test_random_equivalence_against_backtracking_oracle():
    rng = random.Random(20240811)
    for _ in range(80):
        ast = random_ast(rng, depth=4)
        literals = collect_literals(ast)
        mdfa = compile(ast)
        for words in sentences_up_to(literals + [OOV], 4):
            sentence = Sentence(words)
            assert accepts(mdfa, sentence) == oracle_earlystop_accepts(ast, words), (
                ast,
                words,
            )
            assert accepts(mdfa, sentence, full_match=True) == oracle_full_match(
                ast, words
            ), (ast, words)


def test_random_minimality_against_moore_oracle():
    rng = random.Random(7)
    for _ in range(80):
        ast = random_ast(rng, depth=4)
        literals = collect_literals(ast)
        assert compile(ast).state_count == minimal_state_count(ast, literals)


def test_all_state_pairs_distinguishable():
    rng = random.Random(99)
    for _ in range(40):
        ast = random_ast(rng, depth=3)
        mdfa = compile(ast)
        for s in range(mdfa.state_count):
            for t in range(s + 1, mdfa.state_count):
                assert _distinguishing_suffix_length(mdfa, s, t) is not None


def _distinguishing_suffix_length(mdfa, s, t, max_len=None):
    """BFS over state pairs; None if indistinguishable within max_len."""
    if max_len is None:
        max_len = mdfa.state_count
    seen = {(s, t)}
    frontier = [(s, t)]
    depth = 0
    if mdfa.is_final(s) != mdfa.is_final(t):
        return 0
    while frontier and depth < max_len:
        depth += 1
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


def test_dot_export():
    mdfa = compile(parse_regex("a | b"))
    dot = to_dot(mdfa, name="pair")
    assert dot.startswith("digraph pair {")
    assert "doublecircle" in dot
    assert "<other>" in dot
