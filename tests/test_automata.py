import importlib.util
import inspect
import random
import re
from pathlib import Path

import pytest

from oracles import (
    OOV,
    minimal_state_count,
    oracle_determinize,
    oracle_earlystop_accepts,
    oracle_follow_determinize,
    oracle_full_match,
    oracle_minimize,
    oracle_thompson,
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
from rulefuse.matching import Sentence, run_trace
from rulefuse.rules import AnyWord, Literal, Star, parse_regex, parse_rule_lines


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


def test_position_automaton_tables():
    # positions: 0 start, 1 `a`, 2 `b`, 3 `.`; symbols a = 0, b = 1, OTHER = 2
    nfa = nfa_from_ast(parse_regex("a b* | ."))
    assert (nfa.symbols, nfa.other_id, nfa.n_states) == (("a", "b"), 2, 4)
    assert nfa.labels == [None, 0, 1, None]
    assert nfa.follow == [0b1010, 0b0100, 0b0100, 0]
    assert nfa.last == 0b1110
    # nullable: the start position itself is in `last`
    assert nfa_from_ast(parse_regex("( a )?")).last == 0b11
    # `a` (read by positions 1 and 3) and `a b*` share a key; key 0, the
    # dead sink, is first reached from that state on `a`
    dfa = determinize(nfa)
    assert dfa.transitions == [[1, 2, 2], [3, 1, 3], [3, 3, 3], [3, 3, 3]]
    assert dfa.finals == {1, 2}


def _check_determinize(ast):
    nfa = nfa_from_ast(ast)
    transitions, finals, start = oracle_follow_determinize(ast)
    dfa = determinize(nfa)
    assert dfa.transitions == transitions, ast
    assert dfa.finals == finals, ast
    assert dfa.start == start
    assert (dfa.symbols, dfa.other_id) == (nfa.symbols, nfa.other_id)


def test_determinize_matches_reference_subset_construction():
    for ast in _reference_cases():
        _check_determinize(ast)


def test_determinize_budget_matches_reference_state_count():
    for ast in _reference_cases()[::4] + [parse_regex(src) for src in ATIS_SHAPED]:
        nfa = nfa_from_ast(ast)
        n_states = len(oracle_follow_determinize(ast)[0])
        for budget in range(1, 7):
            if n_states > budget:
                with pytest.raises(CapacityExceededError):
                    determinize(nfa, state_budget=budget)
            else:
                assert determinize(nfa, state_budget=budget).n_states == n_states


def _reference_dfa(nfa):
    transitions, finals, start = oracle_determinize(nfa)
    return Dfa(nfa.symbols, nfa.other_id, transitions, start, finals)


def _check_compile(ast):
    """compile's Mdfa equals the Thompson + full-subset + Hopcroft reference."""
    mdfa = compile(ast)
    expected = oracle_minimize(_reference_dfa(oracle_thompson(ast)))
    assert mdfa == expected, ast
    assert mdfa.fingerprint() == expected.fingerprint()


def test_compile_matches_thompson_reference_pipeline():
    for ast in _reference_cases():
        _check_compile(ast)


def test_random_asts_match_both_reference_constructions():
    rng = random.Random(1961)
    for _ in range(1000):
        ast = random_ast(rng, depth=rng.choice((1, 2, 3, 4, 5)))
        _check_determinize(ast)
        _check_compile(ast)


def test_minimize_matches_reference_hopcroft():
    for ast in _reference_cases():
        # the follow-set DFA, and the larger Thompson subset DFA with more to merge
        for dfa in (determinize(nfa_from_ast(ast)), _reference_dfa(oracle_thompson(ast))):
            mdfa = minimize(dfa)
            expected = oracle_minimize(dfa)
            assert mdfa == expected, ast
            assert mdfa.fingerprint() == expected.fingerprint()


def test_minimize_matches_reference_on_hand_built_dfas():
    # state 3 is unreachable, and states 1 and 2 are equivalent finals
    unreachable = Dfa(("a",), 1, [[1, 2], [2, 0], [1, 0], [3, 3]], 0, {1, 2, 3})
    all_final = Dfa(("a", "b"), 2, [[1, 2, 0], [1, 1, 2], [0, 2, 1]], 0, {0, 1, 2})
    no_final = Dfa(("a",), 1, [[1, 0], [2, 2], [0, 1]], 0, set())
    single = Dfa((), 0, [[0]], 0, set())
    for dfa in (unreachable, all_final, no_final, single):
        assert minimize(dfa) == oracle_minimize(dfa), dfa
    assert minimize(unreachable).transitions == ((1, 1), (1, 0))
    assert minimize(all_final).finals == frozenset({0})
    assert minimize(all_final).dead is None
    assert minimize(no_final).dead == 0
    assert minimize(no_final).state_count == 1

    # random complete DFAs, many with unreachable or equivalent states
    rng = random.Random(424242)
    for _ in range(300):
        n, n_symbols = rng.randint(1, 14), rng.randint(1, 4)
        transitions = [[rng.randrange(n) for _ in range(n_symbols)] for _ in range(n)]
        finals = {s for s in range(n) if rng.random() < rng.choice((0.0, 0.3, 0.7, 1.0))}
        symbols = tuple("abc"[: n_symbols - 1])
        dfa = Dfa(symbols, n_symbols - 1, transitions, rng.randrange(n), finals)
        assert minimize(dfa) == oracle_minimize(dfa), dfa


def _atis_gen():
    """bench/atis_gen.py: the seeded 54-rule ATIS-shaped rules."""
    path = Path(__file__).resolve().parents[1] / "bench" / "atis_gen.py"
    spec = importlib.util.spec_from_file_location("atis_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compile_matches_reference_pipeline_on_atis_rules():
    atis_gen = _atis_gen()
    n_rules = 0
    for seed in range(3):
        ruleset = parse_rule_lines(
            atis_gen.generate_rules(seed), known_labels=set(atis_gen.LABELS)
        )
        for rule in ruleset.rules:
            _check_compile(rule.ast)
            n_rules += 1
    assert n_rules == 162


def test_atis_rule_state_counts():
    """The 54 seed-0 ATIS-shaped rules: positions, follow-set DFA states and
    minimal states, summed over the rules."""
    atis_gen = _atis_gen()
    ruleset = parse_rule_lines(atis_gen.generate_rules(0), known_labels=set(atis_gen.LABELS))
    assert len(ruleset.rules) == 54
    nfas = [nfa_from_ast(rule.ast) for rule in ruleset.rules]
    dfas = [determinize(nfa) for nfa in nfas]
    assert sum(nfa.n_states for nfa in nfas) == 648
    assert sum(dfa.n_states for dfa in dfas) == 684
    assert sum(minimize(dfa).state_count for dfa in dfas) == 432


def test_nfa_stages_preserve_language():
    ast = parse_regex("( a | b ) b* ( c )?")
    literals = collect_literals(ast)
    mdfa = minimize(determinize(nfa_from_ast(ast)))
    for words in sentences_up_to(literals + [OOV], 4):
        sentence = Sentence(words)
        assert run_trace(mdfa, sentence, full_match=True).accepted == oracle_full_match(ast, words)


def test_random_equivalence_against_backtracking_oracle():
    rng = random.Random(20240811)
    for _ in range(80):
        ast = random_ast(rng, depth=4)
        literals = collect_literals(ast)
        mdfa = compile(ast)
        for words in sentences_up_to(literals + [OOV], 4):
            sentence = Sentence(words)
            assert run_trace(mdfa, sentence).accepted == oracle_earlystop_accepts(ast, words), (
                ast,
                words,
            )
            assert run_trace(mdfa, sentence, full_match=True).accepted == oracle_full_match(
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


# one edge line of `to_dot`, its label a well-formed quoted DOT string
_DOT_EDGE = re.compile(r'  (\d+) -> (\d+) \[label="((?:[^"\\]|\\.)*)"\];')


def test_dot_escapes_quotes_and_backslashes():
    # words went into the quoted labels raw, so `"hi"` ended a label early
    # and `back\slash` read as the DOT escape `\s`
    mdfa = compile(parse_regex('say "hi" back\\slash'))
    lines = to_dot(mdfa, name='rule "1" \\').splitlines()
    assert lines[0] == 'digraph "rule \\"1\\" \\\\" {'
    assert '  0 -> 1 [label="\\"hi\\", back\\\\slash, <other>"];' in lines
    edges = {}
    for line in lines:
        if " -> " in line and not line.startswith("  __start"):
            match = _DOT_EDGE.fullmatch(line)
            assert match, line
            edges[int(match[1]), int(match[2])] = re.sub(r"\\(.)", r"\1", match[3]).split(", ")
    expected = {}
    for src, row in enumerate(mdfa.transitions):
        for sid, dst in enumerate(row):
            word = mdfa.symbols[sid] if sid < mdfa.other_id else "<other>"
            expected.setdefault((src, dst), []).append(word)
    assert edges == expected


@pytest.mark.parametrize("name", ["graph", "Node", "rule 1", "1rule", "règle", ""])
def test_dot_quotes_a_graph_name_that_is_not_a_plain_ascii_identifier(name):
    assert to_dot(compile(parse_regex("a")), name=name).startswith(f'digraph "{name}" {{')


def test_nfa_alphabet_is_collect_literals():
    # nfa_from_ast finds its words in its own walk; the bench's minimality
    # oracle takes its alphabet from collect_literals, so the two must agree
    rng = random.Random(27)
    asts = [random_ast(rng, 4, ("b", "a", "c", "d")) for _ in range(500)]
    atis_gen = _atis_gen()
    for seed in range(3):
        lines = atis_gen.generate_rules(seed)
        asts += [rule.ast for rule in parse_rule_lines(lines, set(atis_gen.LABELS)).rules]
    assert len(asts) == 500 + 162
    for ast in asts:
        assert nfa_from_ast(ast).symbols == tuple(collect_literals(ast)), ast


def test_position_automaton_reads_its_own_literals():
    assert list(inspect.signature(nfa_from_ast).parameters) == ["ast"]
    nfa = nfa_from_ast(parse_regex("b ( a | . ) b"))
    assert nfa.symbols == ("a", "b") and nfa.other_id == 2
