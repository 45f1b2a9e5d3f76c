"""Compile word-pattern ASTs into minimal complete DFAs over a word alphabet.

Pipeline: AST -> epsilon-NFA (Thompson construction) -> complete DFA
(subset construction) -> minimal DFA (Hopcroft partition refinement) ->
canonical renumbering (breadth-first from the start state, taking symbols
in ascending id order).

The symbol alphabet is the set of literal words in the pattern plus one
reserved OTHER symbol that stands for every out-of-vocabulary word, so the
transition function is total over an open vocabulary.  `.` (any-word)
transitions cover every symbol including OTHER.  The completed automaton
keeps its dead sink, if reachable, as an ordinary state.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .errors import CapacityExceededError
from .rules import Alternation, AnyWord, Concat, Literal, Opt, Plus, RegexNode, Star

__all__ = [
    "DEFAULT_STATE_BUDGET",
    "Nfa",
    "Dfa",
    "Mdfa",
    "collect_literals",
    "nfa_from_ast",
    "determinize",
    "minimize",
    "compile",
    "to_dot",
]

DEFAULT_STATE_BUDGET = 10_000

OTHER_LABEL = "<other>"


def collect_literals(ast: RegexNode) -> list[str]:
    """All distinct literal words in the AST, sorted for canonical symbol ids."""
    words: set[str] = set()
    stack = [ast]
    while stack:
        node = stack.pop()
        if isinstance(node, Literal):
            words.add(node.word)
        elif isinstance(node, (Concat, Alternation)):
            stack.extend(node.children)
        elif isinstance(node, (Star, Plus, Opt)):
            stack.append(node.child)
    return sorted(words)


@dataclass
class Nfa:
    """Thompson-style epsilon-NFA with one accept state.

    Symbol ids 0..len(symbols)-1 are the sorted literal words; other_id
    (== len(symbols)) is the reserved OTHER symbol.
    """

    symbols: tuple[str, ...]
    other_id: int
    start: int
    accept: int
    eps: list[set[int]] = field(default_factory=list)
    moves: list[dict[int, set[int]]] = field(default_factory=list)

    @property
    def n_states(self) -> int:
        return len(self.eps)


class _NfaBuilder:
    def __init__(self, symbols: tuple[str, ...]):
        self.symbols = symbols
        self.symbol_ids = {word: sid for sid, word in enumerate(symbols)}
        self.other_id = len(symbols)
        self.eps: list[set[int]] = []
        self.moves: list[dict[int, set[int]]] = []

    def new_state(self) -> int:
        self.eps.append(set())
        self.moves.append({})
        return len(self.eps) - 1

    def add_eps(self, src: int, dst: int) -> None:
        self.eps[src].add(dst)

    def add_move(self, src: int, symbol_id: int, dst: int) -> None:
        self.moves[src].setdefault(symbol_id, set()).add(dst)

    def fragment(self, node: RegexNode) -> tuple[int, int]:
        if isinstance(node, Literal):
            start, accept = self.new_state(), self.new_state()
            self.add_move(start, self.symbol_ids[node.word], accept)
            return start, accept
        if isinstance(node, AnyWord):
            start, accept = self.new_state(), self.new_state()
            for sid in range(self.other_id + 1):
                self.add_move(start, sid, accept)
            return start, accept
        if isinstance(node, Concat):
            start, accept = self.fragment(node.children[0])
            for child in node.children[1:]:
                c_start, c_accept = self.fragment(child)
                self.add_eps(accept, c_start)
                accept = c_accept
            return start, accept
        if isinstance(node, Alternation):
            start, accept = self.new_state(), self.new_state()
            for child in node.children:
                c_start, c_accept = self.fragment(child)
                self.add_eps(start, c_start)
                self.add_eps(c_accept, accept)
            return start, accept
        if isinstance(node, Star):
            start, accept = self.new_state(), self.new_state()
            c_start, c_accept = self.fragment(node.child)
            self.add_eps(start, c_start)
            self.add_eps(c_accept, accept)
            self.add_eps(start, accept)
            self.add_eps(c_accept, c_start)
            return start, accept
        if isinstance(node, Plus):
            start, accept = self.new_state(), self.new_state()
            c_start, c_accept = self.fragment(node.child)
            self.add_eps(start, c_start)
            self.add_eps(c_accept, accept)
            self.add_eps(c_accept, c_start)
            return start, accept
        if isinstance(node, Opt):
            start, accept = self.new_state(), self.new_state()
            c_start, c_accept = self.fragment(node.child)
            self.add_eps(start, c_start)
            self.add_eps(c_accept, accept)
            self.add_eps(start, accept)
            return start, accept
        raise TypeError(f"unknown AST node: {node!r}")


def nfa_from_ast(ast: RegexNode, symbols: tuple[str, ...] | None = None) -> Nfa:
    """Build a Thompson epsilon-NFA for the AST."""
    if symbols is None:
        symbols = tuple(collect_literals(ast))
    builder = _NfaBuilder(symbols)
    start, accept = builder.fragment(ast)
    return Nfa(
        symbols=symbols,
        other_id=builder.other_id,
        start=start,
        accept=accept,
        eps=builder.eps,
        moves=builder.moves,
    )


@dataclass
class Dfa:
    """Complete deterministic automaton; may not be minimal yet."""

    symbols: tuple[str, ...]
    other_id: int
    transitions: list[list[int]]  # [state][symbol_id] -> state
    start: int
    finals: set[int]

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    @property
    def n_symbols(self) -> int:
        return self.other_id + 1


def _eps_closure(nfa: Nfa, states: set[int]) -> frozenset[int]:
    closure = set(states)
    stack = list(states)
    while stack:
        s = stack.pop()
        for t in nfa.eps[s]:
            if t not in closure:
                closure.add(t)
                stack.append(t)
    return frozenset(closure)


def determinize(nfa: Nfa, state_budget: int = DEFAULT_STATE_BUDGET) -> Dfa:
    """Subset construction.  The empty subset acts as the dead sink, which
    keeps the transition function total.  Raises CapacityExceededError when
    more than `state_budget` subsets appear.

    Each NFA state's epsilon-closure is computed once, and the closure of a
    set is the union of its members' closures, memoized per distinct raw
    target set.  For each subset one pass over its members' moves groups
    the targets by symbol; a symbol no member moves on goes to the empty
    subset.  New subsets are numbered in breadth-first order, taking
    symbols in ascending id order.
    """
    n_symbols = nfa.other_id + 1
    state_closures = [_eps_closure(nfa, {s}) for s in range(nfa.n_states)]
    empty: frozenset[int] = frozenset()
    closures: dict[frozenset[int], frozenset[int]] = {}
    start_set = state_closures[nfa.start]
    ids: dict[frozenset[int], int] = {start_set: 0}
    order = [start_set]
    transitions: list[list[int]] = []
    queue = deque([start_set])
    while queue:
        subset = queue.popleft()
        moved: dict[int, set[int]] = {}
        for s in subset:
            for sid, dsts in nfa.moves[s].items():
                targets = moved.get(sid)
                if targets is None:
                    moved[sid] = set(dsts)
                else:
                    targets.update(dsts)
        row = []
        for sid in range(n_symbols):
            targets = moved.get(sid)
            if targets is None:
                target_set = empty
            else:
                key = frozenset(targets)
                target_set = closures.get(key)
                if target_set is None:
                    target_set = empty.union(*(state_closures[t] for t in key))
                    closures[key] = target_set
            tid = ids.get(target_set)
            if tid is None:
                if len(ids) >= state_budget:
                    raise CapacityExceededError(
                        f"determinization exceeded {state_budget} states"
                    )
                tid = ids[target_set] = len(ids)
                order.append(target_set)
                queue.append(target_set)
            row.append(tid)
        transitions.append(row)
    finals = {ids[s] for s in order if nfa.accept in s}
    return Dfa(
        symbols=nfa.symbols,
        other_id=nfa.other_id,
        transitions=transitions,
        start=0,
        finals=finals,
    )


def _hopcroft_blocks(
    n: int, n_symbols: int, transitions: list[list[int]], finals: set[int]
) -> dict[int, frozenset[int]]:
    """Coarsest partition of states into language-equivalence classes.

    Returns a map state -> block (frozenset of states).
    """
    final_block = frozenset(s for s in range(n) if s in finals)
    other_block = frozenset(s for s in range(n) if s not in finals)
    partition = {b for b in (final_block, other_block) if b}
    block_of = {}
    for block in partition:
        for s in block:
            block_of[s] = block
    if len(partition) <= 1:
        return block_of

    # predecessor lists per symbol
    pre: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(n_symbols)]
    for s in range(n):
        row = transitions[s]
        for sid in range(n_symbols):
            pre[sid][row[sid]].append(s)

    worklist = set(partition)
    while worklist:
        splitter = worklist.pop()
        for sid in range(n_symbols):
            pre_sid = pre[sid]
            hits: set[int] = set()
            for target in splitter:
                hits.update(pre_sid[target])
            if not hits:
                continue
            affected: dict[frozenset[int], set[int]] = {}
            for s in hits:
                affected.setdefault(block_of[s], set()).add(s)
            for block, overlap in affected.items():
                if len(overlap) == len(block):
                    continue
                part_in = frozenset(overlap)
                part_out = block - part_in
                partition.remove(block)
                partition.add(part_in)
                partition.add(part_out)
                for s in part_in:
                    block_of[s] = part_in
                for s in part_out:
                    block_of[s] = part_out
                if block in worklist:
                    worklist.remove(block)
                    worklist.add(part_in)
                    worklist.add(part_out)
                else:
                    # smaller half suffices to stay O(n log n)
                    worklist.add(part_in if len(part_in) <= len(part_out) else part_out)
    return block_of


@dataclass(frozen=True)
class Mdfa:
    """Minimal complete DFA with canonical state indices.

    State 0 is the start state; the remaining indices follow breadth-first
    discovery order with symbols taken in ascending id order, which makes
    two compilations of the same AST byte-identical.
    """

    symbols: tuple[str, ...]
    other_id: int
    transitions: tuple[tuple[int, ...], ...]
    start: int
    finals: frozenset[int]
    dead: int | None

    @property
    def state_count(self) -> int:
        return len(self.transitions)

    @property
    def n_symbols(self) -> int:
        return self.other_id + 1

    @cached_property
    def _symbol_ids(self) -> dict[str, int]:
        return {word: sid for sid, word in enumerate(self.symbols)}

    def symbol_id(self, word: str) -> int:
        """Symbol id for a word; unknown words map to OTHER."""
        return self._symbol_ids.get(word, self.other_id)

    def is_final(self, state: int) -> bool:
        return state in self.finals

    def step(self, state: int, word: str) -> int:
        """Transition on one word; total, unknown words go through OTHER."""
        return self.transitions[state][self.symbol_id(word)]

    def fingerprint(self) -> str:
        """Stable hash of the canonical tables, for cache coherence checks."""
        payload = json.dumps(
            {
                "symbols": list(self.symbols),
                "transitions": [list(row) for row in self.transitions],
                "start": self.start,
                "finals": sorted(self.finals),
                "dead": self.dead,
            },
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def minimize(dfa: Dfa) -> Mdfa:
    """Hopcroft minimization followed by canonical breadth-first renumbering.

    Unreachable states (possible in hand-built inputs) are dropped; the
    result is the unique minimal automaton of the reachable language.
    """
    block_of = _hopcroft_blocks(dfa.n_states, dfa.n_symbols, dfa.transitions, dfa.finals)

    # canonical BFS over the quotient automaton
    reps: list[int] = []  # representative original state per new index
    index_of: dict[frozenset[int], int] = {}
    start_block = block_of[dfa.start]
    index_of[start_block] = 0
    reps.append(next(iter(start_block)))
    queue = deque([start_block])
    while queue:
        block = queue.popleft()
        rep = next(iter(block))
        for sid in range(dfa.n_symbols):
            target_block = block_of[dfa.transitions[rep][sid]]
            if target_block not in index_of:
                index_of[target_block] = len(reps)
                reps.append(next(iter(target_block)))
                queue.append(target_block)

    transitions = tuple(
        tuple(
            index_of[block_of[dfa.transitions[rep][sid]]]
            for sid in range(dfa.n_symbols)
        )
        for rep in reps
    )
    finals = frozenset(i for i, rep in enumerate(reps) if rep in dfa.finals)
    dead = None
    for state, row in enumerate(transitions):
        if state not in finals and all(t == state for t in row):
            dead = state
            break
    return Mdfa(
        symbols=dfa.symbols,
        other_id=dfa.other_id,
        transitions=transitions,
        start=0,
        finals=finals,
        dead=dead,
    )


def compile(ast: RegexNode, state_budget: int = DEFAULT_STATE_BUDGET) -> Mdfa:
    """AST -> minimal complete DFA with canonical indexing."""
    return minimize(determinize(nfa_from_ast(ast), state_budget=state_budget))


def to_dot(mdfa: Mdfa, name: str = "mdfa") -> str:
    """GraphViz DOT text for debugging; edges grouped per state pair."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  __start [shape=point label=""];']
    for state in range(mdfa.state_count):
        shape = "doublecircle" if state in mdfa.finals else "circle"
        label = f"{state} (dead)" if state == mdfa.dead else str(state)
        lines.append(f'  {state} [shape={shape} label="{label}"];')
    lines.append(f"  __start -> {mdfa.start};")
    for src, row in enumerate(mdfa.transitions):
        grouped: dict[int, list[str]] = {}
        for sid, dst in enumerate(row):
            word = mdfa.symbols[sid] if sid < mdfa.other_id else OTHER_LABEL
            grouped.setdefault(dst, []).append(word)
        for dst, words in grouped.items():
            label = ", ".join(words)
            lines.append(f'  {src} -> {dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
