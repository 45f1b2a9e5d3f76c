"""Compile word-pattern ASTs into minimal complete DFAs over a word alphabet.

Pipeline: AST -> position automaton (Glushkov construction: one NFA state
per word occurrence plus the start, linked by follow sets, no epsilon
moves) -> complete DFA (subset construction keyed on the follow set of
the positions just read and whether one of them ends a match) -> minimal
DFA (Hopcroft partition refinement) -> canonical renumbering
(breadth-first from the start state, taking symbols in ascending id
order).  The state budget counts follow-set DFA states.

The symbol alphabet is the set of literal words in the pattern plus one
reserved OTHER symbol that stands for every out-of-vocabulary word, so the
transition function is total over an open vocabulary.  `.` (any-word)
transitions cover every symbol including OTHER.  The completed automaton
keeps its dead sink, if reachable, as an ordinary state.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
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
_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


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
    """Position (Glushkov) automaton, as int bitsets over positions.

    Position 0 is the start; positions 1.. are the `Literal`/`AnyWord`
    occurrences of the pattern, left to right.  Reading a word moves to a
    position that reads it, so a position's state is entered only on its
    own symbol and no epsilon moves exist.  `labels[p]` is position p's
    symbol id, or None for `.` (any word; also None for the start, which
    reads nothing).  `follow[p]` has bit q set when position q can be read
    right after p; `follow[0]` is the pattern's first set.  `last` has bit
    p set when a match can end at p, bit 0 included when the pattern is
    nullable.  Symbol ids 0..len(symbols)-1 are the sorted literal words;
    other_id (== len(symbols)) is the reserved OTHER symbol.
    """

    symbols: tuple[str, ...]
    other_id: int
    labels: list[int | None]
    follow: list[int]
    last: int

    @property
    def n_states(self) -> int:
        return len(self.follow)


def nfa_from_ast(ast: RegexNode) -> Nfa:
    """Build the position automaton of the AST, over its sorted literals, in
    one walk that records each position's word (None for the start and `.`)
    and links follow sets; the distinct words are then sorted once for the
    symbol ids, the order `collect_literals` gives."""
    words: list[str | None] = [None]
    follow = [0]

    def link(lasts: int, firsts: int) -> None:
        while lasts:  # each position in lasts may be followed by firsts
            low = lasts & -lasts
            follow[low.bit_length() - 1] |= firsts
            lasts ^= low

    def walk(node: RegexNode) -> tuple[bool, int, int]:
        """(nullable, first mask, last mask) of a subpattern."""
        kind = type(node)
        if kind is Literal or kind is AnyWord:
            bit = 1 << len(words)
            words.append(node.word if kind is Literal else None)
            follow.append(0)
            return False, bit, bit
        if kind is Concat:
            nullable, first, last = walk(node.children[0])
            for child in node.children[1:]:
                c_nullable, c_first, c_last = walk(child)
                link(last, c_first)
                if nullable:
                    first |= c_first
                last = last | c_last if c_nullable else c_last
                nullable = nullable and c_nullable
            return nullable, first, last
        if kind is Alternation:
            nullable, first, last = False, 0, 0
            for child in node.children:
                c_nullable, c_first, c_last = walk(child)
                nullable, first, last = nullable or c_nullable, first | c_first, last | c_last
            return nullable, first, last
        if kind is Star or kind is Plus or kind is Opt:
            nullable, first, last = walk(node.child)
            if kind is not Opt:
                link(last, first)
            return nullable or kind is not Plus, first, last
        raise TypeError(f"unknown AST node: {node!r}")

    nullable, follow[0], last = walk(ast)
    symbols = tuple(sorted({word for word in words if word is not None}))
    symbol_ids = {word: sid for sid, word in enumerate(symbols)}
    labels = [symbol_ids.get(word) for word in words]  # get(None) is None
    return Nfa(symbols, len(symbols), labels, follow, last | int(nullable))


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


def determinize(nfa: Nfa, state_budget: int = DEFAULT_STATE_BUDGET) -> Dfa:
    """Follow-set subset construction on the position automaton.

    After reading a word the automaton sits on a set of positions, and the
    future depends only on what it can read next (the OR of their follow
    masks) and whether one of them ends a match (is in `last`).  So a DFA
    state is keyed on the int `follow << 1 | final`; key 0, nothing left
    to read and not final, is the dead sink, which keeps the transition
    function total.  The start state is position 0's key.  Raises
    CapacityExceededError when more than `state_budget` keys appear.

    A row depends only on the follow mask, so keys that share it (one
    final, one not) share one computed row.  On a symbol the successor key
    is the OR of the keys of the positions in the mask that read it, `.`
    positions reading every symbol.  New keys are numbered in breadth-first
    order, taking symbols in ascending id order.
    """
    n_symbols = nfa.other_id + 1
    keys = [f << 1 | (nfa.last >> p & 1) for p, f in enumerate(nfa.follow)]
    reads = list(zip(nfa.labels, keys))  # position -> (symbol id, key)
    order = [keys[0]]
    ids = {order[0]: 0}
    rows: dict[int, list[int]] = {}  # follow mask -> row
    transitions: list[list[int]] = []
    for key in order:  # grows while iterated: breadth-first order
        row = rows.get(key >> 1)
        if row is None:
            targets = [0] * n_symbols
            anywhere = 0
            mask = key >> 1
            while mask:  # each position that may be read next
                low = mask & -mask
                mask ^= low
                sid, target = reads[low.bit_length() - 1]
                if sid is None:
                    anywhere |= target
                else:
                    targets[sid] |= target
            row = rows[key >> 1] = []
            for target in targets:
                target |= anywhere
                tid = ids.get(target)
                if tid is None:
                    if len(ids) >= state_budget:
                        raise CapacityExceededError(
                            f"determinization exceeded {state_budget} states"
                        )
                    tid = ids[target] = len(ids)
                    order.append(target)
                row.append(tid)
        transitions.append(row.copy())
    return Dfa(
        symbols=nfa.symbols,
        other_id=nfa.other_id,
        transitions=transitions,
        start=0,
        finals={i for i, key in enumerate(order) if key & 1},
    )


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

    Blocks of the partition are bitsets of DFA states, with a block index
    per state and a predecessor mask per (symbol, state).  A splitter ORs
    its states' masks once per symbol and examines only the blocks of the
    states it hits; the smaller half of a split block takes a new index
    and joins the worklist, so refinement stays O(k n log n).  Unreachable
    states (possible in hand-built inputs) are dropped; the result is the
    unique minimal automaton of the reachable language.
    """
    n = dfa.n_states
    everything = (1 << n) - 1
    finals_mask = everything & sum(1 << s for s in dfa.finals)
    blocks = [b for b in (finals_mask, everything ^ finals_mask) if b]
    block_of = [len(blocks) - 1 if blocks[-1] >> s & 1 else 0 for s in range(n)]
    if len(blocks) > 1:
        pre = [[0] * n for _ in range(dfa.n_symbols)]  # [symbol][state] -> mask
        for s, row in enumerate(dfa.transitions):
            for pre_sid, t in zip(pre, row):
                pre_sid[t] |= 1 << s
        worklist = {0 if finals_mask.bit_count() <= n // 2 else 1}
        while worklist:
            splitter, states = blocks[worklist.pop()], []
            while splitter:
                low = splitter & -splitter
                splitter ^= low
                states.append(low.bit_length() - 1)
            for pre_sid in pre:
                hits = 0
                for t in states:
                    hits |= pre_sid[t]
                while hits:  # one pass per block the splitter hits
                    b = block_of[(hits & -hits).bit_length() - 1]
                    part_in = blocks[b] & hits
                    part_out = blocks[b] ^ part_in
                    hits ^= part_in
                    if not part_out:
                        continue
                    if part_in.bit_count() > part_out.bit_count():
                        part_in, part_out = part_out, part_in
                    blocks[b] = part_out
                    worklist.add(len(blocks))
                    blocks.append(part_in)
                    while part_in:
                        low = part_in & -part_in
                        part_in ^= low
                        block_of[low.bit_length() - 1] = len(blocks) - 1

    # canonical BFS over the quotient automaton, one representative per block
    reps = [(b & -b).bit_length() - 1 for b in blocks]
    index = [-1] * len(blocks)
    index[block_of[dfa.start]] = 0
    order = [block_of[dfa.start]]
    for b in order:  # grows while iterated: breadth-first order
        for t in dfa.transitions[reps[b]]:
            if index[block_of[t]] < 0:
                index[block_of[t]] = len(order)
                order.append(block_of[t])
    renumber = [index[b] for b in block_of].__getitem__  # DFA state -> MDFA state
    transitions = tuple(tuple(map(renumber, dfa.transitions[reps[b]])) for b in order)
    finals = frozenset(i for i, b in enumerate(order) if blocks[b] & finals_mask)
    dead = None
    for state, row in enumerate(transitions):
        if state not in finals and row.count(state) == len(row):
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


def _dot_string(text: str) -> str:
    """`text` as a quoted DOT string, its `\\` and `"` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(mdfa: Mdfa, name: str = "mdfa") -> str:
    """GraphViz DOT text for debugging; edges grouped per state pair.  The
    graph name is written bare when it is a plain ASCII identifier and no
    DOT keyword, else as a quoted string."""
    bare = re.fullmatch(r"[A-Za-z_]\w*", name, re.ASCII) and name.lower() not in _DOT_KEYWORDS
    graph = name if bare else _dot_string(name)
    lines = [f"digraph {graph} {{", "  rankdir=LR;", '  __start [shape=point label=""];']
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
            lines.append(f"  {src} -> {dst} [label={_dot_string(', '.join(words))}];")
    lines.append("}")
    return "\n".join(lines)
