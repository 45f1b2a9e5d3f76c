"""Independent oracles for cross-checking the compiled automata.

Nothing here reuses the package's NFA/DFA pipeline:

* `match_ends` is a backtracking position-set matcher over the AST.
* `DerivativeDfa` builds a complete DFA by symbol derivatives of a
  normalized copy of the pattern, an entirely different construction.
* `moore_minimal_count` is table-filling equivalence-class counting.
* `oracle_follow_determinize` computes positions, first, last and follow
  sets of the pattern as frozensets and runs the follow-set subset
  construction on them, for table-for-table comparison with the
  package's bitset `nfa_from_ast` + `determinize`.
* `oracle_thompson` + `oracle_determinize` are the Thompson epsilon-NFA
  and full-subset construction that `compile` used before the position
  automaton; with `oracle_minimize` (frozenset Hopcroft refinement) they
  form an independent reference pipeline whose `Mdfa` must equal
  `compile`'s byte for byte.
* `oracle_lstm` steps both LSTM directions in the direction-major layout
  with a separate sigmoid and `tanh` per step, for a byte-for-byte
  check of the model's time-leading, one-`tanh` `_lstm_forward`.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

import numpy as np

from rulefuse.rules import (
    Alternation,
    AnyWord,
    Concat,
    Literal,
    Opt,
    Plus,
    RegexNode,
    Star,
)

OOV = "zzz-oov"  # never used as a literal by the generators below


# ---------------------------------------------------------------------------
# backtracking matcher

def match_ends(ast: RegexNode, words: tuple[str, ...], start: int = 0) -> frozenset[int]:
    """All positions where a match beginning at `start` can end."""
    memo: dict[tuple[int, int], frozenset[int]] = {}

    def go(node: RegexNode, pos: int) -> frozenset[int]:
        key = (id(node), pos)
        if key in memo:
            return memo[key]
        if isinstance(node, Literal):
            out = frozenset([pos + 1]) if pos < len(words) and words[pos] == node.word else frozenset()
        elif isinstance(node, AnyWord):
            out = frozenset([pos + 1]) if pos < len(words) else frozenset()
        elif isinstance(node, Concat):
            positions = {pos}
            for child in node.children:
                nxt: set[int] = set()
                for p in positions:
                    nxt.update(go(child, p))
                positions = nxt
                if not positions:
                    break
            out = frozenset(positions)
        elif isinstance(node, Alternation):
            acc: set[int] = set()
            for child in node.children:
                acc.update(go(child, pos))
            out = frozenset(acc)
        elif isinstance(node, Star):
            reached = {pos}
            frontier = {pos}
            while frontier:
                nxt = set()
                for p in frontier:
                    for e in go(node.child, p):
                        if e not in reached:
                            reached.add(e)
                            nxt.add(e)
                frontier = nxt
            out = frozenset(reached)
        elif isinstance(node, Plus):
            first = go(node.child, pos)
            reached = set(first)
            frontier = set(first)
            while frontier:
                nxt = set()
                for p in frontier:
                    for e in go(node.child, p):
                        if e not in reached:
                            reached.add(e)
                            nxt.add(e)
                frontier = nxt
            out = frozenset(reached)
        elif isinstance(node, Opt):
            out = frozenset({pos}) | go(node.child, pos)
        else:
            raise TypeError(node)
        memo[key] = out
        return out

    return go(ast, start)


def oracle_full_match(ast: RegexNode, words: tuple[str, ...]) -> bool:
    """Classical whole-sequence membership."""
    return len(words) in match_ends(ast, words)


def oracle_earlystop_accepts(ast: RegexNode, words: tuple[str, ...]) -> bool:
    """The documented trace semantics: an empty sentence is accepted iff the
    language contains the empty sequence; otherwise some non-empty prefix
    must be in the language."""
    ends = match_ends(ast, words)
    if not words:
        return 0 in ends
    return any(k in ends for k in range(1, len(words) + 1))


# ---------------------------------------------------------------------------
# derivative-based DFA (independent construction) + Moore minimization

_EMPTY = ("empty",)
_EPS = ("eps",)
_ANY = ("any",)


def _r_lit(word: str):
    return ("lit", word)


def _r_cat(parts):
    flat = []
    for part in parts:
        if part == _EMPTY:
            return _EMPTY
        if part == _EPS:
            continue
        if part[0] == "cat":
            flat.extend(part[1])
        else:
            flat.append(part)
    if not flat:
        return _EPS
    if len(flat) == 1:
        return flat[0]
    return ("cat", tuple(flat))


def _r_alt(parts):
    flat = []
    for part in parts:
        if part == _EMPTY:
            continue
        if part[0] == "alt":
            flat.extend(part[1])
        else:
            flat.append(part)
    uniq = sorted(set(flat))
    if not uniq:
        return _EMPTY
    if len(uniq) == 1:
        return uniq[0]
    return ("alt", tuple(uniq))


def _r_star(part):
    if part in (_EMPTY, _EPS):
        return _EPS
    if part[0] == "star":
        return part
    return ("star", part)


def normalize(node: RegexNode):
    """Package AST -> the oracle's own normalized form."""
    if isinstance(node, Literal):
        return _r_lit(node.word)
    if isinstance(node, AnyWord):
        return _ANY
    if isinstance(node, Concat):
        return _r_cat([normalize(c) for c in node.children])
    if isinstance(node, Alternation):
        return _r_alt([normalize(c) for c in node.children])
    if isinstance(node, Star):
        return _r_star(normalize(node.child))
    if isinstance(node, Plus):
        inner = normalize(node.child)
        return _r_cat([inner, _r_star(inner)])
    if isinstance(node, Opt):
        return _r_alt([_EPS, normalize(node.child)])
    raise TypeError(node)


def _nullable(r) -> bool:
    if r == _EPS:
        return True
    if r in (_EMPTY, _ANY) or r[0] == "lit":
        return False
    if r[0] == "star":
        return True
    if r[0] == "cat":
        return all(_nullable(p) for p in r[1])
    if r[0] == "alt":
        return any(_nullable(p) for p in r[1])
    raise TypeError(r)


def _derive(r, word: str):
    if r in (_EMPTY, _EPS):
        return _EMPTY
    if r == _ANY:
        return _EPS
    kind = r[0]
    if kind == "lit":
        return _EPS if r[1] == word else _EMPTY
    if kind == "star":
        return _r_cat([_derive(r[1], word), r])
    if kind == "cat":
        head, tail = r[1][0], r[1][1:]
        rest = _r_cat(list(tail))
        branches = [_r_cat([_derive(head, word), rest])]
        if _nullable(head):
            branches.append(_derive(rest, word))
        return _r_alt(branches)
    if kind == "alt":
        return _r_alt([_derive(p, word) for p in r[1]])
    raise TypeError(r)


class DerivativeDfa:
    """Complete DFA over (sorted literals + OOV) built by derivatives."""

    def __init__(self, ast: RegexNode, literals: list[str]):
        self.symbols = list(literals) + [OOV]
        root = normalize(ast)
        self.ids = {root: 0}
        states = [root]
        self.transitions: list[list[int]] = []
        queue = deque([root])
        while queue:
            state = queue.popleft()
            row = []
            for word in self.symbols:
                nxt = _derive(state, word)
                if nxt not in self.ids:
                    self.ids[nxt] = len(states)
                    states.append(nxt)
                    queue.append(nxt)
                row.append(self.ids[nxt])
            self.transitions.append(row)
        self.finals = {i for i, s in enumerate(states) if _nullable(s)}
        self.n_states = len(states)


def moore_minimal_count(n_states: int, transitions: list[list[int]], finals: set[int]) -> int:
    """Number of equivalence classes by iterated signature refinement."""
    labels = [1 if s in finals else 0 for s in range(n_states)]
    while True:
        signatures = {}
        new_labels = []
        for s in range(n_states):
            sig = (labels[s], tuple(labels[t] for t in transitions[s]))
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_labels.append(signatures[sig])
        if new_labels == labels:
            return len(signatures)
        labels = new_labels


def minimal_state_count(ast: RegexNode, literals: list[str]) -> int:
    dfa = DerivativeDfa(ast, literals)
    return moore_minimal_count(dfa.n_states, dfa.transitions, dfa.finals)


# ---------------------------------------------------------------------------
# random pattern / sentence generation

def random_ast(rng: random.Random, depth: int, alphabet: tuple[str, ...] = ("a", "b", "c")) -> RegexNode:
    """Random AST of the given maximum depth over a small literal alphabet."""
    if depth <= 0:
        return AnyWord() if rng.random() < 0.2 else Literal(rng.choice(alphabet))
    roll = rng.random()
    if roll < 0.30:
        return AnyWord() if rng.random() < 0.2 else Literal(rng.choice(alphabet))
    if roll < 0.55:
        k = rng.choice((2, 2, 3))
        return Concat(tuple(random_ast(rng, depth - 1, alphabet) for _ in range(k)))
    if roll < 0.75:
        k = rng.choice((2, 2, 3))
        return Alternation(tuple(random_ast(rng, depth - 1, alphabet) for _ in range(k)))
    if roll < 0.85:
        return Star(random_ast(rng, depth - 1, alphabet))
    if roll < 0.93:
        return Plus(random_ast(rng, depth - 1, alphabet))
    return Opt(random_ast(rng, depth - 1, alphabet))


def sentences_up_to(tokens: list[str], max_len: int):
    """Every word tuple of length 0..max_len over the token set."""
    for length in range(max_len + 1):
        yield from itertools.product(tokens, repeat=length)


# ---------------------------------------------------------------------------
# finite-difference gradient oracle

def batch_loss(params, batch) -> float:
    """Mean cross-entropy computed through the public forward only."""
    from rulefuse.model import forward

    total = 0.0
    for item in batch:
        record = forward(params, item.sentence, item.feats)
        total += -float(np.log(record.y[item.label]))
    return total / len(batch)


def max_grad_relative_error(params, batch, eps: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference grads.

    Relative error uses a 1e-3 magnitude floor so finite-difference noise
    on near-zero entries does not register.
    """
    from rulefuse.model import loss_and_grads

    _, grads = loss_and_grads(params, batch)
    worst = 0.0
    for name, arr in params.tensors().items():
        grad = grads[name]
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            loss_plus = batch_loss(params, batch)
            flat[i] = orig - eps
            loss_minus = batch_loss(params, batch)
            flat[i] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            analytic = grad.reshape(-1)[i]
            denom = max(abs(analytic), abs(numeric), 1e-3)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def padded_items(sentences, labels, rows):
    """A `PaddedItems` from per-sentence feature rows: `(m_total,)` state
    indicators, stacked, or `(n, p)` tag matrices, zero-padded to the
    longest sentence.  No rows (the `nnsc` case) give no feature array."""
    from rulefuse.model import PaddedItems

    feats = None
    if rows and rows[0].ndim == 1:
        feats = np.array(rows)
    elif rows:
        feats = np.zeros((len(rows), max(len(tags) for tags in rows), rows[0].shape[1]))
        for b, tags in enumerate(rows):
            feats[b, : len(tags)] = tags
    return PaddedItems(sentences, labels, feats)


def random_model_case(seed: int, variant: str):
    """Small random (params, batch) pair for gradient checking; the batch
    is a `PaddedItems`."""
    from rulefuse.matching import Sentence
    from rulefuse.model import ModelParams, UNK

    rng = np.random.default_rng(seed)
    d, h, C, p = 4, 3, 3, 2
    m_sizes = [int(rng.integers(2, 5)) for _ in range(p)]
    m_total = sum(m_sizes)
    words = ["red", "green", "blue", "cyan", "plum"]
    vocab = {UNK: 0}
    for w in words:
        vocab[w] = len(vocab)
    params = ModelParams.init(
        variant, vocab, d=d, h=h, C=C, p=p, m_total=m_total, seed=seed
    )
    sentences, labels, rows = [], [], []
    for _ in range(int(rng.integers(1, 3))):
        n = int(rng.integers(1, 6))
        sentence = Sentence(
            tuple(rng.choice(words + ["oovword"]) for _ in range(n))
        )
        sentences.append(sentence)
        labels.append(int(rng.integers(0, C)))
        if variant == "instance":
            rows.append(np.concatenate(
                [rng.integers(0, 2, size=m_sizes[k]).astype(float) for k in range(p)]
            ))
        elif variant == "word":
            rows.append(np.stack(
                [rng.integers(0, 2, size=n).astype(float) for _ in range(p)], axis=1
            ))
    return params, padded_items(sentences, labels, rows)


def oracle_lstm(Xd: np.ndarray, wx: np.ndarray, wh: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hidden states (2, T, B, h) of both LSTM directions, one step at a time.

    `Xd` is direction-major, (2, T, B, d_in), the backward direction
    already reversed within each sentence's length.  Gates are i, f, o, g:
    sigmoid(z) = 0.5 * (1 + tanh(z / 2)) for i, f and o, and a separate
    tanh(z) for g, on unscaled weights.
    """
    Zx = Xd @ wx[:, None]
    Zx += b[:, None, None]
    D, T, B, four_h = Zx.shape
    hdim = four_h // 4
    hs = np.empty((D, T, B, hdim))
    h = np.zeros((D, B, hdim))
    c = np.zeros((D, B, hdim))
    for t in range(T):
        z = Zx[:, t] + h @ wh
        s = 0.5 * (1.0 + np.tanh(z[..., : 3 * hdim] / 2))
        g = np.tanh(z[..., 3 * hdim :])
        c = s[..., hdim : 2 * hdim] * c + s[..., :hdim] * g
        h = s[..., 2 * hdim :] * np.tanh(c)
        hs[:, t] = h
    return hs


# ---------------------------------------------------------------------------
# reference follow-set construction (positions as frozensets)

def oracle_follow_determinize(ast: RegexNode) -> tuple[list[list[int]], set[int], int]:
    """(transitions, finals, start) of the breadth-first follow-set subset
    construction on the pattern's position automaton.

    Positions are the `Literal`/`AnyWord` leaves, numbered from 1 in
    left-to-right order.  follow(p) is built from the textbook definition:
    within a concatenation, a last position of child i is followed by the
    first positions of child j > i when every child between them is
    nullable; under `*` and `+` a last position of the child is followed
    by the child's first positions.  A DFA state is (positions that can be
    read next, whether the positions just read include a last one); the
    start state is (first, nullable) and (empty, False) is the dead sink.
    States are numbered in discovery order, taking symbols in ascending id
    order (sorted literal words, then OTHER).  There is no state budget.
    """
    label: dict[int, str | None] = {}  # position -> word, None for `.`
    follow: dict[int, set[int]] = {}

    def info(node) -> tuple[bool, frozenset[int], frozenset[int]]:
        if isinstance(node, (Literal, AnyWord)):
            pos = len(label) + 1
            label[pos] = node.word if isinstance(node, Literal) else None
            follow[pos] = set()
            return False, frozenset([pos]), frozenset([pos])
        if isinstance(node, Concat):
            parts = [info(child) for child in node.children]
            for i, (_, _, last_i) in enumerate(parts):
                for j in range(i + 1, len(parts)):
                    for p in last_i:
                        follow[p].update(parts[j][1])
                    if not parts[j][0]:
                        break
            first: set[int] = set()
            for nullable, first_k, _ in parts:
                first |= first_k
                if not nullable:
                    break
            last: set[int] = set()
            for nullable, _, last_k in reversed(parts):
                last |= last_k
                if not nullable:
                    break
            return all(part[0] for part in parts), frozenset(first), frozenset(last)
        if isinstance(node, Alternation):
            parts = [info(child) for child in node.children]
            return (
                any(part[0] for part in parts),
                frozenset().union(*(part[1] for part in parts)),
                frozenset().union(*(part[2] for part in parts)),
            )
        if isinstance(node, (Star, Plus)):
            nullable, first, last = info(node.child)
            for p in last:
                follow[p].update(first)
            return isinstance(node, Star) or nullable, first, last
        if isinstance(node, Opt):
            _, first, last = info(node.child)
            return True, first, last
        raise TypeError(node)

    nullable, first, last = info(ast)
    words = sorted({word for word in label.values() if word is not None})
    start_state = (first, nullable)
    ids = {start_state: 0}
    transitions = []
    queue = deque([start_state])
    finals = set()
    while queue:
        state = queue.popleft()
        if state[1]:
            finals.add(ids[state])
        row = []
        for word in [*words, None]:  # None: OTHER, read only by `.`
            read = {p for p in state[0] if label[p] is None or label[p] == word}
            target = (
                frozenset().union(*(follow[p] for p in read)),
                any(p in last for p in read),
            )
            if target not in ids:
                ids[target] = len(ids)
                queue.append(target)
            row.append(ids[target])
        transitions.append(row)
    return transitions, finals, 0


# ---------------------------------------------------------------------------
# reference Thompson construction (the epsilon-NFA `compile` used to build)

class ThompsonNfa:
    """Thompson-style epsilon-NFA with one accept state.

    Symbol ids 0..len(symbols)-1 are the sorted literal words; other_id
    (== len(symbols)) is the reserved OTHER symbol.  A plain class, not a
    dataclass: `bench/workloads.py` loads this file without registering
    it as a module, which `dataclass` needs.
    """

    def __init__(self, symbols, other_id, start, accept, eps, moves):
        self.symbols: tuple[str, ...] = symbols
        self.other_id: int = other_id
        self.start: int = start
        self.accept: int = accept
        self.eps: list[set[int]] = eps
        self.moves: list[dict[int, set[int]]] = moves

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


def oracle_thompson(ast: RegexNode, symbols: tuple[str, ...] | None = None) -> ThompsonNfa:
    """Build a Thompson epsilon-NFA for the AST."""
    from rulefuse.automata import collect_literals

    if symbols is None:
        symbols = tuple(collect_literals(ast))
    builder = _NfaBuilder(symbols)
    start, accept = builder.fragment(ast)
    return ThompsonNfa(
        symbols=symbols,
        other_id=builder.other_id,
        start=start,
        accept=accept,
        eps=builder.eps,
        moves=builder.moves,
    )


# ---------------------------------------------------------------------------
# reference subset construction (the straightforward per-symbol scan)

def oracle_determinize(nfa) -> tuple[list[list[int]], set[int], int]:
    """(transitions, finals, start) of the breadth-first subset construction.

    For every subset and every symbol it scans every member's moves and
    closes the target set afresh.  The empty subset is the dead sink; new
    subsets are numbered in discovery order, taking symbols in ascending
    id order.  There is no state budget.
    """

    def closure(states: set[int]) -> frozenset[int]:
        out = set(states)
        stack = list(states)
        while stack:
            for t in nfa.eps[stack.pop()]:
                if t not in out:
                    out.add(t)
                    stack.append(t)
        return frozenset(out)

    n_symbols = nfa.other_id + 1
    start_set = closure({nfa.start})
    ids = {start_set: 0}
    order = [start_set]
    transitions = []
    queue = deque([start_set])
    while queue:
        subset = queue.popleft()
        row = []
        for sid in range(n_symbols):
            targets: set[int] = set()
            for s in subset:
                targets.update(nfa.moves[s].get(sid, ()))
            target_set = closure(targets) if targets else frozenset()
            if target_set not in ids:
                ids[target_set] = len(ids)
                order.append(target_set)
                queue.append(target_set)
            row.append(ids[target_set])
        transitions.append(row)
    finals = {ids[s] for s in order if nfa.accept in s}
    return transitions, finals, 0


# ---------------------------------------------------------------------------
# reference Hopcroft minimization (frozenset blocks)

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


def oracle_minimize(dfa):
    """The `Mdfa` of Hopcroft refinement over frozenset blocks, followed by
    breadth-first renumbering from the start state (symbols in ascending id
    order); unreachable states are dropped."""
    from rulefuse.automata import Mdfa

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
