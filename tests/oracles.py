"""Independent oracles for cross-checking the compiled automata.

Nothing here reuses the package's NFA/DFA pipeline:

* `match_ends` is a backtracking position-set matcher over the AST.
* `DerivativeDfa` builds a complete DFA by symbol derivatives of a
  normalized copy of the pattern, an entirely different construction.
* `moore_minimal_count` is table-filling equivalence-class counting.
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
        record = forward(params, item.sentence, item.instance_feats, item.word_tags)
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


def random_model_case(seed: int, variant: str):
    """Small random (params, batch) pair for gradient checking."""
    from rulefuse.encoding import InstanceFeature, WordTagSeq
    from rulefuse.matching import Sentence
    from rulefuse.model import ModelParams, TrainItem, UNK

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
    batch = []
    for _ in range(int(rng.integers(1, 3))):
        n = int(rng.integers(1, 6))
        sentence = Sentence(
            tuple(rng.choice(words + ["oovword"]) for _ in range(n))
        )
        label = int(rng.integers(0, C))
        instance_feats = None
        word_tags = None
        if variant == "instance":
            instance_feats = [
                InstanceFeature(k + 1, rng.integers(0, 2, size=m_sizes[k]).astype(float))
                for k in range(p)
            ]
        elif variant == "word":
            word_tags = [
                WordTagSeq(k + 1, rng.integers(0, 2, size=n).astype(float))
                for k in range(p)
            ]
        batch.append(TrainItem(sentence, label, instance_feats, word_tags))
    return params, batch


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
