"""Turn state traces into numeric rule features.

Two encodings per (sentence, rule) pair:

* instance-level: a 0/1 vector over the rule's automaton states, the
  element-wise max of the one-hot vectors of the visited states (so it is
  the indicator of visited states).  Computed for rejecting traces too,
  unless gating is requested.
* word-level: one 0/1 tag per word.  Tags are all zero unless the rule
  accepts the sentence; on acceptance the consumed prefix is tagged 1 and
  any words after the early stop stay 0.

`RuleMatcher` computes them for a whole rule set at once: it stacks every
rule's automaton into one flat transition table and advances all of them
together, one array lookup per word, in one stepping loop that all of its
paths share.  Its batched pass, `run_batch`, steps all N x p automata one
word position at a time and keeps only `(N, p)` state between steps (the
words consumed and the acceptance flags), marking visited states straight
into the `(N, m_total)` indicator when asked; no array of every step's
states is built.  `encode_batch` gives a whole dataset's features of both
kinds, for any gate/full-match setting; `state_indicators` and
`word_tags` each give one kind, padded, at the default settings (no
gate, early stop), as the model reads it.  Each calls `run_batch` once.
`encode` gives one sentence's `(m_total,)` state indicator (rule k's
states are the slice `bounds[k]:bounds[k + 1]`) and per-rule
`WordTagSeq`s at the default settings; the indicator is a fresh array,
equal to the sentence's `encode_batch` row.  Tag lists are in rule
order, so entry k belongs to `ruleset.rules[k]`.  Each accepting rule
gets a fresh tag array, and every rejecting rule one `WordTagSeq` shared
by all sentences of that length, whose tags are a read-only zero array.
`run_trace` with `encode_instance` and `encode_word_tags` is the
one-rule path all must agree with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .automata import Mdfa
from .errors import DimensionMismatchError
from .matching import (
    Sentence,
    Trace,
    run_trace,  # noqa: F401 - bench/tracer.py patches rulefuse.encoding.run_trace
)
from .rules import RuleSet

__all__ = [
    "WordTagSeq",
    "RuleMatcher",
    "state_bounds",
    "encode_instance",
    "encode_word_tags",
    "encode_all",
]


@dataclass(frozen=True)
class WordTagSeq:
    tags: np.ndarray  # float64, shape (n,), entries 0.0 or 1.0


def encode_instance(trace: Trace, m_k: int, gate: bool = False) -> np.ndarray:
    """Float64 `(m_k,)` indicator of the states visited by the trace.

    Equivalent to max-pooling the one-hot encodings of the visited states.
    With gate=True a rejecting trace encodes to the zero vector.
    """
    values = np.zeros(m_k, dtype=np.float64)
    if not gate or trace.accepted:
        for state in trace.visited:
            if not 0 <= state < m_k:
                raise IndexError(
                    f"visited state {state} outside automaton with {m_k} states"
                )
            values[state] = 1.0
    return values


def encode_word_tags(trace: Trace, n: int) -> WordTagSeq:
    """Accept-gated binary tags: ones on the consumed prefix, zero otherwise."""
    if trace.consumed > n:
        raise ValueError(
            f"trace consumed {trace.consumed} words but the sentence has {n}"
        )
    tags = np.zeros(n, dtype=np.float64)
    if trace.accepted:
        tags[: trace.consumed] = 1.0
    return WordTagSeq(tags)


def state_bounds(ruleset: RuleSet, mdfas: list[Mdfa]) -> list[int]:
    """The global id of each rule's first state, then `m_total`: rule k's
    states are `bounds[k] .. bounds[k + 1] - 1`.  Raises
    DimensionMismatchError unless there is one automaton per rule."""
    if len(mdfas) != ruleset.p:
        raise DimensionMismatchError(f"expected {ruleset.p} automata, got {len(mdfas)}")
    return [0, *itertools.accumulate(m.state_count for m in mdfas)]


class RuleMatcher:
    """Every rule's automaton in one table, stepped together.

    Built once per (rule set, automata).  Each literal word of any rule
    gets a global word id, and one more id stands for every other word;
    `symbols[g, k]` is rule k's local symbol id for global word g.  Rule
    k's states are global ids `bounds[k] .. bounds[k + 1] - 1`.  Their
    transitions are rows of `width` entries in the one flat table
    `offsets`, and each entry holds the target state's row offset
    (state * width), so a vector of the p current offsets advances with
    one 1-D lookup per word.  The tables hold native index integers
    (`np.intp`): indexing with them skips a cast on every step.  One
    generator, `_steps`, does the stepping for the per-sentence `encode`
    and the batched `run_batch` alike; `run_batch` reads each step's
    `(N, p)` states as they come and keeps none of them.
    """

    def __init__(self, ruleset: RuleSet, mdfas: list[Mdfa]):
        self.bounds = state_bounds(ruleset, mdfas)
        self.m_total = self.bounds[-1]
        words = sorted({word for m in mdfas for word in m.symbols})
        self.word_ids = {word: g for g, word in enumerate(words)}
        self.other = len(words)
        self.symbols = np.empty((len(words) + 1, len(mdfas)), dtype=np.intp)
        self.width = max((m.n_symbols for m in mdfas), default=1)
        table = np.zeros((self.m_total, self.width), dtype=np.intp)
        self.final = np.zeros(self.m_total, dtype=bool)
        for k, (mdfa, base) in enumerate(zip(mdfas, self.bounds)):
            self.symbols[:, k] = mdfa.other_id
            for sid, word in enumerate(mdfa.symbols):
                self.symbols[self.word_ids[word], k] = sid
            table[base : base + mdfa.state_count, : mdfa.n_symbols] = (
                np.array(mdfa.transitions, dtype=np.intp) + base
            )
            self.final[[base + s for s in mdfa.finals]] = True
        self.start = np.array(
            [base + m.start for m, base in zip(mdfas, self.bounds)], dtype=np.intp
        )
        self.offsets = (table * self.width).ravel()
        self.slices = [slice(lo, hi) for lo, hi in zip(self.bounds, self.bounds[1:])]
        # sentence length n -> every rule's tags on rejection: one shared
        # WordTagSeq of a read-only zeros(n)
        self._rejected: dict[int, list[WordTagSeq]] = {}

    def _steps(self, syms: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """The row offsets (global state x `width`) after each step, one array
        per row of `syms`, for rows of `(..., p)` local symbol ids: every rule
        starts in its start state, and step i advances it by row i.  The
        states keep stepping past a rule's early stop.  Each row is
        overwritten, so that a step allocates only the offsets it yields."""
        offsets = self.offsets
        offset = self.start * self.width
        for row in syms:
            row += offset
            offset = offsets[row]
            yield offset

    # Kept for `FeatureCache.features`, which the benchmark's `rules_atis` op calls
    # per sentence: a one-row `encode_batch` is about 5 times slower (README).
    def encode(self, sentence: Sentence) -> tuple[np.ndarray, list[WordTagSeq]]:
        """Both feature kinds for every rule at the default settings (no gate,
        early stop): the fresh `(m_total,)` float64 state indicator, equal
        to the sentence's `encode_batch` row, and the rules' tags in order.

        Equal, bit for bit, to `run_trace` followed by `encode_instance`
        (split at `bounds`) and `encode_word_tags` per rule.  An accepting
        rule gets a fresh writeable tag array; every rejecting rule gets the
        one `WordTagSeq` shared by all sentences of the same length, whose
        tags are a read-only zero array.  The tag list is fresh on every
        call.
        """
        n = sentence.n
        syms = self.symbols[[self.word_ids.get(word, self.other) for word in sentence.words]]
        states = np.empty(syms.shape, dtype=np.intp)
        for i, offset in enumerate(self._steps(syms)):
            states[i] = offset
        states //= self.width
        hit = self.final[states]
        # an empty sentence visits no state and has no tags, so it counts as
        # rejected by every rule here, even one that accepts the empty string
        accepted = hit.any(axis=0)
        consumed = np.where(accepted, hit.argmax(axis=0) + 1 if n else 0, n)
        indicator = np.zeros(self.m_total, dtype=np.float64)
        indicator[states[np.arange(n)[:, None] < consumed]] = 1.0
        rejected = self._rejected.get(n)
        if rejected is None:
            zeros = np.zeros(n, dtype=np.float64)
            zeros.flags.writeable = False
            rejected = self._rejected[n] = [WordTagSeq(zeros)] * len(self.start)
        tag_seqs = rejected.copy()
        for k in accepted.nonzero()[0].tolist():
            tags = np.zeros(n, dtype=np.float64)
            tags[: consumed[k]] = 1.0
            tag_seqs[k] = WordTagSeq(tags)
        return indicator, tag_seqs

    def run_batch(
        self,
        sentences: Sequence[Sentence],
        full_match: bool = False,
        visited: bool = False,
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """Words consumed and acceptance of every rule in N sentences (see
        run_trace), and with `visited` the indicator of the states visited.

        Word ids are mapped once into a time-major `(T, N)` array, by one
        `map` of `word_ids.get` over every word (an identity hit for words
        interned by `Sentence.from_text`, as the rule literals keyed in
        `word_ids` are), and all N x p automata advance together one word
        position at a time; each step reads only that position's `(N, p)`
        local symbols and updates the `(N, p)` words consumed and
        acceptance flags in place.  A
        (sentence, rule) pair consumes a step while the sentence has words
        left and, at the early stop, the rule has not yet accepted; with
        `visited`, each step marks the states of those pairs.  Returns the
        `(N, m_total)` float64 indicator of the visited states (None without
        `visited`; not gated), the `(N, p)` words consumed and the `(N, p)`
        acceptance flags, each row equal to what `run_trace` gives for that
        sentence and rule.
        """
        N, p = len(sentences), len(self.start)
        lengths = np.fromiter((s.n for s in sentences), dtype=np.intp, count=N)
        T = int(lengths.max(initial=0))
        gids = np.full((T, N), self.other, dtype=np.intp)
        words = itertools.chain.from_iterable(s.words for s in sentences)
        gids.T[np.arange(T) < lengths[:, None]] = np.fromiter(
            map(self.word_ids.get, words, itertools.repeat(self.other)),
            dtype=np.intp,
            count=int(lengths.sum()),
        )
        # an empty sentence takes no step: its rules accept iff they start final
        accepted = np.zeros((N, p), dtype=bool)
        accepted[lengths == 0] = self.final[self.start]
        if full_match:
            consumed = np.repeat(lengths[:, None], p, axis=1)
        else:
            consumed = np.zeros((N, p), dtype=np.intp)
        indicator = np.zeros((N, self.m_total), dtype=np.float64) if visited else None
        flat = indicator.reshape(-1) if visited else None
        rows = np.arange(N)[:, None] * self.m_total  # each sentence's first flat index
        state = np.empty((N, p), dtype=np.intp)
        for t, offset in enumerate(self._steps(self.symbols[row] for row in gids)):
            np.floor_divide(offset, self.width, out=state)
            words_left = (t < lengths)[:, None]
            if full_match:
                last = lengths == t + 1
                accepted[last] = self.final[state[last]]
                live = np.broadcast_to(words_left, state.shape)
            else:
                live = words_left & ~accepted
                consumed += live
                accepted |= live & self.final[state]
            if visited:
                state += rows
                flat[state[live]] = 1.0
        return indicator, consumed, accepted

    @staticmethod
    def _tags(
        sentences: Sequence[Sentence], consumed: np.ndarray, accepted: np.ndarray
    ) -> np.ndarray:
        """The `(N, T, p)` float64 tags, T the longest sentence's length: 1 on
        the consumed prefix of an accepting rule, 0 elsewhere and on padding."""
        T = max((s.n for s in sentences), default=0)
        tags = np.empty((len(consumed), T, consumed.shape[1]), dtype=np.float64)
        tagged = np.where(accepted, consumed, 0)[:, None, :]
        return np.less(np.arange(T)[:, None], tagged, out=tags)

    def encode_batch(
        self,
        sentences: Sequence[Sentence],
        gate_instance: bool = False,
        full_match: bool = False,
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Both feature kinds of N sentences, from one `run_batch` pass.

        Returns the `(N, m_total)` float64 state indicator and each
        sentence's `(n, p)` float64 tag matrix (views into one padded
        array).  Row i, split at `bounds`, and tags[i].T equal, bit for bit,
        `run_trace` followed by `encode_instance` (gated as asked) and
        `encode_word_tags` per rule; at the default settings, `encode`'s
        features of sentence i, and the rows of `state_indicators` and
        `word_tags`.
        """
        indicator, consumed, accepted = self.run_batch(sentences, full_match, visited=True)
        if gate_instance:
            owner = np.repeat(np.arange(len(self.start)), np.diff(self.bounds))
            indicator *= accepted[:, owner]
        tags = self._tags(sentences, consumed, accepted)
        return indicator, [tags[i, : s.n] for i, s in enumerate(sentences)]

    def state_indicators(self, sentences: Sequence[Sentence]) -> np.ndarray:
        """The `(N, m_total)` float64 state indicators of N sentences at the
        default settings, the only kind the `instance` variant reads."""
        return self.run_batch(sentences, visited=True)[0]

    def word_tags(self, sentences: Sequence[Sentence]) -> np.ndarray:
        """The `(N, T, p)` float64 tags of N sentences at the default
        settings, T the longest sentence's length and zero past each
        sentence's own: the only kind the `word` variant reads."""
        _, consumed, accepted = self.run_batch(sentences)
        return self._tags(sentences, consumed, accepted)

    def records(
        self,
        sentences: Sequence[Sentence],
        labels: Sequence[str],
        gate_instance: bool = False,
        full_match: bool = False,
    ) -> list[dict]:
        """JSON-serializable record of each sentence's features (0/1 as ints),
        from one `encode_batch` call."""
        indicator, tags = self.encode_batch(
            sentences, gate_instance=gate_instance, full_match=full_match
        )
        return [
            {
                "text": sentence.text(),
                "label": label,
                "instance": [row[part].astype(np.int64).tolist() for part in self.slices],
                "tags": tagmat.T.astype(np.int64).tolist(),
            }
            for sentence, label, row, tagmat in zip(sentences, labels, indicator, tags)
        ]


def encode_all(
    ruleset: RuleSet, mdfas: list[Mdfa], sentence: Sentence
) -> tuple[np.ndarray, list[WordTagSeq]]:
    """One sentence's `(m_total,)` state indicator and per-rule tags (see
    RuleMatcher.encode)."""
    return RuleMatcher(ruleset, mdfas).encode(sentence)
