"""Turn state traces into numeric rule features.

Two encodings per (sentence, rule) pair:

* instance-level: a 0/1 vector over the rule's automaton states, the
  element-wise max of the one-hot vectors of the visited states (so it is
  the indicator of visited states).  Computed for rejecting traces too,
  unless gating is requested.
* word-level: one 0/1 tag per word.  Tags are all zero unless the rule
  accepts the sentence; on acceptance the consumed prefix is tagged 1 and
  any words after the early stop stay 0.

`RuleMatcher` computes both for a whole rule set at once: it stacks every
rule's automaton into one transition table and advances all of them
together, one array lookup per word.  `run_trace` with `encode_instance`
and `encode_word_tags` is the one-rule path it must agree with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .automata import Mdfa
from .matching import (
    Sentence,
    Trace,
    run_trace,  # noqa: F401 - bench/tracer.py patches rulefuse.encoding.run_trace
)
from .rules import RuleSet

__all__ = [
    "InstanceFeature",
    "WordTagSeq",
    "RuleMatcher",
    "encode_instance",
    "encode_word_tags",
    "encode_all",
    "feature_record",
]


@dataclass(frozen=True)
class InstanceFeature:
    rule_id: int
    values: np.ndarray  # float64, shape (m_k,), entries 0.0 or 1.0


@dataclass(frozen=True)
class WordTagSeq:
    rule_id: int
    tags: np.ndarray  # float64, shape (n,), entries 0.0 or 1.0


def encode_instance(trace: Trace, m_k: int, gate: bool = False) -> InstanceFeature:
    """Indicator vector of the states visited by the trace.

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
    return InstanceFeature(trace.rule_id, values)


def encode_word_tags(trace: Trace, n: int) -> WordTagSeq:
    """Accept-gated binary tags: ones on the consumed prefix, zero otherwise."""
    if trace.consumed > n:
        raise ValueError(
            f"trace consumed {trace.consumed} words but the sentence has {n}"
        )
    tags = np.zeros(n, dtype=np.float64)
    if trace.accepted:
        tags[: trace.consumed] = 1.0
    return WordTagSeq(trace.rule_id, tags)


class RuleMatcher:
    """Every rule's automaton in one table, stepped together per sentence.

    Built once per (rule set, automata).  Each literal word of any rule
    gets a global word id, and one more id stands for every other word;
    `symbols[g, k]` is rule k's local symbol id for global word g.  Rule
    k's states are rows `bounds[k] .. bounds[k + 1] - 1` of one
    `(m_total, max n_symbols)` table of global state ids, so a vector of
    the p current states advances with one fancy index per word.  The
    tables hold native index integers (`np.intp`): indexing with them
    skips a cast on every step.
    """

    def __init__(self, ruleset: RuleSet, mdfas: list[Mdfa]):
        if len(mdfas) != ruleset.p:
            raise ValueError(f"expected {ruleset.p} automata, got {len(mdfas)}")
        self.rule_ids = [rule.rule_id for rule in ruleset.rules]
        self.bounds = [0, *itertools.accumulate(m.state_count for m in mdfas)]
        self.m_total = self.bounds[-1]
        words = sorted({word for m in mdfas for word in m.symbols})
        self.word_ids = {word: g for g, word in enumerate(words)}
        self.other = len(words)
        self.symbols = np.empty((len(words) + 1, len(mdfas)), dtype=np.intp)
        self.table = np.zeros(
            (self.m_total, max((m.n_symbols for m in mdfas), default=1)), dtype=np.intp
        )
        self.final = np.zeros(self.m_total, dtype=bool)
        for k, (mdfa, base) in enumerate(zip(mdfas, self.bounds)):
            self.symbols[:, k] = mdfa.other_id
            for sid, word in enumerate(mdfa.symbols):
                self.symbols[self.word_ids[word], k] = sid
            self.table[base : base + mdfa.state_count, : mdfa.n_symbols] = (
                np.array(mdfa.transitions, dtype=np.intp) + base
            )
            self.final[[base + s for s in mdfa.finals]] = True
        self.start = np.array(
            [base + m.start for m, base in zip(mdfas, self.bounds)], dtype=np.intp
        )

    def run(
        self, sentence: Sentence, full_match: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """States, words consumed and acceptance of every rule (see run_trace).

        Returns the `(n, p)` global state after each word, which keeps
        stepping past a rule's early stop, the `(p,)` number of words each
        rule consumed, and the `(p,)` acceptance flags.
        """
        n = sentence.n
        if n == 0:
            return (
                np.empty((0, len(self.start)), dtype=np.intp),
                np.zeros(len(self.start), dtype=np.int64),
                self.final[self.start],
            )
        gids = [self.word_ids.get(word, self.other) for word in sentence.words]
        syms = self.symbols[gids]
        table = self.table
        states = np.empty(syms.shape, dtype=np.intp)
        state = self.start
        for i, row in enumerate(syms):
            state = states[i] = table[state, row]
        if full_match:
            return states, np.full(len(state), n, dtype=np.int64), self.final[state]
        hit = self.final[states]
        accepted = hit.any(axis=0)
        consumed = np.where(accepted, hit.argmax(axis=0) + 1, n)
        return states, consumed, accepted

    def encode(
        self, sentence: Sentence, gate_instance: bool = False, full_match: bool = False
    ) -> tuple[list[InstanceFeature], list[WordTagSeq]]:
        """Both feature kinds for every rule, in rule order.

        Equal, bit for bit, to `run_trace` followed by `encode_instance`
        and `encode_word_tags` per rule; the returned features are views
        into one `(m_total,)` indicator and one `(p, n)` tag matrix.
        """
        states, consumed, accepted = self.run(sentence, full_match=full_match)
        visited = np.arange(sentence.n)[:, None] < consumed
        if gate_instance:
            visited &= accepted
        indicator = np.zeros(self.m_total, dtype=np.float64)
        indicator[states[visited]] = 1.0
        tags = (visited & accepted).T.astype(np.float64, order="C")
        instances = [
            InstanceFeature(rule_id, indicator[lo:hi])
            for rule_id, lo, hi in zip(self.rule_ids, self.bounds, self.bounds[1:])
        ]
        tag_seqs = [WordTagSeq(rule_id, row) for rule_id, row in zip(self.rule_ids, tags)]
        return instances, tag_seqs

    def record(
        self,
        sentence: Sentence,
        label: str,
        gate_instance: bool = False,
        full_match: bool = False,
    ) -> dict:
        """JSON-serializable record of a sentence's features (0/1 as ints)."""
        instances, tag_seqs = self.encode(
            sentence, gate_instance=gate_instance, full_match=full_match
        )
        return {
            "text": sentence.text(),
            "label": label,
            "instance": [[int(v) for v in feat.values] for feat in instances],
            "tags": [[int(t) for t in seq.tags] for seq in tag_seqs],
        }


def encode_all(
    ruleset: RuleSet,
    mdfas: list[Mdfa],
    sentence: Sentence,
    gate_instance: bool = False,
    full_match: bool = False,
) -> tuple[list[InstanceFeature], list[WordTagSeq]]:
    """Both feature kinds for every rule, in rule order (see RuleMatcher)."""
    return RuleMatcher(ruleset, mdfas).encode(
        sentence, gate_instance=gate_instance, full_match=full_match
    )


def feature_record(
    ruleset: RuleSet,
    mdfas: list[Mdfa],
    sentence: Sentence,
    label: str,
    gate_instance: bool = False,
    full_match: bool = False,
) -> dict:
    """JSON-serializable record of a sentence's features (0/1 as ints)."""
    return RuleMatcher(ruleset, mdfas).record(
        sentence, label, gate_instance=gate_instance, full_match=full_match
    )
