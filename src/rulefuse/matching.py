"""Run sentences through compiled automata and record state traces.

A trace walks the automaton word by word from the start state and, by
default, stops immediately after first entering a final state (so a
pattern acts as a prefix acceptor; anything after the matched prefix is
ignored).  Passing full_match=True disables the early stop and gives
classical whole-sentence membership instead.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .automata import Mdfa

__all__ = ["Sentence", "Trace", "padded_ids", "run_trace"]


@dataclass(frozen=True, slots=True)
class Sentence:
    """An ordered sequence of lowercased words, with no per-instance `__dict__`."""

    words: tuple[str, ...]

    def __post_init__(self):
        if "" in self.words:
            raise ValueError("sentences cannot contain empty words")

    @classmethod
    def from_text(cls, text: str) -> "Sentence":
        """The sentence of `text` lowercased and split on whitespace.

        Each word is interned (`sys.intern`), so every sentence read from
        text, rule literals and checkpoint vocabularies hold one shared
        string per distinct word: a corpus costs one pointer per word, and
        each dict lookup of a word hits by identity on a cached hash.
        """
        # str.split() never yields an empty word, so skip __init__'s check
        sentence = object.__new__(cls)
        object.__setattr__(sentence, "words", tuple(map(sys.intern, text.lower().split())))
        return sentence

    @property
    def n(self) -> int:
        return len(self.words)

    def text(self) -> str:
        return " ".join(self.words)


def padded_ids(
    sentences: Sequence[Sentence], lengths: np.ndarray, table: dict[str, int], default: int
) -> np.ndarray:
    """The `(N, T)` ids `table` gives the words of N sentences of the given
    lengths, T the longest; `default` stands for a word not in `table` and
    fills each row past its sentence's length.  One `map` of `table.get`
    covers every word (an identity hit for words interned by `from_text`)."""
    mask = np.arange(lengths.max(initial=0)) < lengths[:, None]
    ids = np.full(mask.shape, default, dtype=np.intp)
    words = itertools.chain.from_iterable(sentence.words for sentence in sentences)
    ids[mask] = np.fromiter(
        map(table.get, words, itertools.repeat(default)), np.intp, int(lengths.sum())
    )
    return ids


@dataclass(frozen=True)
class Trace:
    """States visited while feeding a sentence through one automaton.

    `visited` holds the target state after each consumed word (the start
    state appears only if some transition re-enters it); `consumed` is the
    number of words fed before stopping.
    """

    visited: tuple[int, ...]
    consumed: int
    accepted: bool


def run_trace(mdfa: Mdfa, sentence: Sentence, full_match: bool = False) -> Trace:
    """Feed the sentence through the automaton and record the state trace.

    Early-stop mode halts right after the first final state is entered; an
    empty sentence is accepted iff the start state is final.  On rejection
    the full trace, dead-state visits included, is retained.
    """
    if sentence.n == 0:
        return Trace((), 0, mdfa.is_final(mdfa.start))
    state = mdfa.start
    visited = []
    accepted = False
    for word in sentence.words:
        state = mdfa.step(state, word)
        visited.append(state)
        if not full_match and mdfa.is_final(state):
            accepted = True
            break
    if full_match:
        accepted = mdfa.is_final(state)
    return Trace(tuple(visited), len(visited), accepted)
