"""Seeded stand-in for the ATIS rule setup of Luo et al. (ACL 2018).

The real ATIS rules are not in the repository, so this module builds a
rules file and a corpus with the same shape: 18 intent labels, 3 rules per
label (54 in all), and sentences of 6-25 words.  Rules mix `( . )*`
keyword gaps, synonym alternations, optional words and bounded `( . )?`
windows; the windows after a leading gap are what makes subset
construction produce many more states than the minimal automaton keeps.

About two thirds of the sentences are instantiated from a random rule (a
random expansion of its pattern, padded with trailing filler words) and
carry that rule's label; the rest are filler with a random label.  So
accepting traces, rejecting traces and the early stop all occur.
Everything is a function of the seed.
"""

from __future__ import annotations

import random

LABELS = (
    "flight", "airfare", "ground_service", "airline", "abbreviation",
    "aircraft", "flight_time", "quantity", "distance", "city", "airport",
    "ground_fare", "capacity", "flight_no", "meal", "restriction",
    "cheapest", "day_name",
)
COMMON = (
    "show", "me", "list", "give", "what", "are", "the", "flights", "from",
    "to", "on", "please", "i", "want", "would", "like", "a", "all", "which",
    "is", "of", "in", "at", "for", "and", "do", "you", "have", "need", "how",
)
SHARED_VOCAB = 150   # keyword pool the labels draw from, with overlaps
WORDS_PER_LABEL = 10
MIN_LEN, MAX_LEN = 6, 25


# One template per rule slot of a label.  Capital letters are distinct
# keywords of the label, x and y are optional common lead-in words.  The
# structure is fixed and only the words vary with the seed, so the cost of
# compiling and tracing is about the same for every seed.
TEMPLATES = (
    "( . )* ( A | B | C ) ( . )? ( . )? x ? D ( . )* E",
    "( . )* ( A | B | C | D ) ( . )? ( . )? ( . )? y ? E ( . )* F",
    "( . )* x ? ( A | B ) ( . )* ( C | D ) ( . )? ( . )? y ? E",
)


class _Gen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        pool = [f"v{i:03d}" for i in range(SHARED_VOCAB)]
        self.words = {label: self.rng.sample(pool, WORDS_PER_LABEL) for label in LABELS}
        self.fillers = list(COMMON) + pool[: SHARED_VOCAB // 3] + [
            f"oov{i}" for i in range(20)
        ]

    def pattern(self, label: str, template: str) -> str:
        keywords = iter(self.rng.sample(self.words[label], 6))
        out = []
        for token in template.split():
            if token in ("x", "y"):
                out.append(self.rng.choice(COMMON))
            elif token.isupper():
                out.append(next(keywords))
            else:
                out.append(token)
        return " ".join(out)


def generate_rules(seed: int) -> list[str]:
    """54 `label<TAB>pattern` lines, 3 per label, in label-major order."""
    gen = _Gen(seed)
    return [
        f"{label}\t{gen.pattern(label, template)}"
        for label in LABELS
        for template in TEMPLATES
    ]


def _expand(node, rng: random.Random, fillers: list[str]) -> list[str]:
    from rulefuse.rules import Alternation, AnyWord, Concat, Literal, Opt, Plus, Star

    if isinstance(node, Literal):
        return [node.word]
    if isinstance(node, AnyWord):
        return [rng.choice(fillers)]
    if isinstance(node, Concat):
        return [w for child in node.children for w in _expand(child, rng, fillers)]
    if isinstance(node, Alternation):
        return _expand(rng.choice(node.children), rng, fillers)
    if isinstance(node, Opt):
        return _expand(node.child, rng, fillers) if rng.random() < 0.5 else []
    low = 1 if isinstance(node, Plus) else 0
    assert isinstance(node, (Star, Plus))
    return [w for _ in range(rng.randint(low, 3)) for w in _expand(node.child, rng, fillers)]


def generate_corpus(seed: int, rule_lines: list[str], size: int) -> list[tuple[str, str, int]]:
    """`size` (label, text, source rule index or -1 for filler) triples."""
    from rulefuse.rules import parse_rule_lines

    rules = parse_rule_lines(rule_lines).rules
    gen = _Gen(seed)
    rng = random.Random(seed * 7919 + 1)
    vocab = gen.fillers + [w for label in LABELS for w in gen.words[label]]
    corpus = []
    while len(corpus) < size:
        length = rng.randint(MIN_LEN, MAX_LEN)
        if rng.random() < 2 / 3:
            k = rng.randrange(len(rules))
            words = _expand(rules[k].ast, rng, gen.fillers)
            if not words or len(words) > length:
                continue
            words += [rng.choice(gen.fillers) for _ in range(length - len(words))]
            corpus.append((rules[k].label, " ".join(words), k))
        else:
            words = [rng.choice(vocab) for _ in range(length)]
            corpus.append((rng.choice(LABELS), " ".join(words), -1))
    return corpus
