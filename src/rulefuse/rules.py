"""Word-level regular expressions: AST types, parser, and rules-file loader.

Patterns are built from whole-word literals rather than characters.  A
literal is a maximal run of characters other than whitespace and
`( ) | * + ? .`, and matches exactly one word; `.` matches any single word
(including out-of-vocabulary ones), and `( ) | * + ?` have their usual
meanings.  Metacharacters split words as spaces do: `from st. louis` reads
as `from st . louis` (`st`, any word, `louis`), and `(.)*x` needs no spaces.
Postfix operators bind tightest, then concatenation, then alternation, so
`a b | c` reads as `(a b) | c`.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import RegexSyntaxError, UnknownLabelError

__all__ = [
    "Literal",
    "AnyWord",
    "Concat",
    "Alternation",
    "Star",
    "Plus",
    "Opt",
    "RegexNode",
    "Rule",
    "RuleSet",
    "parse_regex",
    "unparse",
    "load_rules",
    "parse_rule_lines",
]

_METACHARS = "()|*+?."
# a word: a maximal run of characters other than whitespace and metacharacters
_WORD = re.compile(f"[^\\s{re.escape(_METACHARS)}]+")


@dataclass(frozen=True)
class Literal:
    """Matches exactly the given word."""

    word: str

    def __post_init__(self):
        if not _WORD.fullmatch(self.word):
            raise ValueError(f"invalid literal word: {self.word!r}")


@dataclass(frozen=True)
class AnyWord:
    """Matches any single word, in or out of vocabulary."""


@dataclass(frozen=True)
class Concat:
    children: tuple["RegexNode", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("Concat needs at least two children")


@dataclass(frozen=True)
class Alternation:
    children: tuple["RegexNode", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("Alternation needs at least two children")


@dataclass(frozen=True)
class Star:
    child: "RegexNode"


@dataclass(frozen=True)
class Plus:
    child: "RegexNode"


@dataclass(frozen=True)
class Opt:
    child: "RegexNode"


RegexNode = Union[Literal, AnyWord, Concat, Alternation, Star, Plus, Opt]

_POSTFIX = {"*": Star, "+": Plus, "?": Opt}
# a token is one metacharacter or a maximal run of other non-space characters
_TOKEN = re.compile(f"[{re.escape(_METACHARS)}]|{_WORD.pattern}")
# what cannot start an atom: the end token, `|`, `)` and the postfix operators
_NOT_ATOM = ("", "|", ")", *_POSTFIX)


def parse_regex(source: str) -> RegexNode:
    """Parse a word-level pattern into its AST; literals are lowercased and
    interned (`sys.intern`), so they are the very strings that sentences
    read by `Sentence.from_text` hold.

    Raises RegexSyntaxError (with a character offset into `source` as
    written) for unbalanced parentheses, dangling operators, empty groups,
    or an empty pattern.
    """
    # (text, offset) pairs, ending in one end token: ("", len(source))
    tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(source)]
    if not tokens:
        raise RegexSyntaxError("empty pattern", offset=0)
    tokens.append(("", len(source)))
    node, i = _alternation(tokens, 0)
    text, offset = tokens[i]
    if text:  # only `)` can end the top-level alternation before the end token
        raise RegexSyntaxError("unbalanced parenthesis", offset=offset)
    return node


def _alternation(tokens: list, i: int) -> tuple[RegexNode, int]:
    node, i = _concat(tokens, i)
    branches = [node]
    while tokens[i][0] == "|":
        node, i = _concat(tokens, i + 1)
        branches.append(node)
    return (branches[0] if len(branches) == 1 else Alternation(tuple(branches))), i


def _concat(tokens: list, i: int) -> tuple[RegexNode, int]:
    items = []
    while tokens[i][0] not in _NOT_ATOM:
        node, i = _atom(tokens, i)
        while tokens[i][0] in _POSTFIX:
            node, i = _POSTFIX[tokens[i][0]](node), i + 1
        items.append(node)
    if not items:
        text, offset = tokens[i]
        if text in _POSTFIX:
            raise RegexSyntaxError(f"dangling operator {text!r}", offset=offset)
        raise RegexSyntaxError("empty expression", offset=offset)
    return (items[0] if len(items) == 1 else Concat(tuple(items))), i


def _atom(tokens: list, i: int) -> tuple[RegexNode, int]:
    text, offset = tokens[i]
    if text == ".":
        return AnyWord(), i + 1
    if text != "(":
        return Literal(sys.intern(text.lower())), i + 1
    if tokens[i + 1][0] == ")":
        raise RegexSyntaxError("empty group", offset=offset)
    node, i = _alternation(tokens, i + 1)
    if tokens[i][0] != ")":
        raise RegexSyntaxError("unbalanced parenthesis", offset=offset)
    return node, i + 1


def unparse(node: RegexNode) -> str:
    """Render an AST back to pattern text that reparses to the same tree."""
    if isinstance(node, Literal):
        return node.word
    if isinstance(node, AnyWord):
        return "."
    for op, kind in _POSTFIX.items():
        if isinstance(node, kind):
            return _grouped(node.child, (Concat, Alternation)) + op
    if isinstance(node, Concat):
        return " ".join(_grouped(child, (Concat, Alternation)) for child in node.children)
    return " | ".join(_grouped(child, Alternation) for child in node.children)


def _grouped(node: RegexNode, kinds) -> str:
    """`unparse(node)`, in parentheses if it is one of `kinds`: a nested
    sequence or alternation that would not survive reparsing bare."""
    text = unparse(node)
    return f"( {text} )" if isinstance(node, kinds) else text


@dataclass(frozen=True)
class Rule:
    rule_id: int  # 1-based, consecutive in file order
    label: str
    ast: RegexNode


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...]

    @property
    def p(self) -> int:
        return len(self.rules)


def parse_rule_lines(
    lines: Iterable[str], known_labels: set[str] | None = None
) -> RuleSet:
    """Build a RuleSet from `label<TAB>pattern` lines.

    Lines starting with `#` and blank lines are skipped.  Labels and
    patterns are lowercase-folded.  When `known_labels` is given, every
    rule label must be in it.
    """
    rules = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "\t" not in line:
            raise RegexSyntaxError("expected label<TAB>pattern", line=line_no)
        label, pattern = line.split("\t", 1)
        label = label.strip().lower()
        if not label:
            raise RegexSyntaxError("empty label", line=line_no)
        if known_labels is not None and label not in known_labels:
            raise UnknownLabelError(label, line=line_no)
        try:
            ast = parse_regex(pattern)
        except RegexSyntaxError as exc:
            raise RegexSyntaxError(
                exc.message, offset=exc.offset, line=line_no
            ) from exc
        rules.append(Rule(len(rules) + 1, label, ast))
    return RuleSet(tuple(rules))


def load_rules(path: str | os.PathLike, known_labels: set[str] | None = None) -> RuleSet:
    """Load a rules file (UTF-8, one `label<TAB>pattern` per line; a leading
    byte-order mark is dropped)."""
    with open(path, encoding="utf-8-sig") as fh:
        return parse_rule_lines(fh, known_labels)
