"""Word-level regular expressions: AST types, parser, and rules-file loader.

Patterns are built from whole-word literals rather than characters.  A
literal token matches exactly one word, `.` matches any single word
(including out-of-vocabulary ones), and `( ) | * + ?` have their usual
meanings.  Postfix operators bind tightest, then concatenation, then
alternation, so `a b | c` reads as `(a b) | c`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

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

_METACHARS = frozenset("()|*+?.")


@dataclass(frozen=True)
class Literal:
    """Matches exactly the given word."""

    word: str

    def __post_init__(self):
        if not self.word or any(c.isspace() or c in _METACHARS for c in self.word):
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


class _Token(NamedTuple):
    kind: str  # WORD LPAREN RPAREN PIPE STAR PLUS QMARK DOT
    text: str
    offset: int


_TOKEN_KINDS = {
    "(": "LPAREN",
    ")": "RPAREN",
    "|": "PIPE",
    "*": "STAR",
    "+": "PLUS",
    "?": "QMARK",
    ".": "DOT",
}

_ATOM_START = frozenset({"WORD", "DOT", "LPAREN"})
_POSTFIX = {"STAR": Star, "PLUS": Plus, "QMARK": Opt}


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_KINDS:
            tokens.append(_Token(_TOKEN_KINDS[ch], ch, i))
            i += 1
            continue
        j = i
        while j < n and not source[j].isspace() and source[j] not in _METACHARS:
            j += 1
        tokens.append(_Token("WORD", source[i:j], i))
        i = j
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], source_len: int):
        self.tokens = tokens
        self.pos = 0
        self.source_len = source_len

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def alternation(self) -> RegexNode:
        branches = [self.concat()]
        while (tok := self.peek()) is not None and tok.kind == "PIPE":
            self.next()
            branches.append(self.concat())
        return branches[0] if len(branches) == 1 else Alternation(tuple(branches))

    def concat(self) -> RegexNode:
        items = []
        while (tok := self.peek()) is not None and tok.kind in _ATOM_START:
            items.append(self.postfix())
        if not items:
            tok = self.peek()
            if tok is not None and tok.kind in _POSTFIX:
                raise RegexSyntaxError(
                    f"dangling operator {tok.text!r}", offset=tok.offset
                )
            offset = tok.offset if tok is not None else self.source_len
            raise RegexSyntaxError("empty expression", offset=offset)
        return items[0] if len(items) == 1 else Concat(tuple(items))

    def postfix(self) -> RegexNode:
        node = self.atom()
        while (tok := self.peek()) is not None and tok.kind in _POSTFIX:
            self.next()
            node = _POSTFIX[tok.kind](node)
        return node

    def atom(self) -> RegexNode:
        tok = self.next()
        if tok.kind == "WORD":
            return Literal(tok.text)
        if tok.kind == "DOT":
            return AnyWord()
        # LPAREN is the only remaining atom starter
        inner_tok = self.peek()
        if inner_tok is not None and inner_tok.kind == "RPAREN":
            raise RegexSyntaxError("empty group", offset=tok.offset)
        inner = self.alternation()
        closing = self.peek()
        if closing is None or closing.kind != "RPAREN":
            raise RegexSyntaxError("unbalanced parenthesis", offset=tok.offset)
        self.next()
        return inner


def parse_regex(source: str) -> RegexNode:
    """Parse a word-level pattern into its AST.

    Raises RegexSyntaxError (with a character offset) for unbalanced
    parentheses, dangling operators, empty groups, or an empty pattern.
    """
    tokens = _tokenize(source)
    if not tokens:
        raise RegexSyntaxError("empty pattern", offset=0)
    parser = _Parser(tokens, len(source))
    node = parser.alternation()
    trailing = parser.peek()
    if trailing is not None:
        if trailing.kind == "RPAREN":
            raise RegexSyntaxError("unbalanced parenthesis", offset=trailing.offset)
        raise RegexSyntaxError(
            f"unexpected token {trailing.text!r}", offset=trailing.offset
        )
    return node


def unparse(node: RegexNode) -> str:
    """Render an AST back to pattern text that reparses to the same tree."""
    if isinstance(node, Literal):
        return node.word
    if isinstance(node, AnyWord):
        return "."
    if isinstance(node, (Star, Plus, Opt)):
        op = {Star: "*", Plus: "+", Opt: "?"}[type(node)]
        child = node.child
        inner = unparse(child)
        if isinstance(child, (Concat, Alternation)):
            inner = f"( {inner} )"
        return inner + op
    if isinstance(node, Concat):
        parts = []
        for child in node.children:
            text = unparse(child)
            # nested sequence/alternation needs parens to survive reparsing
            if isinstance(child, (Concat, Alternation)):
                text = f"( {text} )"
            parts.append(text)
        return " ".join(parts)
    parts = []
    for child in node.children:
        text = unparse(child)
        if isinstance(child, Alternation):
            text = f"( {text} )"
        parts.append(text)
    return " | ".join(parts)


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
            ast = parse_regex(pattern.lower())
        except RegexSyntaxError as exc:
            raise RegexSyntaxError(
                exc.message, offset=exc.offset, line=line_no
            ) from exc
        rules.append(Rule(len(rules) + 1, label, ast))
    return RuleSet(tuple(rules))


def load_rules(path: str | os.PathLike, known_labels: set[str] | None = None) -> RuleSet:
    """Load a rules file (UTF-8, one `label<TAB>pattern` per line)."""
    with open(path, encoding="utf-8") as fh:
        return parse_rule_lines(fh, known_labels)
