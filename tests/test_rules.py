import pytest
from hypothesis import given, strategies as st

from rulefuse.errors import RegexSyntaxError, UnknownLabelError
from rulefuse.rules import (
    Alternation,
    AnyWord,
    Concat,
    Literal,
    Opt,
    Plus,
    Rule,
    Star,
    load_rules,
    parse_regex,
    parse_rule_lines,
    unparse,
)


def test_parse_basic_sequence():
    ast = parse_regex("show me (.)* flights")
    assert ast == Concat(
        (Literal("show"), Literal("me"), Star(AnyWord()), Literal("flights"))
    )


def test_parse_alternation():
    assert parse_regex("a | b") == Alternation((Literal("a"), Literal("b")))


def test_precedence_concat_over_alternation():
    ast = parse_regex("a b | c")
    assert ast == Alternation((Concat((Literal("a"), Literal("b"))), Literal("c")))


def test_postfix_binds_tightest():
    assert parse_regex("a b*") == Concat((Literal("a"), Star(Literal("b"))))
    assert parse_regex("a+?") == Opt(Plus(Literal("a")))


def test_grouping():
    assert parse_regex("( a b )*") == Star(Concat((Literal("a"), Literal("b"))))
    assert parse_regex("( a | b ) | c") == Alternation(
        (Alternation((Literal("a"), Literal("b"))), Literal("c"))
    )


def test_unbalanced_paren_offset():
    with pytest.raises(RegexSyntaxError) as exc_info:
        parse_regex("( a")
    assert exc_info.value.offset == 0


def test_stray_close_paren():
    with pytest.raises(RegexSyntaxError) as exc_info:
        parse_regex("a ) b")
    assert exc_info.value.offset == 2


def test_dangling_operator():
    with pytest.raises(RegexSyntaxError) as exc_info:
        parse_regex("* a")
    assert exc_info.value.offset == 0


def test_empty_group():
    with pytest.raises(RegexSyntaxError):
        parse_regex("a ( ) b")


def test_empty_pattern():
    with pytest.raises(RegexSyntaxError):
        parse_regex("   ")


def test_empty_alternation_branch():
    with pytest.raises(RegexSyntaxError):
        parse_regex("a |")


@pytest.mark.parametrize(
    "source, message, offset",
    [
        ("", "empty pattern", 0),
        ("   ", "empty pattern", 0),
        ("a |", "empty expression", 3),
        ("a | | b", "empty expression", 4),
        ("a ( b | )", "empty expression", 8),
        ("( a", "unbalanced parenthesis", 0),
        ("a(", "empty expression", 2),
        ("* a", "dangling operator '*'", 0),
        ("a | + b", "dangling operator '+'", 4),
        ("( ? a )", "dangling operator '?'", 2),
        ("a ( ) b", "empty group", 2),
        ("()", "empty group", 0),
        ("( a ( b )", "unbalanced parenthesis", 0),
        ("( a ( b", "unbalanced parenthesis", 4),
        (") a", "empty expression", 0),
        ("a ) b", "unbalanced parenthesis", 2),
        ("a b )", "unbalanced parenthesis", 4),
        ("(a|b)*)", "unbalanced parenthesis", 6),
    ],
)
def test_syntax_error_message_and_offset(source, message, offset):
    with pytest.raises(RegexSyntaxError) as exc_info:
        parse_regex(source)
    assert (exc_info.value.message, exc_info.value.offset) == (message, offset)
    assert exc_info.value.line is None
    assert str(exc_info.value) == f"{message} (offset {offset})"


@pytest.mark.parametrize(
    "lines, message, offset, line",
    [
        (["# header", "a\tok", "", "b\tx | + y"], "dangling operator '+'", 4, 4),
        # "İ" lowercases to two characters; the offset counts the pattern as written
        (["a\tİstanbul ( x"], "unbalanced parenthesis", 9, 1),
    ],
    ids=["dangling-operator", "offset-as-written"],
)
def test_syntax_error_in_rule_lines_names_line_and_offset(lines, message, offset, line):
    with pytest.raises(RegexSyntaxError) as exc_info:
        parse_rule_lines(lines)
    err = exc_info.value
    assert (err.message, err.offset, err.line) == (message, offset, line)
    assert str(err) == f"{message} (line {line}, offset {offset})"


def test_parser_deterministic():
    src = "from ( a | b )+ to .?"
    assert parse_regex(src) == parse_regex(src)


def test_literal_invariants():
    with pytest.raises(ValueError):
        Literal("")
    with pytest.raises(ValueError):
        Literal("two words")
    with pytest.raises(ValueError):
        Literal("par(en")


_words = st.sampled_from(["a", "b", "c", "flight", "from"])


def _ast_strategy():
    leaves = st.one_of(_words.map(Literal), st.just(AnyWord()))

    def extend(children):
        branch = st.lists(children, min_size=2, max_size=3).map(tuple)
        return st.one_of(
            branch.map(Concat),
            branch.map(Alternation),
            children.map(Star),
            children.map(Plus),
            children.map(Opt),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(_ast_strategy())
def test_unparse_parse_roundtrip(ast):
    assert parse_regex(unparse(ast)) == ast


def test_roundtrip_source_form():
    src = "show me ( a | b )* flights .?"
    assert parse_regex(unparse(parse_regex(src))) == parse_regex(src)


def test_load_rules(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text(
        "# comment line\n"
        "flight\tshow me (.)* flights\n"
        "\n"
        "airline\twhich airline .*\n"
        "FLIGHT\tlist ( all )? flights\n"
    )
    ruleset = load_rules(path, known_labels={"flight", "airline"})
    assert ruleset.p == 3
    assert [r.rule_id for r in ruleset.rules] == [1, 2, 3]
    assert [r.label for r in ruleset.rules] == ["flight", "airline", "flight"]  # case folded


def test_load_rules_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_bytes("\ufeffflight\tshow flights\nfare\tcheap fares\n".encode())
    ruleset = load_rules(path, {"flight", "fare"})
    assert [r.label for r in ruleset.rules] == ["flight", "fare"]


def test_load_rules_empty_file(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text("# nothing here\n\n")
    assert load_rules(path).p == 0


def test_load_rules_unknown_label(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text("fare\tshow fares\n")
    with pytest.raises(UnknownLabelError) as exc_info:
        load_rules(path, known_labels={"flight", "airline"})
    assert exc_info.value.label == "fare"


def test_load_rules_syntax_error_line(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text("flight\tok pattern\nflight\t( broken\n")
    with pytest.raises(RegexSyntaxError) as exc_info:
        load_rules(path)
    assert exc_info.value.line == 2


def test_load_rules_missing_tab(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text("flight show me\n")
    with pytest.raises(RegexSyntaxError) as exc_info:
        load_rules(path)
    assert exc_info.value.line == 1


def test_load_rules_missing_file():
    with pytest.raises(OSError):
        load_rules("/nonexistent/rules.tsv")


def test_load_many_rules(tmp_path):
    labels = [f"intent{i}" for i in range(18)]
    lines = [f"{labels[i % 18]}\tword{i} (.)* tail{i}" for i in range(54)]
    path = tmp_path / "rules.tsv"
    path.write_text("\n".join(lines) + "\n")
    ruleset = load_rules(path, known_labels=set(labels))
    assert ruleset.p == 54
    assert [r.rule_id for r in ruleset.rules] == list(range(1, 55))


def test_rule_keeps_no_pattern_text():
    # checkpoints record unparse(rule.ast), so the pattern text had no reader
    assert list(Rule.__dataclass_fields__) == ["rule_id", "label", "ast"]
