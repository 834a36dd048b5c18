"""Parse and serialize membrane models in a line-oriented text format.

Grammar (``#`` starts a line comment, whitespace is insignificant except
inside tokens)::

    model     := membrane { rule }
    membrane  := '[' label [ ':' [ contents ] ] { membrane } ']'
    contents  := item { ',' item }
    item      := symbol [ '*' integer ]    # 1 <= integer <= MAX_COUNT
    rule      := 'rule' ident ':' body [ 'if' contents ]
    body      := 'in' label ':' contents '->' rhs
               | 'endo' label 'into' label ':' contents '->' rhs
               | 'exo' label 'from' label ':' contents '->' rhs
               | 'send-in' label ':' contents '->' rhs
               | 'send-out' label ':' contents '->' rhs
    rhs       := contents | '()'          # '()' is the empty multiset

The parser hands the membrane tree to ``build_configuration``, which
assigns ids in pre-order starting at 0; users address membranes by label
only.  Membranes nest at most ``MAX_DEPTH`` (128) levels, the skin being
level 1, and runs keep to the same limit.  Zero counts, and counts of one
symbol that add up to more than ``MAX_COUNT`` in one multiset, are
rejected at parse time.  Tokens carry only their character offset; the
line and column of a :class:`ParseError` are counted from the text when
it is raised.
Serialization is canonical: membranes in stored order, multiset entries in
lexicographic symbol order, rules in stored order, so equal models always
produce byte-identical text.
"""

from __future__ import annotations

import re
from typing import Iterator

from .core import (
    _SYMBOL_PATTERN,
    EMPTY,
    KEYWORDS,
    MAX_COUNT,
    MAX_DEPTH,
    Membrane,
    Model,
    Multiset,
    NestedTree,
    Rule,
    RuleForm,
    _wrap,
    build_configuration,
    iter_membranes,
)

__all__ = ["ParseError", "parse_model", "serialize_model", "rule_text", "lint"]

_COUNT_DIGITS = len(str(MAX_COUNT))

# A rule form's value is the word that writes it, and a move form's host
# follows the word here.
_FORMS = {form.value: form for form in RuleForm}
_HOST_WORDS = {RuleForm.ENDO: "into", RuleForm.EXO: "from"}


class ParseError(ValueError):
    """A positioned syntax or well-formedness error in model text."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


# ---------------------------------------------------------------------------
# Lexer

# Whitespace matches no alternative, so the scan skips it; a comment
# matches the one unnamed alternative and is dropped; any other character
# that starts no token is ``bad``.  ASCII whitespace only: ``\s`` would also
# accept characters such as U+00A0 and U+2028.  An ``ident`` is exactly a
# core symbol.
_TOKEN_RE = re.compile(
    rf"""
      \#[^\n]*
    | (?P<arrow>->)
    | (?P<unit>\(\))
    | (?P<sendkw>send-(?:in|out)\b)
    | (?P<ident>{_SYMBOL_PATTERN})
    | (?P<int>[0-9]+)
    | (?P<punct>[\[\]:,*])
    | (?P<bad>[^ \t\r\n\f\v])
    """,
    re.VERBOSE,
)


def _error_at(text: str, offset: int, message: str) -> ParseError:
    """A ParseError at character *offset* of *text*, with 1-based line and
    column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(text.count("\n", 0, offset) + 1, offset - line_start + 1, message)


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    """``(kind, text, offset)`` for each token, then ``("eof", "", len(text))``;
    kind is 'ident', 'int', 'arrow', 'unit', 'sendkw' or the punctuation
    character itself."""
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        lexeme = m.group()
        if kind == "bad":
            raise _error_at(text, m.start(), f"unexpected character {lexeme!r}")
        yield (lexeme if kind == "punct" else kind), lexeme, m.start()
    yield "eof", "", len(text)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.cur = self.tokens[0]

    def advance(self) -> tuple[str, str, int]:
        tok = self.cur
        if tok[0] != "eof":
            self.pos += 1
            self.cur = self.tokens[self.pos]
        return tok

    def error(self, message: str) -> ParseError:
        kind, lexeme, offset = self.cur
        found = "end of input" if kind == "eof" else repr(lexeme)
        return _error_at(self.text, offset, f"{message}, found {found}")

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        if self.cur[0] != kind:
            raise self.error(f"expected {what}")
        return self.advance()

    def name(self, what: str) -> str:
        """The text of a non-keyword identifier token."""
        kind, lexeme, _ = self.cur
        if kind != "ident":
            raise self.error(f"expected {what}")
        if lexeme in KEYWORDS:
            raise self.error(f"expected {what} (keyword {lexeme!r} is reserved)")
        self.advance()
        return lexeme

    def at_word(self, word: str) -> bool:
        """Whether the current token is the identifier *word*."""
        return self.cur[0] == "ident" and self.cur[1] == word

    def keyword(self, word: str) -> None:
        if not self.at_word(word):
            raise self.error(f"expected {word!r}")
        self.advance()

    # -- grammar productions -------------------------------------------------

    def model(self) -> Model:
        skin = self.membrane(1)
        rules: list[Rule] = []
        ids: set[str] = set()
        while self.at_word("rule"):
            rules.append(self.rule(ids))
        if self.cur[0] != "eof":
            raise self.error("expected 'rule' or end of input")
        return Model(build_configuration(skin), tuple(rules))

    def membrane(self, depth: int) -> NestedTree:
        """The ``(label, contents, children)`` tree of the membrane at
        nesting level *depth*."""
        if depth > MAX_DEPTH:
            raise _error_at(self.text, self.cur[2],
                            f"membranes nest deeper than {MAX_DEPTH} levels")
        self.expect("[", "'['")
        label = self.name("membrane label")
        contents = EMPTY
        if self.cur[0] == ":":
            self.advance()
            if self.cur[0] == "ident" and self.cur[1] not in KEYWORDS:
                contents = self.contents()
        children = []
        while self.cur[0] == "[":
            children.append(self.membrane(depth + 1))
        self.expect("]", "']'")
        return label, contents, children

    def contents(self) -> Multiset:
        counts: dict[str, int] = {}
        while True:
            symbol_at = self.cur[2]
            symbol = self.name("symbol")
            count = 1
            if self.cur[0] == "*":
                self.advance()
                _, count_text, count_at = self.expect("int", "a count")
                # A count is at most MAX_COUNT, so a longer digit run is
                # rejected before int() sees it.
                digits = count_text.lstrip("0") or "0"
                count = int(digits) if len(digits) <= _COUNT_DIGITS else MAX_COUNT + 1
                if count < 1:
                    raise _error_at(self.text, count_at, "count must be >= 1")
                if count > MAX_COUNT:
                    raise _error_at(self.text, count_at, f"count must be <= {MAX_COUNT}")
            total = counts.get(symbol, 0) + count
            if total > MAX_COUNT:
                raise _error_at(self.text, symbol_at,
                                f"count of {symbol!r} adds up to more than {MAX_COUNT}")
            counts[symbol] = total
            if self.cur[0] != ",":
                break
            self.advance()
        # Every symbol and count was checked above.
        return _wrap(counts)

    def rhs(self) -> Multiset:
        if self.cur[0] == "unit":
            self.advance()
            return EMPTY
        return self.contents()

    def rule(self, seen_ids: set[str]) -> Rule:
        self.advance()  # 'rule' keyword, checked by caller
        id_at = self.cur[2]
        rule_id = self.name("rule id")
        if rule_id in seen_ids:
            raise _error_at(self.text, id_at, f"duplicate rule id {rule_id!r}")
        seen_ids.add(rule_id)
        self.expect(":", "':'")

        form = _FORMS.get(self.cur[1])
        if form is None:
            raise self.error(f"expected a rule form ({', '.join(_FORMS)})")
        self.advance()
        subject = self.name("membrane label")
        host = None
        if form in _HOST_WORDS:
            self.keyword(_HOST_WORDS[form])
            host = self.name("host label")

        self.expect(":", "':'")
        consumed = self.contents()
        self.expect("arrow", "'->'")
        produced = self.rhs()
        promoter = EMPTY
        if self.at_word("if"):
            self.advance()
            promoter = self.contents()
        return Rule(rule_id, form, subject, consumed, produced, host=host, promoter=promoter)


def parse_model(text: str | bytes) -> Model:
    """Parse model text into a Model whose configuration is valid.

    All failures raise :class:`ParseError` carrying line and column; no
    input, including arbitrary bytes, can make this crash in another way.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = bytes(text).decode("utf-8")
        except UnicodeDecodeError as exc:
            prefix = exc.object[: exc.start].decode("utf-8")
            raise _error_at(prefix, len(prefix), "invalid UTF-8 byte sequence") from None
    return _Parser(text).model()


# ---------------------------------------------------------------------------
# Serialization

def serialize_model(model: Model) -> str:
    """Canonical text for a model; parsing it back yields a structurally
    identical model (membrane ids re-assigned in pre-order)."""
    lines: list[str] = []
    _membrane_lines(model.config.skin, "", lines)
    for rule in model.rules:
        lines.append(rule_text(rule))
    return "\n".join(lines) + "\n"


def _membrane_lines(m: Membrane, indent: str, out: list[str]) -> None:
    items = str(m.contents)
    head = f"{indent}[{m.label}:" + (f" {items}" if items else "")
    if not m.children:
        out.append(head + ("]" if items else " ]"))
        return
    out.append(head)
    for child in m.children:
        _membrane_lines(child, indent + "  ", out)
    out.append(f"{indent}]")


def rule_text(rule: Rule) -> str:
    """The canonical one-line rendering of a rule."""
    lhs = str(rule.consumed)
    rhs = str(rule.produced) if rule.produced else "()"
    body = f"{rule.form.value} {rule.subject}"
    if rule.form in _HOST_WORDS:
        body += f" {_HOST_WORDS[rule.form]} {rule.host}"
    text = f"rule {rule.id}: {body}: {lhs} -> {rhs}"
    if rule.promoter:
        text += f" if {rule.promoter}"
    return text


# ---------------------------------------------------------------------------
# Lint

def lint(model: Model) -> list[str]:
    """Static warnings for a model.

    Flags rules anchored to labels that never occur in the initial
    structure (the rule can never fire), symbols that are produced but
    never read (neither consumed nor a promoter) and absent initially, and
    endo rules whose subject and host labels coincide.
    """
    warnings: list[str] = []
    present_labels = {m.label for m in iter_membranes(model.config.skin)}
    initial_symbols: set[str] = set()
    for m in iter_membranes(model.config.skin):
        initial_symbols.update(m.contents)

    read: set[str] = set()
    produced: set[str] = set()
    for rule in model.rules:
        read.update(rule.consumed, rule.promoter)
        produced.update(rule.produced)
        labels = [rule.subject] + ([rule.host] if rule.host is not None else [])
        for label in labels:
            if label not in present_labels:
                warnings.append(
                    f"absent-label: rule {rule.id!r} refers to label {label!r}"
                    " which never occurs in the initial structure"
                )
        if rule.form is RuleForm.ENDO and rule.subject == rule.host:
            warnings.append(
                f"self-entry: endo rule {rule.id!r} has identical subject and host"
                f" label {rule.subject!r}"
            )
    for sym in sorted(produced - read - initial_symbols):
        warnings.append(
            f"dead-symbol: {sym!r} is produced but never consumed or read as a promoter"
            " and absent initially"
        )
    return warnings
