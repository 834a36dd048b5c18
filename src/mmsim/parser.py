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

Membrane ids are assigned by the parser in pre-order starting at 0; users
address membranes by label only.  Zero counts, and counts of one symbol
that add up to more than ``MAX_COUNT`` in one multiset, are rejected at
parse time.
Serialization is canonical: membranes in stored order, multiset entries in
lexicographic symbol order, rules in stored order, so equal models always
produce byte-identical text.
"""

from __future__ import annotations

import re
from typing import Iterator

from .core import (
    EMPTY,
    MAX_COUNT,
    Configuration,
    Membrane,
    Multiset,
    Rule,
    RuleForm,
    _Record,
    _set,
    iter_membranes,
)

__all__ = ["ParseError", "Model", "parse_model", "serialize_model", "rule_text", "lint"]

KEYWORDS = frozenset({"rule", "in", "endo", "into", "exo", "from", "if"})

_COUNT_DIGITS = len(str(MAX_COUNT))


class ParseError(ValueError):
    """A positioned syntax or well-formedness error in model text."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class Model(_Record):
    """A membrane structure plus its rule set."""

    __slots__ = ("config", "rules", "name")

    def __init__(self, config: Configuration, rules: tuple[Rule, ...] = (),
                 name: str | None = None) -> None:
        rules = tuple(rules)
        seen: set[str] = set()
        for rule in rules:
            if rule.id in seen:
                raise ValueError(f"duplicate rule id {rule.id!r}")
            seen.add(rule.id)
        _set(self, "config", config)
        _set(self, "rules", rules)
        _set(self, "name", name)


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\f\v]+)
    | (?P<comment>\#[^\n]*)
    | (?P<nl>\n)
    | (?P<arrow>->)
    | (?P<unit>\(\))
    | (?P<sendkw>send-(?:in|out)\b)
    | (?P<ident>_*[A-Za-z][A-Za-z0-9_]*)
    | (?P<int>[0-9]+)
    | (?P<punct>[\[\]:,*])
    """,
    re.VERBOSE,
)


class _Token(_Record):
    # kind: 'ident', 'int', 'arrow', 'unit', 'sendkw', '[', ']', ':', ',', '*', 'eof'
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        _set(self, "kind", kind)
        _set(self, "text", text)
        _set(self, "line", line)
        _set(self, "column", column)


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    line = 1
    col = 1
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line, col, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(lexeme)
        else:
            if kind == "punct":
                kind = lexeme
            yield _Token(kind, lexeme, line, col)
            col += len(lexeme)
        pos = m.end()
    yield _Token("eof", "", line, col)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.next_membrane_id = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self.cur
        found = "end of input" if tok.kind == "eof" else repr(tok.text)
        return ParseError(tok.line, tok.column, f"{message}, found {found}")

    def expect(self, kind: str, what: str) -> _Token:
        if self.cur.kind != kind:
            raise self.error(f"expected {what}")
        return self.advance()

    def name(self, what: str) -> _Token:
        """A non-keyword identifier token."""
        if self.cur.kind != "ident":
            raise self.error(f"expected {what}")
        if self.cur.text in KEYWORDS:
            raise self.error(f"expected {what} (keyword {self.cur.text!r} is reserved)")
        return self.advance()

    # -- grammar productions -------------------------------------------------

    def model(self) -> Model:
        skin = self.membrane()
        rules: list[Rule] = []
        ids: set[str] = set()
        while self.cur.kind == "ident" and self.cur.text == "rule":
            rules.append(self.rule(ids))
        if self.cur.kind != "eof":
            raise self.error("expected 'rule' or end of input")
        return Model(Configuration(skin), tuple(rules))

    def membrane(self) -> Membrane:
        self.expect("[", "'['")
        label = self.name("membrane label").text
        mid = self.next_membrane_id
        self.next_membrane_id += 1
        contents = EMPTY
        if self.cur.kind == ":":
            self.advance()
            if self.cur.kind == "ident" and self.cur.text not in KEYWORDS:
                contents = self.contents()
        children = []
        while self.cur.kind == "[":
            children.append(self.membrane())
        self.expect("]", "']'")
        return Membrane(mid, label, contents, tuple(children))

    def contents(self) -> Multiset:
        counts: dict[str, int] = {}
        while True:
            sym_tok = self.name("symbol")
            count = 1
            if self.cur.kind == "*":
                self.advance()
                count_tok = self.expect("int", "a count")
                # A count is at most MAX_COUNT, so a longer digit run is
                # rejected before int() sees it.
                digits = count_tok.text.lstrip("0") or "0"
                count = int(digits) if len(digits) <= _COUNT_DIGITS else MAX_COUNT + 1
                if count < 1:
                    raise ParseError(count_tok.line, count_tok.column, "count must be >= 1")
                if count > MAX_COUNT:
                    raise ParseError(count_tok.line, count_tok.column,
                                     f"count must be <= {MAX_COUNT}")
            total = counts.get(sym_tok.text, 0) + count
            if total > MAX_COUNT:
                raise ParseError(sym_tok.line, sym_tok.column,
                                 f"count of {sym_tok.text!r} adds up to more than {MAX_COUNT}")
            counts[sym_tok.text] = total
            if self.cur.kind != ",":
                break
            self.advance()
        return Multiset(counts)

    def rhs(self) -> Multiset:
        if self.cur.kind == "unit":
            self.advance()
            return EMPTY
        return self.contents()

    def rule(self, seen_ids: set[str]) -> Rule:
        self.advance()  # 'rule' keyword, checked by caller
        id_tok = self.name("rule id")
        if id_tok.text in seen_ids:
            raise ParseError(id_tok.line, id_tok.column, f"duplicate rule id {id_tok.text!r}")
        seen_ids.add(id_tok.text)
        self.expect(":", "':'")

        form_tok = self.cur
        host = None
        if form_tok.kind == "sendkw":
            self.advance()
            form = RuleForm.SEND_IN if form_tok.text == "send-in" else RuleForm.SEND_OUT
            subject = self.name("membrane label").text
        elif form_tok.kind == "ident" and form_tok.text in ("in", "endo", "exo"):
            self.advance()
            subject = self.name("membrane label").text
            if form_tok.text == "in":
                form = RuleForm.REWRITE
            elif form_tok.text == "endo":
                form = RuleForm.ENDO
                self.keyword("into")
                host = self.name("host label").text
            else:
                form = RuleForm.EXO
                self.keyword("from")
                host = self.name("host label").text
        else:
            raise self.error("expected a rule form (in, endo, exo, send-in, send-out)")

        self.expect(":", "':'")
        consumed = self.contents()
        self.expect("arrow", "'->'")
        produced = self.rhs()
        promoter = None
        if self.cur.kind == "ident" and self.cur.text == "if":
            self.advance()
            promoter = self.contents()
        return Rule(id_tok.text, form, subject, consumed, produced, host=host, promoter=promoter)

    def keyword(self, word: str) -> None:
        if self.cur.kind != "ident" or self.cur.text != word:
            raise self.error(f"expected {word!r}")
        self.advance()


def parse_model(text: str | bytes) -> Model:
    """Parse model text into a Model whose configuration is valid.

    All failures raise :class:`ParseError` carrying line and column; no
    input, including arbitrary bytes, can make this crash in another way.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = bytes(text).decode("utf-8")
        except UnicodeDecodeError as exc:
            prefix = bytes(text[: exc.start]).decode("utf-8", errors="replace")
            line = prefix.count("\n") + 1
            column = len(prefix.rsplit("\n", 1)[-1]) + 1
            raise ParseError(line, column, "invalid UTF-8 byte sequence") from None
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
    if rule.form is RuleForm.ENDO:
        body = f"endo {rule.subject} into {rule.host}"
    elif rule.form is RuleForm.EXO:
        body = f"exo {rule.subject} from {rule.host}"
    else:
        body = f"{rule.form.value} {rule.subject}"
    text = f"rule {rule.id}: {body}: {lhs} -> {rhs}"
    if rule.promoter is not None:
        text += f" if {rule.promoter}"
    return text


# ---------------------------------------------------------------------------
# Lint

def lint(model: Model) -> list[str]:
    """Static warnings for a model.

    Flags rules anchored to labels that never occur in the initial
    structure (the rule can never fire), symbols that are produced but
    never consumed and absent initially, and endo rules whose subject and
    host labels coincide.
    """
    warnings: list[str] = []
    present_labels = {m.label for m in iter_membranes(model.config.skin)}
    initial_symbols: set[str] = set()
    for m in iter_membranes(model.config.skin):
        initial_symbols.update(m.contents)

    consumed: set[str] = set()
    produced: set[str] = set()
    for rule in model.rules:
        consumed.update(rule.consumed)
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
    for sym in sorted(produced - consumed - initial_symbols):
        warnings.append(
            f"dead-symbol: {sym!r} is produced but never consumed and absent initially"
        )
    return warnings
