"""Grammar coverage, positioned errors, canonical round trips, lint."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsim.bone import BoneParams, build_bone_model
from mmsim.core import MAX_COUNT, MAX_DEPTH, Multiset, Rule, RuleForm, iter_membranes
from mmsim.parser import KEYWORDS, Model, ParseError, lint, parse_model, rule_text, serialize_model

CORPUS = Path(__file__).parent / "corpus"


class TestParse:
    def test_membrane_with_child(self):
        model = parse_model("[skin: [T: c*10] ]")
        skin = model.config.skin
        assert skin.label == "skin" and not skin.contents
        (child,) = skin.children
        assert child.label == "T" and child.contents == Multiset({"c": 10})

    def test_rule_over_empty_skin(self):
        model = parse_model("[skin: ] rule r1: in skin: a -> b")
        assert len(model.rules) == 1
        rule = model.rules[0]
        assert rule.form is RuleForm.REWRITE and rule.subject == "skin"

    def test_zero_count_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_model("[skin: c*0]")
        assert err.value.line == 1

    def test_preorder_ids_from_zero(self):
        model = parse_model("[skin: [a: [b: ]] [c: ]]")
        ids = {m.label: m.id for m in iter_membranes(model.config.skin)}
        assert ids == {"skin": 0, "a": 1, "b": 2, "c": 3}

    def test_bare_symbol_means_one(self):
        model = parse_model("[skin: a, b*2, a]")
        assert model.config.skin.contents == Multiset({"a": 2, "b": 2})

    def test_all_rule_forms(self):
        text = """
        [skin: [V: ] [T: ]]
        rule a: in T: x -> y
        rule b: endo V into T: x -> ()
        rule c: exo V from T: x*2 -> x
        rule d: send-in V: x -> y if p
        rule e: send-out V: x, y -> z if p*2, q
        """
        model = parse_model(text)
        forms = [r.form for r in model.rules]
        assert forms == [RuleForm.REWRITE, RuleForm.ENDO, RuleForm.EXO,
                         RuleForm.SEND_IN, RuleForm.SEND_OUT]
        assert model.rules[1].produced == Multiset()
        assert model.rules[3].promoter == Multiset({"p": 1})
        assert model.rules[4].promoter == Multiset({"p": 2, "q": 1})

    def test_comments_and_whitespace_insignificant(self):
        a = parse_model("[skin:a*2,b[T:c]]rule r:in T:c->d")
        b = parse_model("# hi\n[skin: a*2, b\n  [T: c]  # inner\n]\nrule r: in T: c -> d\n")
        assert serialize_model(a) == serialize_model(b)

    def test_keyword_cannot_label_membrane(self):
        with pytest.raises(ParseError):
            parse_model("[from: x]")

    def test_duplicate_rule_id_positioned(self):
        with pytest.raises(ParseError) as err:
            parse_model("[skin: ]\nrule r: in skin: a -> b\nrule r: in skin: b -> a\n")
        assert err.value.line == 3

    def test_invalid_utf8_is_positioned_error(self):
        with pytest.raises(ParseError):
            parse_model(b"[skin: ]\n\xff\xfe")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_model("[skin: ] 17")

    @pytest.mark.parametrize("text,column,message", [
        ("[s: a*99999999999999999999]", 7, "count must be <= 9223372036854775807"),
        ("[s: a*9223372036854775808]", 7, "count must be <= 9223372036854775807"),
        ("[s: a*" + "9" * 5000 + "]", 7, "count must be <= 9223372036854775807"),
        ("[s: a*9223372036854775807, a]", 28,
         "count of 'a' adds up to more than 9223372036854775807"),
        ("[s: a*4611686018427387904, b, a*4611686018427387904]", 31,
         "count of 'a' adds up to more than 9223372036854775807"),
    ], ids=["count-token", "max-count-plus-one", "5000-digits", "repeated-symbol",
            "repeated-after-other"])
    def test_count_above_max_count_is_positioned(self, text, column, message):
        with pytest.raises(ParseError) as err:
            parse_model("# counts\n" + text)
        assert (err.value.line, err.value.column, err.value.message) == (2, column, message)

    @pytest.mark.parametrize("text,line,column,message", [
        ("[s: a\u00a0]", 1, 6, "unexpected character '\\xa0'"),
        ("[s:\u2028a]", 1, 4, "unexpected character '\\u2028'"),
        ("\t\t[s:\ta\t;]", 1, 9, "unexpected character ';'"),
        ("[s: a]\r\n\r\n\t  x", 3, 4, "expected 'rule' or end of input, found 'x'"),
        ("[s: a\r\n  ;]", 2, 3, "unexpected character ';'"),
        ("# note ; here\n[s: a\n] ;", 3, 3, "unexpected character ';'"),
        ("[s: a] # note\nrule", 2, 5, "expected rule id, found end of input"),
        ("[s: a\n", 2, 1, "expected ']', found end of input"),
        (b"[s: a]\n\xff", 2, 1, "invalid UTF-8 byte sequence"),
        (b"[s:\n  a\xc3(]", 2, 4, "invalid UTF-8 byte sequence"),
        ("[s: a]\n_1", 2, 1, "unexpected character '_'"),
    ], ids=["nbsp", "line-separator", "after-tabs", "after-crlf", "crlf-then-bad",
            "after-comment", "eof-after-comment", "eof-after-newline", "utf8-after-newline",
            "utf8-mid-line", "underscore-digit"])
    def test_lexer_error_positions(self, text, line, column, message):
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert (err.value.line, err.value.column, err.value.message) == (line, column, message)

    @pytest.mark.parametrize("space", [" ", "\t", "\v", "\f", "\r", "\r\n", "\n"],
                             ids=["space", "tab", "vtab", "formfeed", "cr", "crlf", "lf"])
    def test_ascii_whitespace_separates_tokens(self, space):
        model = parse_model(f"[s:{space}a{space}*{space}2{space}]{space}rule{space}r:"
                            f"{space}in{space}s:a->b{space}")
        assert model.config.skin.contents == Multiset({"a": 2})
        assert [r.id for r in model.rules] == ["r"]

    @pytest.mark.parametrize("text,count", [
        ("[s: a*9223372036854775807]", MAX_COUNT),
        ("[s: a*4611686018427387903, a*4611686018427387904]", MAX_COUNT),
        ("[s: a*00000000000000000000000000007]", 7),
    ], ids=["max-count", "sum-to-max-count", "leading-zeros"])
    def test_count_up_to_max_count_is_accepted(self, text, count):
        assert parse_model(text).config.skin.contents == Multiset({"a": count})


class TestSerialize:
    def test_empty_skin(self):
        model = parse_model("[skin: ]")
        assert serialize_model(model) == "[skin: ]\n"

    def test_nesting_past_max_depth_is_positioned(self):
        depth = MAX_DEPTH + 1
        with pytest.raises(ParseError) as err:
            parse_model("[s:\n" * depth + "]" * depth)
        position = (err.value.line, err.value.column, err.value.message)
        assert position == (depth, 1, f"membranes nest deeper than {MAX_DEPTH} levels")

    def test_lexicographic_contents(self):
        model = parse_model("[skin: b, a*2]")
        assert serialize_model(model) == "[skin: a*2, b]\n"

    def test_rule_text_promoter(self):
        (rule,) = parse_model("[skin: ] rule w: send-in skin: a -> () if p").rules
        assert rule_text(rule) == "rule w: send-in skin: a -> () if p"

    def test_corpus_round_trip(self, corpus_valid):
        for path in corpus_valid:
            first = parse_model(path.read_bytes())
            text = serialize_model(first)
            second = parse_model(text)
            assert (serialize_model(Model(first.config))
                    == serialize_model(Model(second.config))), path.name
            assert first.rules == second.rules, path.name
            assert serialize_model(second) == text, path.name

    def test_parsed_multisets_are_checked_multisets(self, corpus_valid):
        # The parser builds multisets from counts it checked itself; each
        # must equal the multiset built through every constructor check.
        texts = [path.read_bytes() for path in corpus_valid]
        texts.append(serialize_model(build_bone_model(BoneParams(oc=3, ob=1, units=50))))
        for text in texts:
            model = parse_model(text)
            multisets = [m.contents for m in iter_membranes(model.config.skin)]
            for rule in model.rules:
                multisets += [rule.consumed, rule.produced, rule.promoter or Multiset()]
            for ms in multisets:
                assert ms == Multiset(dict(ms))

    def test_corpus_error_lines(self, corpus_invalid):
        expected = {
            "zero_count.mm": (3, 5, "count must be >= 1"),
            "unclosed.mm": (3, 1, "expected ']', found end of input"),
            "bad_token.mm": (1, 9, "unexpected character ';'"),
            "dup_rule.mm": (3, 6, "duplicate rule id 'r1'"),
            "missing_arrow.mm": (2, 21, "expected '->', found 'b'"),
            "empty.mm": (1, 1, "expected '[', found end of input"),
            "keyword_label.mm": (1, 2, "expected membrane label (keyword 'rule' is reserved),"
                                       " found 'rule'"),
            "bad_form.mm": (2, 9, "expected a rule form (in, endo, exo, send-in, send-out),"
                                  " found 'into'"),
            "endo_from.mm": (2, 16, "expected 'into', found 'from'"),
        }
        assert {p.name for p in corpus_invalid} == set(expected)
        for path in corpus_invalid:
            with pytest.raises(ParseError) as err:
                parse_model(path.read_bytes())
            position = (err.value.line, err.value.column, err.value.message)
            assert position == expected[path.name], path.name


# Random structurally valid models, for the round-trip law.
names = st.from_regex(r"_?[a-zA-Z][a-zA-Z0-9_]{0,4}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS)
contents = st.dictionaries(names, st.integers(1, 9), max_size=3).map(Multiset)
trees = st.recursive(
    st.tuples(names, contents, st.just(())),
    lambda kids: st.tuples(names, contents, st.lists(kids, max_size=3).map(tuple)),
    max_leaves=5,
)


@st.composite
def models(draw) -> Model:
    from mmsim.core import build_configuration

    config = build_configuration(draw(trees))
    forms = draw(st.lists(st.sampled_from(list(RuleForm)), max_size=4))
    rules = []
    for i, form in enumerate(forms):
        host = draw(names) if form in (RuleForm.ENDO, RuleForm.EXO) else None
        promoter = draw(st.one_of(st.none(), contents.filter(bool)))
        rules.append(Rule(f"r{i}", form, draw(names),
                          draw(contents.filter(bool)), draw(contents),
                          host=host, promoter=promoter))
    return Model(config, tuple(rules))


@settings(max_examples=60, deadline=None)
@given(models())
def test_random_model_round_trip(model):
    text = serialize_model(model)
    back = parse_model(text)
    assert serialize_model(Model(model.config)) == serialize_model(Model(back.config))
    assert back.rules == model.rules
    assert serialize_model(back) == text


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=60))
def test_fuzz_bytes_never_crash(data):
    try:
        model = parse_model(data)
    except ParseError as err:
        assert err.line >= 1 and err.column >= 1
    else:
        assert isinstance(model, Model)


class TestModel:
    config = parse_model("[s: a]").config

    def test_config_must_be_a_configuration(self):
        with pytest.raises(ValueError, match="model config must be a Configuration"):
            Model("cfg")

    def test_rules_must_be_rules(self):
        with pytest.raises(ValueError, match="model rules must be Rule values"):
            Model(self.config, ["x"])

    def test_duplicate_rule_id_rejected(self):
        rule = Rule("r", RuleForm.REWRITE, "s", Multiset({"a": 1}), Multiset())
        with pytest.raises(ValueError, match="duplicate rule id 'r'"):
            Model(self.config, [rule, rule])


class TestLint:
    def test_bone_model_is_clean(self):
        assert lint(build_bone_model(BoneParams(oc=3, ob=1, cycles=2, units=2))) == []

    def test_self_entry_warning(self):
        model = parse_model("[skin: [V: p]] rule x: endo V into V: p -> p")
        assert any(w.startswith("self-entry") for w in lint(model))

    def test_absent_label_warning(self):
        model = parse_model("[skin: ] rule x: in Q: a -> a")
        assert any(w.startswith("absent-label") for w in lint(model))

    def test_dead_symbol_warning(self):
        model = parse_model("[skin: x] rule s: in skin: x -> z")
        warnings = lint(model)
        assert any(w.startswith("dead-symbol") and "'z'" in w for w in warnings)

    def test_promoter_reads_a_symbol(self):
        # Phasing with a promoter token: b is never consumed, only read.
        model = parse_model("[skin: a, c] rule r: in skin: a -> b "
                            "rule s: in skin: c -> d if b rule t: in skin: d -> c")
        assert lint(model) == []

    def test_warn_fixture_has_all_three(self):
        model = parse_model((CORPUS / "valid" / "warn.mm").read_bytes())
        codes = {w.split(":")[0] for w in lint(model)}
        assert codes == {"absent-label", "self-entry", "dead-symbol"}
