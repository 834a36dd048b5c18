"""Multisets, membrane trees, and structural validation."""

from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmsim.core import (
    EMPTY,
    KEYWORDS,
    MAX_COUNT,
    _wrap,
    Configuration,
    Membrane,
    Multiset,
    Rule,
    RuleForm,
    build_configuration,
    check_symbol,
    endo,
    iter_membranes,
    rewrite,
    structural_violations,
    validate,
)
from mmsim.coupling import CouplingSpec
from mmsim.parser import Model, rule_text, serialize_model

symbols = st.from_regex(r"_?[a-z][a-z0-9_]{0,3}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS)


class TestSymbols:
    @pytest.mark.parametrize("name", ["c", "T1", "p13", "_cl", "__x", "a_b_2", "BMU"])
    def test_valid(self, name):
        check_symbol(name)

    @pytest.mark.parametrize("name", ["", "_", "1a", "9", "a-b", "a b", "Ω", None, 3])
    def test_invalid(self, name):
        with pytest.raises(ValueError, match=f"^invalid symbol {re.escape(repr(name))}$"):
            check_symbol(name)

    @pytest.mark.parametrize("word", sorted(KEYWORDS))
    def test_keywords_are_no_names(self, word):
        # serialize_model would write them where parse_model reserves them
        with pytest.raises(ValueError, match=f"^invalid symbol '{word}'$"):
            check_symbol(word)
        with pytest.raises(ValueError):
            Multiset({word: 1})
        with pytest.raises(ValueError):
            Membrane(1, word)
        with pytest.raises(ValueError):
            rewrite(word, "skin", {"a": 1}, {"b": 1})
        with pytest.raises(ValueError):
            rewrite("r", word, {"a": 1}, {"b": 1})
        with pytest.raises(ValueError):
            CouplingSpec(payload_symbol=word)


class TestMultiset:
    def test_construction_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            Multiset({"c": 0})
        with pytest.raises(ValueError):
            Multiset({"c": -2})
        with pytest.raises(ValueError):
            Multiset({"c": True})
        with pytest.raises(ValueError, match=r"count for 'a' must be within \[1, "):
            Multiset({"a": MAX_COUNT + 1})
        with pytest.raises(ValueError, match=r"count for 'a' must be within \[1, "):
            Multiset([("a", MAX_COUNT), ("a", 1)])
        assert Multiset([("a", MAX_COUNT - 1), ("a", 1)])["a"] == MAX_COUNT

    def test_construction_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            Multiset({"0bad": 1})

    def test_counter_like_lookup(self):
        ms = Multiset({"a": 2})
        assert ms["a"] == 2
        assert ms["zz"] == 0
        assert "zz" not in ms
        assert list(Multiset({"b": 1, "a": 2})) == ["a", "b"]
        assert bool(EMPTY) is False
        assert bool(Multiset({"a": 1})) is True

    def test_str_canonical(self):
        assert str(Multiset({"b": 1, "a": 2})) == "a*2, b"
        assert str(Multiset()) == ""

    def test_items_are_one_tuple_in_symbol_order(self):
        counts = {"b": 1, "a": 2, "_c": 3}
        for ms in (Multiset(counts), _wrap(dict(counts))):
            assert ms.items() == (("_c", 3), ("a", 2), ("b", 1))
            assert ms.items() is ms.items()
            assert list(ms) == ["_c", "a", "b"]
        assert EMPTY.items() == ()

    @given(st.lists(st.tuples(symbols, st.integers(1, 4)), max_size=8), st.randoms())
    def test_split_and_shuffled_entries_equal(self, entries, random):
        # [("a", 1), ("a", 2)] and {"a": 3} are one multiset, whatever the order.
        totals: dict[str, int] = {}
        for sym, n in entries:
            totals[sym] = totals.get(sym, 0) + n
        shuffled = list(entries)
        random.shuffle(shuffled)
        built, merged = Multiset(shuffled), Multiset(totals)
        assert built == merged and hash(built) == hash(merged)
        assert built.items() == merged.items() == tuple(sorted(totals.items()))
        assert hash(built) == hash(built.items())
        assert list(built) == [sym for sym, _ in built.items()]
        assert Multiset([*shuffled, ("a", 1)]) != merged


class TestRule:
    def test_consumed_must_be_nonempty(self):
        with pytest.raises(ValueError):
            rewrite("r", "skin", {}, {"a": 1})

    def test_move_forms_require_host(self):
        with pytest.raises(ValueError):
            Rule("r", RuleForm.ENDO, "V", Multiset({"a": 1}), Multiset())

    def test_other_forms_reject_host(self):
        with pytest.raises(ValueError):
            Rule("r", RuleForm.REWRITE, "V", Multiset({"a": 1}), Multiset(), host="T")

    def test_absent_promoter_is_empty(self):
        # No promoter, None and an empty mapping all give EMPTY, and the
        # rule's text has no promoter clause.
        for promoter in ({}, {"promoter": None}, {"promoter": {}}):
            rule = Rule("r", RuleForm.REWRITE, "skin", {"a": 1}, {"b": 1}, **promoter)
            assert rule.promoter == EMPTY
            assert rule_text(rule) == "rule r: in skin: a -> b"

    @pytest.mark.parametrize("form", ["in", None, RuleForm])
    def test_form_must_be_a_rule_form(self, form):
        with pytest.raises(ValueError, match="rule 'r': form must be a RuleForm"):
            Rule("r", form, "A", {"a": 1}, {"b": 1})

    @pytest.mark.parametrize("form,host", [
        (RuleForm.REWRITE, None), (RuleForm.ENDO, "B"), (RuleForm.EXO, "B"),
        (RuleForm.SEND_IN, None), (RuleForm.SEND_OUT, None),
    ])
    def test_moves_membrane_exactly_for_endo_and_exo(self, form, host):
        rule = Rule("r", form, "A", {"a": 1}, {"b": 1}, host)
        assert rule.moves_membrane == (host is not None)

    def test_endo_helper(self):
        rule = endo("e", "V", "CU", {"p0": 1}, {"p1": 1})
        assert rule.form is RuleForm.ENDO and rule.host == "CU"


class TestConfiguration:
    def test_build_assigns_preorder_ids(self):
        cfg = build_configuration(("skin", {}, [("a", {}, [("b", {}, [])]), ("c", {}, [])]))
        assert [m.label for m in sorted(iter_membranes(cfg.skin), key=lambda m: m.id)] == [
            "skin", "a", "b", "c"]

    def test_fresh_configuration_is_valid(self):
        cfg = build_configuration(
            ("skin", {}, [("T", {"c": 10}, []), ("T", {"c": 4}, []), ("CU", {}, [])]))
        assert validate(cfg) == []

    def test_duplicate_id_detected(self):
        hostile = Membrane(0, "skin", Multiset(), (Membrane(1, "a"), Membrane(1, "b")))
        assert any(v.startswith("duplicate-id") for v in structural_violations(hostile))

    def test_duplicate_id_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Configuration(Membrane(0, "skin", Multiset(), (Membrane(1, "a"), Membrane(1, "b"))))

    @pytest.mark.parametrize("mid,message", [
        ("1", "membrane id must be an int, got '1'"),
        (True, "membrane id must be an int, got True"),
        (-1, "membrane id must be >= 0"),
    ], ids=["str", "bool", "negative"])
    def test_membrane_id_must_be_a_non_negative_int(self, mid, message):
        with pytest.raises(ValueError) as err:
            Membrane(mid, "A")
        assert str(err.value) == message

    def test_shared_subtree_detected(self):
        shared = Membrane(1, "a")
        hostile = Membrane(0, "skin", Multiset(), (shared, shared))
        assert any(v.startswith("shared-membrane") for v in structural_violations(hostile))

    def test_structural_equality_ignores_ids(self):
        # The canonical text renders labels, contents and child order, not ids.
        a = build_configuration(("skin", {"x": 1}, [("T", {}, [])]))
        b = Configuration(Membrane(7, "skin", Multiset({"x": 1}), (Membrane(3, "T"),)))
        assert serialize_model(Model(a)) == serialize_model(Model(b))
        c = build_configuration(("skin", {"x": 2}, [("T", {}, [])]))
        assert serialize_model(Model(a)) != serialize_model(Model(c))
