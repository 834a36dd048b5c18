"""Multiset algebra, membrane trees, and structural validation."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmsim.core import (
    KEYWORDS,
    MAX_COUNT,
    Configuration,
    Membrane,
    Multiset,
    MultisetUnderflow,
    Rule,
    RuleForm,
    build_configuration,
    endo,
    find_membranes,
    is_symbol,
    iter_membranes,
    rewrite,
    structural_violations,
    validate,
)
from mmsim.coupling import CouplingSpec
from mmsim.parser import Model, serialize_model

symbols = st.from_regex(r"_?[a-z][a-z0-9_]{0,3}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS)
multisets = st.dictionaries(symbols, st.integers(1, 4), max_size=4).map(Multiset)


class TestSymbols:
    @pytest.mark.parametrize("name", ["c", "T1", "p13", "_cl", "__x", "a_b_2", "BMU"])
    def test_valid(self, name):
        assert is_symbol(name)

    @pytest.mark.parametrize("name", ["", "_", "1a", "9", "a-b", "a b", "Ω", None, 3])
    def test_invalid(self, name):
        assert not is_symbol(name)

    @pytest.mark.parametrize("word", sorted(KEYWORDS))
    def test_keywords_are_no_names(self, word):
        # serialize_model would write them where parse_model reserves them
        assert not is_symbol(word)
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
    def test_contains_subset(self):
        assert Multiset({"c": 10}).contains(Multiset({"c": 3}))

    def test_contains_empty_in_everything(self):
        assert Multiset().contains(Multiset())
        assert Multiset({"c": 2}).contains(Multiset())

    def test_contains_missing_symbol(self):
        assert not Multiset({"c": 2}).contains(Multiset({"c": 2, "x": 1}))

    def test_sub_annihilation(self):
        assert Multiset({"c": 10}) - Multiset({"c": 10}) == Multiset()

    def test_sub_partial(self):
        got = Multiset({"c": 10, "m": 2}) - Multiset({"c": 3})
        assert got == Multiset({"c": 7, "m": 2})

    def test_sub_underflow(self):
        with pytest.raises(MultisetUnderflow):
            Multiset({"c": 1}) - Multiset({"c": 2})

    def test_add_identity(self):
        assert Multiset() + Multiset({"c": 5}) == Multiset({"c": 5})

    def test_add_counts(self):
        assert Multiset({"c": 7}) + Multiset({"c": 3}) == Multiset({"c": 10})

    def test_add_accumulates(self):
        got = (Multiset({"a": 1}) + Multiset({"b": 1})) + Multiset({"a": 1})
        assert got == Multiset({"a": 2, "b": 1})

    def test_add_overflow(self):
        with pytest.raises(OverflowError):
            Multiset({"c": MAX_COUNT}) + Multiset({"c": 1})

    def test_construction_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            Multiset({"c": 0})
        with pytest.raises(ValueError):
            Multiset({"c": -2})
        with pytest.raises(ValueError):
            Multiset({"c": True})

    def test_construction_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            Multiset({"0bad": 1})

    def test_counter_like_lookup(self):
        ms = Multiset({"a": 2})
        assert ms["a"] == 2
        assert ms["zz"] == 0
        assert "zz" not in ms
        assert list(Multiset({"b": 1, "a": 2})) == ["a", "b"]

    def test_str_canonical(self):
        assert str(Multiset({"b": 1, "a": 2})) == "a*2, b"
        assert str(Multiset()) == ""

    @given(multisets, multisets)
    def test_add_then_sub_roundtrip(self, a, b):
        assert (a + b) - b == a

    @given(multisets, multisets)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(multisets)
    def test_containment_reflexive(self, a):
        assert a.contains(a)

    @given(multisets, multisets, multisets)
    def test_containment_transitive(self, a, b, c):
        assert (a + b + c).contains(a + b)
        assert (a + b).contains(a)
        assert (a + b + c).contains(a)

    @given(multisets, multisets)
    def test_total_additive(self, a, b):
        assert sum((a + b).values()) == sum(a.values()) + sum(b.values())


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

    def test_empty_promoter_normalized_to_none(self):
        rule = rewrite("r", "skin", {"a": 1}, {"b": 1}, promoter={})
        assert rule.promoter is None

    def test_endo_helper(self):
        rule = endo("e", "V", "CU", {"p0": 1}, {"p1": 1})
        assert rule.form is RuleForm.ENDO and rule.host == "CU"


def two_patch_config() -> Configuration:
    return build_configuration(
        ("skin", {}, [("T", {"c": 10}, []), ("T", {"c": 4}, []), ("CU", {}, [])]))


class TestConfiguration:
    def test_build_assigns_preorder_ids(self):
        cfg = build_configuration(("skin", {}, [("a", {}, [("b", {}, [])]), ("c", {}, [])]))
        assert [m.label for m in sorted(iter_membranes(cfg.skin), key=lambda m: m.id)] == [
            "skin", "a", "b", "c"]

    def test_find_membranes_two_patches(self):
        cfg = two_patch_config()
        assert find_membranes(cfg, "T") == (1, 2)

    def test_find_membranes_unused_label(self):
        assert find_membranes(two_patch_config(), "Q") == ()

    def test_find_membranes_skin_only(self):
        cfg = build_configuration(("skin", {}, []))
        assert find_membranes(cfg, "skin") == (cfg.skin.id,)

    def test_find_membranes_stable(self):
        cfg = two_patch_config()
        assert find_membranes(cfg, "T") == find_membranes(cfg, "T")

    def test_fresh_configuration_is_valid(self):
        assert validate(two_patch_config()) == []

    def test_duplicate_id_detected(self):
        hostile = Membrane(0, "skin", Multiset(), (Membrane(1, "a"), Membrane(1, "b")))
        assert any(v.startswith("duplicate-id") for v in structural_violations(hostile))

    def test_duplicate_id_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Configuration(Membrane(0, "skin", Multiset(), (Membrane(1, "a"), Membrane(1, "b"))))

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
