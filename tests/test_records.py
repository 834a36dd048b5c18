"""Value semantics shared by every public record type: construction,
equality, hashing, repr, immutability, copying and pickling."""

from __future__ import annotations

import collections
import copy
import pickle

import pytest

from mmsim.bone import BoneParams
from mmsim.core import EMPTY, Configuration, Membrane, Multiset, Rule, RuleForm, RuleInstance
from mmsim.coupling import CouplingSpec
from mmsim.engine import AppliedRule, EngineOptions, StepResult, Trace, TraceStep
from mmsim.parser import Model

_leaf = Membrane(1, "T", Multiset({"c": 2}))
_skin = Membrane(0, "skin", EMPTY, (_leaf,))
_config = Configuration(_skin)
_rule = Rule("r", RuleForm.REWRITE, "T", Multiset({"c": 1}), Multiset({"d": 1}))
_instance = RuleInstance(_rule, 1)
_step = TraceStep(0, (AppliedRule("r", 1, None, 2),), False, {"T": {"d": 2}})

_MEMBRANE_REPR = ("Membrane(id=0, label='skin', contents=Multiset({}), children=("
                  "Membrane(id=1, label='T', contents=Multiset({'c': 2}), children=()),))")
_RULE_REPR = ("Rule(id='r', form=<RuleForm.REWRITE: 'in'>, subject='T', "
              "consumed=Multiset({'c': 1}), produced=Multiset({'d': 1}), host=None, "
              "promoter=Multiset({}))")

# (class, fields with one value each, number of required fields, defaults
# of the rest, whether a value is hashable, repr of the value)
CASES = [
    (Rule,
     dict(id="r", form=RuleForm.REWRITE, subject="T", consumed=Multiset({"c": 1}),
          produced=Multiset({"d": 1}), host=None, promoter=EMPTY),
     5, dict(host=None, promoter=EMPTY), True, _RULE_REPR),
    (RuleInstance,
     dict(rule=_rule, subject_id=1, host_id=2),
     2, dict(host_id=None), True,
     f"RuleInstance(rule={_RULE_REPR}, subject_id=1, host_id=2)"),
    (Membrane,
     dict(id=0, label="skin", contents=EMPTY, children=(_leaf,)),
     2, dict(contents=EMPTY, children=()), True, _MEMBRANE_REPR),
    (Configuration, dict(skin=_skin), 1, {}, True, f"Configuration(skin={_MEMBRANE_REPR})"),
    (Model,
     dict(config=_config, rules=(_rule,)),
     1, dict(rules=()), True,
     f"Model(config=Configuration(skin={_MEMBRANE_REPR}), rules=({_RULE_REPR},))"),
    (EngineOptions,
     dict(seed=7), 0, dict(seed=0), True, "EngineOptions(seed=7)"),
    (StepResult,
     dict(config=_config, applied=((_instance, 2),), halted=False),
     3, {}, True,
     f"StepResult(config=Configuration(skin={_MEMBRANE_REPR}), applied=((RuleInstance("
     f"rule={_RULE_REPR}, subject_id=1, host_id=None), 2),), halted=False)"),
    (AppliedRule,
     dict(rule="r", subject=1, host=None, count=2),
     4, {}, True, "AppliedRule(rule='r', subject=1, host=None, count=2)"),
    (TraceStep,
     dict(index=0, applied=(AppliedRule("r", 1, None, 2),), halted=False,
          state={"T": {"d": 2}}),
     4, {}, False,
     "TraceStep(index=0, applied=(AppliedRule(rule='r', subject=1, host=None, count=2),), "
     "halted=False, state={'T': {'d': 2}})"),
    (Trace,
     dict(seed=1, rng="splitmix64/fisher-yates", steps=(_step,), final=_config),
     4, {}, False,
     "Trace(seed=1, rng='splitmix64/fisher-yates', steps=(TraceStep(index=0, applied=("
     "AppliedRule(rule='r', subject=1, host=None, count=2),), halted=False, "
     f"state={{'T': {{'d': 2}}}}),), final=Configuration(skin={_MEMBRANE_REPR}))"),
    (BoneParams,
     dict(capacity=10, density=0.25, oc=1, ob=2, cycles=3, units=4),
     0, dict(capacity=20, density=0.5, oc=0, ob=0, cycles=1, units=1), True,
     "BoneParams(capacity=10, density=0.25, oc=1, ob=2, cycles=3, units=4)"),
    (CouplingSpec,
     dict(macro_label="T1", micro_label="BMU1", coupling_label="CU1", carrier_label="V1",
          payload_symbol="m", cycle_symbol="k"),
     0, dict(macro_label="T", micro_label="BMU", coupling_label="CU", carrier_label="V",
             payload_symbol="c", cycle_symbol="cyc"), True,
     "CouplingSpec(macro_label='T1', micro_label='BMU1', coupling_label='CU1', "
     "carrier_label='V1', payload_symbol='m', cycle_symbol='k')"),
]


@pytest.mark.parametrize("cls,fields,required,defaults,hashable,text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_value_semantics(cls, fields, required, defaults, hashable, text):
    names, values = list(fields), list(fields.values())
    value = cls(*values)
    assert [getattr(value, name) for name in names] == values
    assert cls(**fields) == value

    partial = cls(*values[:required])
    assert {name: getattr(partial, name) for name in names[required:]} == defaults

    twin = cls(*values)
    assert twin == value and not twin != value
    if hashable:
        assert hash(twin) == hash(value)
    else:
        with pytest.raises(TypeError):
            hash(value)
    assert value != tuple(values)
    assert value != collections.namedtuple(cls.__name__, names)(*values)

    assert repr(value) == text

    with pytest.raises(AttributeError):
        setattr(value, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(value, names[0])

    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
