"""mmsim: a simulator for mobile membrane systems.

Membrane systems whose membranes can move (endocytosis and exocytosis)
under maximally parallel multiset rewriting, with a textual model format,
seed-reproducible runs, a brute-force verification oracle, a compiler that
turns two-scale model coupling into plain membrane rules, and a bone
remodelling case study built on it.
"""

from .core import (
    EMPTY,
    Configuration,
    InvalidConfigurationError,
    Membrane,
    Multiset,
    Rule,
    RuleForm,
    RuleInstance,
    build_configuration,
    endo,
    exo,
    iter_membranes,
    render_tree,
    rewrite,
    send_in,
    send_out,
    validate,
)
from .engine import (
    CountOverflow,
    DepthExceeded,
    EngineError,
    EngineOptions,
    InstanceBoundExceeded,
    SelfCheckViolation,
    StepResult,
    Trace,
    TraceStep,
    enumerate_instances,
    iter_steps,
    label_totals,
    run,
    step,
)
from .parser import Model, ParseError, lint, parse_model, rule_text, serialize_model
from .coupling import CouplingSpec, carrier_cycle_length, cycle_end_step, generate_carrier_protocol
from .bone import (
    BoneParams,
    DensitySampler,
    build_bone_model,
    decode_density,
    density_series,
    encode_density,
    micro_rules,
    transit_total,
    unit_spec,
)
from .rng import RNG_ALGORITHM, SplitMix64
from .tracefile import dump_trace, model_hash, trace_lines

__version__ = "0.1.0"
