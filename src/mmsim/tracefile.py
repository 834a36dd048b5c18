"""JSON Lines trace files.

A trace file is append-only and diff-friendly: a header object, then one
object per step.  The header pins everything needed to replay the run and
detect divergence:

    {"seed": 0, "rng": "splitmix64/fisher-yates", "model_hash": "<sha256>"}

Each step line carries the applied instances with multiplicities; the full
per-label state is included every ``snapshot_every`` steps and always on
the last line written:

    {"step": 3, "applied": [{"rule": "V1_drain", "subject": 4, "host": null,
     "count": 10}], "halted": false, "state": {"T1": {}, "V1": {...}}}

All objects are dumped with sorted keys and compact separators, so equal
runs produce byte-identical files.

Lines are encoded from a stream of steps, so a file can be written while
the run is still going.  When a run fails at step N with an
:class:`~mmsim.engine.EngineError`, the stream still ends with the lines
of steps 0..N-1, and the line of step N-1 carries its state whatever
``snapshot_every`` is.

``model_hash`` is the SHA-256 hex digest of the model's canonical text,
taken from whichever SHA-256 implementation is built into the
interpreter: CPython's own ``_sha2`` (3.12 and later) or ``_sha256``
(3.10, 3.11), and ``hashlib`` only where neither is built.  ``hashlib``
loads the OpenSSL binding, about 3.6 MB of peak memory that every CLI
process would pay for one digest.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .core import Model, Trace, TraceStep, _require_int
from .engine import EngineError
from .parser import serialize_model

__all__ = ["model_hash", "trace_lines", "dump_trace"]


def model_hash(model: Model) -> str:
    """SHA-256 hex digest of the model's canonical serialization."""
    return sha256(serialize_model(model).encode("utf-8")).hexdigest()


# One JSONEncoder serves the process, not one per json.dumps call.  Its
# encode still builds a C encoder (via iterencode) for each dict, so every
# step's state pays for one; a bare string such as a rule id does not.
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _step_line(step: TraceStep, with_state: bool) -> str:
    """What :func:`_dump` gives for the step's record, written field by
    field in its sorted key order."""
    applied = ",".join(
        f'{{"count":{a.count},"host":{"null" if a.host is None else a.host},'
        f'"rule":{_dump(a.rule)},"subject":{a.subject}}}'
        for a in step.applied)
    state = f',"state":{_dump(step.state)}' if with_state else ""
    halted = "true" if step.halted else "false"
    return f'{{"applied":[{applied}],"halted":{halted}{state},"step":{step.index}}}'


def trace_lines(seed: int, rng: str, digest: str, steps: Iterable[TraceStep],
                snapshot_every: int = 1) -> Iterator[str]:
    """The trace file's lines, without line terminators, one per step as
    *steps* yields it.

    One step is held back until the next arrives, so the last line can
    carry its state.  An :class:`~mmsim.engine.EngineError` from *steps*
    is re-raised after the held-back step's line.  A bad *snapshot_every*
    raises here, before any line is pulled.
    """
    _require_int("snapshot_every", snapshot_every, 1)
    return _lines(_dump({"seed": seed, "rng": rng, "model_hash": digest}), steps, snapshot_every)


def _lines(header: str, steps: Iterable[TraceStep], snapshot_every: int) -> Iterator[str]:
    yield header
    held: TraceStep | None = None
    try:
        for step in steps:
            if held is not None:
                yield _step_line(held, held.index % snapshot_every == 0)
            held = step
    except EngineError:
        if held is not None:
            yield _step_line(held, True)
        raise
    if held is not None:
        yield _step_line(held, True)


def dump_trace(trace: Trace, digest: str, snapshot_every: int = 1) -> str:
    return "".join(line + "\n" for line in
                   trace_lines(trace.seed, trace.rng, digest, trace.steps, snapshot_every))

