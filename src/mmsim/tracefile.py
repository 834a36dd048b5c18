"""JSON Lines trace files.

A trace file is append-only and diff-friendly: a header object, then one
object per step.  The header pins everything needed to replay the run and
detect divergence:

    {"seed": 0, "rng": "splitmix64/fisher-yates", "model_hash": "<sha256>"}

Each step line carries the applied instances with multiplicities; the full
per-label state is included every ``snapshot_every`` steps and always on
the final step:

    {"step": 3, "applied": [{"rule": "V1_drain", "subject": 4, "host": null,
     "count": 10}], "halted": false, "state": {"T1": {}, "V1": {...}}}

All objects are dumped with sorted keys and compact separators, so equal
runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from typing import IO, Iterator

from .engine import Trace
from .parser import Model, serialize_model

__all__ = ["model_hash", "write_trace", "dump_trace"]


def model_hash(model: Model) -> str:
    """SHA-256 hex digest of the model's canonical serialization."""
    return hashlib.sha256(serialize_model(model).encode("utf-8")).hexdigest()


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _trace_lines(trace: Trace, digest: str, snapshot_every: int) -> Iterator[str]:
    """The trace file's lines, without line terminators, one at a time."""
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    yield _dump({"seed": trace.seed, "rng": trace.rng, "model_hash": digest})
    last = len(trace.steps) - 1
    for i, step in enumerate(trace.steps):
        record = {
            "step": step.index,
            "applied": [{"rule": a.rule, "subject": a.subject, "host": a.host,
                         "count": a.count} for a in step.applied],
            "halted": step.halted,
        }
        if step.index % snapshot_every == 0 or i == last:
            record["state"] = step.state
        yield _dump(record)


def dump_trace(trace: Trace, digest: str, snapshot_every: int = 1) -> str:
    return "".join(line + "\n" for line in _trace_lines(trace, digest, snapshot_every))


def write_trace(trace: Trace, digest: str, fp: IO[str], snapshot_every: int = 1) -> None:
    """Write the same text as :func:`dump_trace`, one line at a time."""
    for line in _trace_lines(trace, digest, snapshot_every):
        fp.write(line + "\n")
