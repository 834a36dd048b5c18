"""Command-line interface: validate models, run them, and run the bone study.

Exit codes are uniform across subcommands: 0 success, 1 domain or model
error (syntax, lint findings, bad parameters, engine failures), 2 I/O
error, including any failed write to stdout (a reader that has gone or a
full device).  Traces go to files as JSON Lines, written step by step
while the run goes on, so a failed run leaves the lines of the steps
before the failure; the ``bone`` subcommand prints a density-per-cycle
CSV on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections import deque
from typing import Callable, Iterator

from .bone import BoneParams, DensitySampler, build_bone_model
from .core import EngineOptions, Model, TraceStep, _require_int
from .engine import EngineError, iter_steps, label_totals
from .parser import ParseError, lint, parse_model, serialize_model
from .rng import RNG_ALGORITHM
from .tracefile import _dump, model_hash, trace_lines

__all__ = ["main"]

EXIT_OK = 0
EXIT_MODEL = 1
EXIT_IO = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; here 2 means I/O, so
    # remap usage problems to the domain-error status.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_MODEL)

    # argparse drops an ``OSError`` of its own writes, so an unbuffered
    # ``--help`` to a full device would be lost without a word; let it
    # reach ``main``'s handler instead.
    def _print_message(self, message: str, file=None) -> None:
        if message:
            (file or sys.stderr).write(message)

    # ``--help`` output is written before argparse exits; flush it here so
    # that a failed write to stdout is met inside ``main``'s ``try``.
    def exit(self, status: int = 0, message: str | None = None):
        sys.stdout.flush()
        super().exit(status, message)


@contextlib.contextmanager
def _naming(path: str) -> Iterator[None]:
    """Put *path* on an ``OSError`` raised inside that names no file, as a
    failed read or write does."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            exc.filename = path
        raise


def _load(path: str) -> Model:
    with _naming(path), open(path, "rb") as fp:
        return parse_model(fp.read())


def _validate(path: str) -> list[str]:
    """Parse and lint a model file; print and return the findings."""
    warnings = lint(_load(path))
    for warning in warnings:
        print(f"{path}: warning: {warning}", file=sys.stderr)
    return warnings


def _observed(steps: Iterator[TraceStep],
              observe: Callable[[TraceStep], None]) -> Iterator[TraceStep]:
    for step in steps:
        observe(step)
        yield step


def _drive(model: Model, options: EngineOptions, steps: Iterator[TraceStep],
           observe: Callable[[TraceStep], None], trace_path: str | None,
           snapshot_every: int) -> None:
    """Hand every step of the run to *observe* as it is made and, given a
    trace path, write its line.  The file is opened before the first step,
    so a bad path costs no engine work, and a failed run leaves the lines
    of the steps before the failure."""
    if trace_path is None:
        for step in steps:
            observe(step)
        return
    with _naming(trace_path), open(trace_path, "w", encoding="utf-8", newline="\n") as fp:
        for line in trace_lines(options.seed, RNG_ALGORITHM, model_hash(model),
                                _observed(steps, observe), snapshot_every):
            fp.write(line + "\n")


def _run(path: str, seed: int, max_steps: int, trace_path: str | None,
         snapshot_every: int) -> None:
    """Run a model file and print a one-line summary."""
    _require_int("max-steps", max_steps, 0)
    _require_int("snapshot-every", snapshot_every, 1)
    options = EngineOptions(seed=seed)
    model = _load(path)
    steps = iter_steps(model, options, max_steps)
    last: deque[TraceStep] = deque(maxlen=1)
    _drive(model, options, steps, last.append, trace_path, snapshot_every)
    if last:
        final = last[0]
        count, halted, state = final.index + 1, final.halted, final.state
    else:
        count, halted, state = 0, False, label_totals(model.config)
    print(f"steps={count} halted={'true' if halted else 'false'} state={_dump(state)}")


def _bone(params: BoneParams, seed: int, emit_model: str | None,
          trace_path: str | None) -> None:
    """Build the bone model, run it to halt, print the density CSV."""
    options = EngineOptions(seed=seed)
    model = build_bone_model(params)
    if emit_model is not None:
        with _naming(emit_model), open(emit_model, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(serialize_model(model))
    steps = iter_steps(model, options, max_steps=params.run_steps)
    sampler = DensitySampler(range(1, params.units + 1), params.capacity)
    _drive(model, options, steps, sampler.add, trace_path, 1)
    print("unit,cycle,density")
    for unit, series in sampler.series.items():
        for cycle, density in series:
            print(f"{unit},{cycle},{density}")


def _build_argparser() -> _Parser:
    parser = _Parser(prog="mmsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="parse and lint a model file")
    p_val.add_argument("file")

    p_run = sub.add_parser("run", help="run a model file")
    p_run.add_argument("file")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--max-steps", type=int, default=10_000)
    p_run.add_argument("--trace", metavar="FILE")
    p_run.add_argument("--snapshot-every", type=int, default=1)

    p_bone = sub.add_parser("bone", help="run the bone remodelling study")
    p_bone.add_argument("--units", type=int, default=1)
    p_bone.add_argument("--density", type=float, default=0.5)
    p_bone.add_argument("--capacity", type=int, default=20)
    p_bone.add_argument("--oc", type=int, default=0)
    p_bone.add_argument("--ob", type=int, default=0)
    p_bone.add_argument("--cycles", type=int, default=1)
    p_bone.add_argument("--seed", type=int, default=0)
    p_bone.add_argument("--emit-model", metavar="FILE")
    p_bone.add_argument("--trace", metavar="FILE")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the only place where a failure becomes its
    error line and exit status."""
    try:
        args = _build_argparser().parse_args(argv)
        status = EXIT_OK
        if args.command == "validate":
            if _validate(args.file):
                status = EXIT_MODEL
        elif args.command == "run":
            _run(args.file, args.seed, args.max_steps, args.trace, args.snapshot_every)
        else:
            params = BoneParams(capacity=args.capacity, density=args.density, oc=args.oc,
                                ob=args.ob, cycles=args.cycles, units=args.units)
            _bone(params, args.seed, args.emit_model, args.trace)
        sys.stdout.flush()
        return status
    except ParseError as exc:
        print(f"{args.file}:{exc.line}:{exc.column}: error: {exc.message}", file=sys.stderr)
        return EXIT_MODEL
    except EngineError as exc:
        where = "" if exc.step is None else f"step {exc.step}: "
        print(f"error: {where}{exc}", file=sys.stderr)
        return EXIT_MODEL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except OSError as exc:
        if exc.filename is None:
            # Only stdout is written without a name: its reader is gone or
            # its device is full.  Point fd 1 at the null device so that the
            # flush at interpreter exit drops the unwritten rest.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"{exc.filename or '<stdout>'}: error: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
