"""``MAX_DEPTH`` as a tree invariant: built trees, configurations and runs
keep to it, and the recursive tree code works at it."""

from __future__ import annotations

import pytest

from mmsim.cli import main
from mmsim.core import (
    MAX_DEPTH,
    Configuration,
    InvalidConfigurationError,
    Membrane,
    build_configuration,
    render_tree,
)
from mmsim.engine import DepthExceeded, run, step
from mmsim.oracle import canonical_form, oracle_successors
from mmsim.parser import parse_model, serialize_model
from mmsim.rng import SplitMix64


def nested_tree(depth: int) -> tuple:
    """``(label, contents, children)`` of *depth* ``a`` membranes, each
    inside the last; built without recursion."""
    tree = ("a", {"x": 1}, [])
    for _ in range(depth - 1):
        tree = ("a", {"x": 1}, [tree])
    return tree


def chain_text(depth: int) -> str:
    return "[a: x " * depth + "]" * depth + "\nrule r: in a: x -> y\n"


def y_chains(chains: int, depth: int, loaded: int) -> str:
    """*chains* chains of *depth* ``y`` membranes in the skin, the
    outermost ``y`` of the first *loaded* holding ``go*5000``; every step
    moves each loaded chain into a sibling chain, so the tree deepens."""
    heads = ["[y: go*5000 " if i < loaded else "[y: " for i in range(chains)]
    body = " ".join(head + "[y: " * (depth - 1) + "]" * depth for head in heads)
    return f"[skin: {body}]\nrule r: endo y into y: go -> go\n"


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 2000])
def test_build_configuration_rejects_deep_trees(depth):
    with pytest.raises(ValueError, match=f"deeper than {MAX_DEPTH} levels"):
        build_configuration(nested_tree(depth))


def test_configuration_rejects_a_deep_membrane_chain():
    chain = Membrane(MAX_DEPTH, "a")
    for mid in range(MAX_DEPTH - 1, -1, -1):
        chain = Membrane(mid, "a", children=(chain,))
    with pytest.raises(InvalidConfigurationError) as failure:
        Configuration(chain)
    assert failure.value.violations == [
        f"too-deep: membrane {MAX_DEPTH} nests deeper than {MAX_DEPTH} levels"]
    assert Configuration(chain.children[0]).skin.id == 1


def padded(frames: int, call):
    """``call()`` run under *frames* extra Python frames."""
    return call() if frames == 0 else padded(frames - 1, call)


def test_recursive_tree_code_works_at_max_depth():
    text = chain_text(MAX_DEPTH)
    model, twin = parse_model(text), parse_model(text)
    config = model.config
    operations = {
        "parse": lambda: parse_model(text),
        "build": lambda: build_configuration(nested_tree(MAX_DEPTH)),
        "==": lambda: config == twin.config,
        "hash": lambda: hash(config),
        "repr": lambda: repr(config),
        "serialize": lambda: serialize_model(model),
        "render_tree": lambda: render_tree(config.skin),
        "canonical_form": lambda: canonical_form(config),
        "oracle_successors": lambda: oracle_successors(config, model.rules, bound=MAX_DEPTH),
        "step": lambda: step(config, model.rules, SplitMix64(0)),
        "run().final": lambda: run(model).final,
    }
    for name, call in operations.items():
        assert padded(100, call) is not None, name


def test_moves_nesting_past_max_depth_raise_depth_exceeded():
    model = parse_model(y_chains(5, 100, 4))
    with pytest.raises(DepthExceeded, match=f"deeper than {MAX_DEPTH} levels") as failure:
        run(model, max_steps=3000)
    assert failure.value.step == 14


def test_moves_nesting_past_max_depth_are_one_error_line(tmp_path, capsys):
    model = tmp_path / "chains.mm"
    model.write_text(y_chains(5, 100, 4))
    assert main(["run", str(model), "--max-steps", "3000"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("error: step 14: ")
