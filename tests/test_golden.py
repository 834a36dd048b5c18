"""Traces pinned across commits: SHA-256 digests of ``dump_trace`` output,
and of the trace files the command line writes while the run goes on.  The
bone study's density CSV and ``density_series`` rows are pinned the same way.

A change to the engine, the generator, the trace format or the density
sampler that alters any of these outputs must say why, and update the
digests with it.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from mmsim.bone import BoneParams, build_bone_model, density_series
from mmsim.cli import main
from mmsim.engine import EngineOptions, run
from mmsim.parser import Model, parse_model
from mmsim.tracefile import dump_trace, model_hash

CORPUS = Path(__file__).parent / "corpus" / "valid"

CORPUS_DIGESTS = {
    ("bone_default.mm", 0): "6d369e348a6aabaff758f0d1e3f4a151762b6175d7f158e33b7b8e1c4b9ec849",
    ("bone_default.mm", 3): "34cbb5f7731c88c94085d4fe0e411c1f84fbe1538e436243eba5448970c58c8d",
    ("bone_default.mm", 7): "74c4317f379da51aef9a85d0696fc3d52a7a947299182a662f469340f7f28cdd",
    ("minimal.mm", 0): "386d82a183f7c6600a10a0d26a277538130a3118301fa04ff150d32007da2ce6",
    ("minimal.mm", 3): "7113cfa0521065434d4aa28629886b9ed582df68d3d073693c7c0968b1c1a7e5",
    ("minimal.mm", 7): "d52dfca6e4ae1f8ffcd226d0999b9ca3a4c60232764f972240bbc9c4a1e8ab2e",
    ("nested.mm", 0): "753326223c91b562b560548d3239e3799e88e8eab214024ddbadffff0a341e5a",
    ("nested.mm", 3): "7c994da57e3ed5a4310776f7495846c250fca4823e82ab1e7d871b963a48853b",
    ("nested.mm", 7): "e33d0783efb1c0b692c3ecbc851210d2e0cb630da605dc998e7eabc9bb28d34c",
    ("transfer.mm", 0): "8fe00e25e97c137fa861c6962ddf93a10941927a5cad1dbb7f84399a01e01e23",
    ("transfer.mm", 3): "0202c4e603c779b7cda0171d6aa8957028392ca2208616f376d5111c102919ca",
    ("transfer.mm", 7): "7fb00a4bc8e5b50d2214c81deb9942b26ea7dd7158bbaa1f680f0721953d896c",
    ("two_hosts.mm", 0): "b974d72dbd5cd0b0782463f2bf7316a9f0c00f39ca6f88fd64ac1574b8ba909e",
    ("two_hosts.mm", 3): "1375f8698c8a2841450453bcf3753d5dc56222afe4d95c2aae7bb71b7ae2e822",
    ("two_hosts.mm", 7): "ca503161024d10f369efcef94dc3467c48cca2b33656b4218cc429776994282b",
    ("warn.mm", 0): "b5538ce958801e251d7abe42b1c9dd5a4dc4802b2a843eea059bb5aeb44c8019",
    ("warn.mm", 3): "ea18afc73872d78beaf8cd8640c5ba70433598b685384ef5c6da83684c38309c",
    ("warn.mm", 7): "be2679b79a2cec4009cdc70b485fe1d8472766cedcb7ee015f321a92c14512bd",
}

# build_bone_model(BoneParams(units=3, cycles=4, oc=3, ob=1)), by seed.
BONE_DIGESTS = {
    0: "fe451becbb757ad73bd9b5e492164103c21d2ed8aa3a86f7a9fbc599bc6f835f",
    1: "5038815d6518053905bd9294df89d1e2cd8324d17f1562b90899892f3fd3077e",
    2: "e194d4a768ef38c566f0d8a2c91656553f2bd0ac73bc9a5427f017e9c15df28d",
    3: "5fd7696c90a2110d2d2f286e5e4da74cb6d45b17ae8fae9bbd7bf0cc74939ca0",
    4: "975b8326dee2a1a0439320856355fd06bb2fca09ee3a96954b1cde4da7867622",
    5: "9c9e70d0795364ee8793a1e64b2d55482cf41b1a37d6604d952f25b9bfb5f1ef",
    6: "92560def53e05e884278c2f638822768725612560441cd869bbffe8f8aced527",
    7: "85d501c645b93cfdc860b5ab60c62b0266316d0ee1844638a9b1e59a8e8ff138",
    8: "0756ee24264c2afa03d3f352799cd7bcba4939aa27fd4d7f804af62a398e1ace",
    9: "1ff2fc057122c2aca14682fbcf5c64f2d7baeb6b1916041bd257b66bb17bbf8a",
}


def trace_digest(model: Model, seed: int) -> str:
    trace = run(model, EngineOptions(seed=seed), max_steps=200)
    return hashlib.sha256(dump_trace(trace, model_hash(model)).encode("utf-8")).hexdigest()


def test_corpus_is_covered():
    assert {name for name, _ in CORPUS_DIGESTS} == {p.name for p in CORPUS.glob("*.mm")}


@pytest.mark.parametrize("name,seed", sorted(CORPUS_DIGESTS))
def test_corpus_trace_digest(name, seed):
    model = parse_model((CORPUS / name).read_bytes())
    assert trace_digest(model, seed) == CORPUS_DIGESTS[name, seed]


def test_bone_trace_digests():
    model = build_bone_model(BoneParams(units=3, cycles=4, oc=3, ob=1))
    assert {seed: trace_digest(model, seed) for seed in BONE_DIGESTS} == BONE_DIGESTS


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name,seed", sorted(CORPUS_DIGESTS))
def test_cli_corpus_trace_file_digest(name, seed, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["run", str(CORPUS / name), "--seed", str(seed), "--max-steps", "200",
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert file_digest(trace) == CORPUS_DIGESTS[name, seed]


def test_cli_bone_trace_file_digests(tmp_path, capsys):
    digests = {}
    for seed in BONE_DIGESTS:
        trace = tmp_path / f"{seed}.jsonl"
        assert main(["bone", "--units", "3", "--cycles", "4", "--oc", "3", "--ob", "1",
                     "--seed", str(seed), "--trace", str(trace)]) == 0
        digests[seed] = file_digest(trace)
    capsys.readouterr()
    assert digests == BONE_DIGESTS


def csv_digest(capsys, *args: str) -> str:
    capsys.readouterr()
    assert main(["bone", *args]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


# ``mmsim bone --units 3 --cycles 4 --oc 3 --ob 1`` stdout; the study is
# confluent, so every seed prints the same CSV.
BONE_CSV_DIGEST = "9dc250c62537c05ceaffaec3238769596f6c0d5edc958f01fdcd9ee65f236bde"


@pytest.mark.parametrize("seed", range(10))
def test_cli_bone_csv_digest(seed, capsys):
    digest = csv_digest(capsys, "--units", "3", "--cycles", "4", "--oc", "3", "--ob", "1",
                        "--seed", str(seed))
    assert digest == BONE_CSV_DIGEST


@pytest.mark.parametrize("args,digest", [
    # Nothing to deposit in any cycle, so the last one fires no rule at all.
    (("--units", "2", "--cycles", "3", "--density", "0", "--oc", "0", "--ob", "0"),
     "90edd05565fb6cc43cfb7d905012ea53da93807810fc2198baca41a7ca19b3d6"),
    # The first cycle resorbs everything; the second carries nothing back.
    (("--density", "1", "--oc", "25", "--ob", "0", "--cycles", "2"),
     "4186402db09f9d06e50b7cfa89124677bf2fa60dcb68acf12e30bf807a0670f4"),
    (("--cycles", "0"), "f718835f71deeebf19b4f1a2f4a22925567d4efe2ef6ea904f09b6e8c31aa892"),
])
def test_cli_bone_edge_csv_digests(args, digest, capsys):
    assert csv_digest(capsys, *args) == digest


@pytest.mark.parametrize("max_steps,rows", [
    (7, []),
    (14, [(1, 0.4)]),
    (20, [(1, 0.4)]),
])
def test_density_series_of_a_cut_run(max_steps, rows):
    params = BoneParams(units=2, cycles=2, oc=3, ob=1)
    trace = run(build_bone_model(params), EngineOptions(seed=0), max_steps=max_steps)
    assert len(trace.steps) == max_steps
    assert [density_series(trace, unit, params.capacity) for unit in (1, 2)] == [rows, rows]
