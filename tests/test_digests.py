"""Byte-identity gate: pinned sha256 digests of `RunResult.canonical_json()`.

Any change to scheduling, loss accounting or result packaging that alters
output bytes fails here. The digests were recorded before the live-set
horizon loop replaced the scan over every arrived request; re-record
them only for a change that is meant to alter outputs, and say so in
CHANGES.md.
"""

import hashlib

import pytest

from gridflex import engine, workload
from gridflex.workload import GenSpec, IngestSpec

SCHEDULERS = ("heuristic", "edf", "hp")

PINNED = {
    "ev-0": {
        "heuristic": "b32f7c8e3bf202da5d81d243c655d1210e4e1cb10e9e3d2b9214784a61eea37a",
        "edf": "30335d3516f97688c23e1e6bf6509e6483cd222ed6da73df246c8fc27869481d",
        "hp": "ca15a7959f2893ce7888a5b1bd2b94623715d103a434de655c237f6a3d9b9124",
    },
    "ev-1": {
        "heuristic": "916c0615b2ccb6286c6273dbcdd3e4e3006090f897e3df2ea681e6e7f079f936",
        "edf": "9ed1fd27cc23213297d1348caba36ca953906ab94c27ac3776fc97cedf5fbd62",
        "hp": "757391d6b9f77aa4f7f3eb452ab2ef6ca54a5b26b787f259b99a3a3f8f0906f1",
    },
    "ev-2": {
        "heuristic": "efbf807300f4b86ad39364a794d8a1f2afd4a6d659c82c8a286ea9f4602cb168",
        "edf": "dbe3fb91e440a9cffa206bc4fd5aa15f3d88678c7ddac5c234d0088f45d748a7",
        "hp": "4beb0756420e3403d4c113144e8f94ffc66fcfc8d1111cc08bf406cb3c441740",
    },
    "gen-100": {
        "heuristic": "433bdf106a76e61c0e6c08af86f68b99d0ce6cdf6dd1408f06ca550bca9dc289",
        "edf": "5f41b31940b8f9bffe0c11a645e48b23b49defbaf17951976084bb2327c92130",
        "hp": "2858511d230663ba8403eeb2f12a95bafef7bb53910cb51f8aecbb578336e37c",
    },
    "gen-400": {
        "heuristic": "e737e428cb9421e34999bd5aa36ca9cdea112c54b1de8420bbe3a99445bd071a",
        "edf": "f2329d7a374393e025e0d06ab45508dda2c86b5210c532879965e9ad0dfd36ae",
        "hp": "19f6ccf20a1031490ba076ae9ece0f189e96c7ea2fd1ef1fdcf9ea4877985d7d",
    },
}


def scenario_for(name):
    kind, number = name.split("-")
    if kind == "ev":
        records, _ = workload.parse_sessions(workload.bundled_replica_text())
        scenario, _ = workload.ingest_sessions(records, IngestSpec(seed=int(number)))
        return scenario
    return workload.generate(
        GenSpec(num_devices=int(number), class_combo=("L", "L", "M", "M", "H"), seed=3)
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_canonical_json_digests(name):
    scenario = scenario_for(name)
    got = {
        scheduler: hashlib.sha256(
            engine.run(scenario, scheduler).canonical_json().encode()
        ).hexdigest()
        for scheduler in SCHEDULERS
    }
    assert got == PINNED[name]
