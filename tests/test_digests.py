"""Byte-identity gate: pinned sha256 digests of `RunResult.canonical_json()`.

Any change to scheduling, loss accounting or result packaging that alters
output bytes fails here. The digests were recorded before the live-set
horizon loop replaced the scan over every arrived request; re-record
them only for a change that is meant to alter outputs, and say so in
CHANGES.md.

`SCENARIO_PINNED` pins the scenario documents themselves, so a change to
generation, ingestion or the micro-instance draw shows here even where
no run digest covers it. Those digests were recorded before the builder
options became module constants.
"""

import hashlib
import json

import pytest

from gridflex import engine, workload
from gridflex.model import scenario_to_dict
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


SCENARIO_PINNED = {
    "gen-n20-LLMMH-m50-s0": "de019e00b79fdabe119c8b4bb20f664df23e94b1b9058ff77b2a95f4347f60f6",
    "gen-n20-LLLMH-m25-s1": "8cdee7f7d528a0958eee5f4429fb3191ffbddf9430b9c3e4e305105d7f08c772",
    "gen-n20-LMMMH-m100-s2": "200f897b4c352f13f289c60e341a1f94be6d215cc63b92d1bfc7b10f89a3c9fd",
    "gen-n20-LLMHH-m0-s3": "6ba472f44781b489156fbae7a6ca4fe406d96509e50af379c9ce995a275d7c0f",
    "gen-n100-LLMMH-m50-s3": "a647f99ff68d9b7af0797ee7dd1a90daa624aa0166b7b199925787b6c90072c1",
    "gen-n100-LMMMH-m75-s4": "b65b0bc6dc5168d84a19c852e68d90b79b84375352604cadaadf837a19e26f31",
    "gen-n100-LLMHH-m25-s5": "335fba25e68643d9b166dae71a4757b3a73297ef877c2dc6e7597a7042508f96",
    "gen-n100-LLLMH-m100-s6": "c728125514abf5a7cbde5867ae1714c4567d4a853d080bad00eace801d954c45",
    "ev-m50-s0": "1d25377a7aa791360f10851d1ba42a2dd56fca5c46e32aa5cb13e61a3c34d9c0",
    "ev-m25-s0": "ee34b56ed03be342705b72f2ce1266831847791d658b175ddeb38f1330f428dc",
    "ev-m50-s1": "20f1a8113314b8b34c4c4eebe0073d284b471f8af5736755989dce3bbca84d78",
    "ev-m25-s1": "b0d9fe80becd3914f75f9df91d4c3d101710889efd5ca6c00da580509554884b",
    "ev-m50-s2": "10ceaed45339ee083272f9f90ab9547ba3c057bea9741fda39ebba44b5c36f4d",
    "ev-m25-s2": "140743986eb041aac2f94a1a837e1eee4baccb9f73893f129d0ac8bd80948892",
    "micro-default": "03ec15619a426dcb9ab50bc5c8a21ed5ec7074a5378e49866b3f015c61b40cda",
    "micro-corpus-caps": "343714b6113d62416bcfe84628c4fb5765a619099828418747d71e197a49ad58",
}


def scenario_docs_for(name):
    kind, *fields = name.split("-")
    if kind == "gen":
        n, combo, mobile, seed = fields
        spec = GenSpec(
            num_devices=int(n[1:]),
            class_combo=tuple(combo),
            mobile_fraction=int(mobile[1:]) / 100,
            seed=int(seed[1:]),
        )
        return scenario_to_dict(workload.generate(spec))
    if kind == "ev":
        mobile, seed = fields
        records, _ = workload.parse_sessions(workload.bundled_replica_text())
        spec = IngestSpec(seed=int(seed[1:]), mobile_fraction=int(mobile[1:]) / 100)
        return scenario_to_dict(workload.ingest_sessions(records, spec)[0])
    # the corpus caps are the ones perfbench/record.py draws its oracle corpus with
    caps = {} if fields == ["default"] else dict(max_devices=4, max_slots=8, max_aggregators=3)
    return [scenario_to_dict(s) for s in workload.micro_instances(10, seed=0, **caps)]


@pytest.mark.parametrize("name", sorted(SCENARIO_PINNED))
def test_scenario_digests(name):
    text = json.dumps(scenario_docs_for(name), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SCENARIO_PINNED[name]
