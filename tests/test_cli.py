"""CLI subcommands, exit codes, and output idempotence."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridflex
from gridflex import engine, heuristic, workload
from gridflex.cli import EXIT_CAP, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from gridflex.model import (
    DeviceRequest,
    Move,
    Scenario,
    Serve,
    SystemConfig,
    load_scenario,
    save_scenario,
    uniform_movement,
)


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    code = main(
        [
            "generate",
            "--devices", "20",
            "--classes", "L,L,M,M,H",
            "--seed", "7",
            "--out", str(path),
        ]
    )
    assert code == EXIT_OK
    return path


@pytest.fixture()
def micro_file(tmp_path):
    from gridflex.model import save_scenario

    scenario = workload.micro_instances(1, seed=3)[0]
    path = tmp_path / "micro.json"
    save_scenario(scenario, path)
    return path


def write_mutated(source, tmp_path, mutate):
    """A copy of the scenario at `source` with `mutate` applied to its document."""
    doc = json.loads(source.read_text())
    mutate(doc)
    path = tmp_path / f"{mutate.__name__.lstrip('_')}.json"
    path.write_text(json.dumps(doc))
    return path


def _no_budgets(doc):
    doc["config"]["budgets_kw"] = []


def _every_home_nine(doc):
    for dev in doc["devices"]:
        dev["home"] = 9


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def assert_usage_error(argv, capsys, argument):
    """Exit 1 with one stderr line naming the bad argument."""
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: argument {argument}: " in err
    assert err.count("\n") == 1


class TestGenerate:
    def test_writes_valid_scenario(self, scenario_file):
        scenario = load_scenario(scenario_file)
        assert len(scenario.devices) > 0

    def test_idempotent_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["generate", "--devices", "20", "--seed", "5"]
        assert main(args + ["--out", str(p1)]) == EXIT_OK
        assert main(args + ["--out", str(p2)]) == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()

    def test_infeasible_band_exit_code(self, tmp_path):
        code = main(
            ["generate", "--devices", "2", "--classes", "H,H,H,H,H",
             "--seed", "0", "--out", str(tmp_path / "x.json")]
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--devices", "-5"),
            ("--devices", "0"),
            ("--devices", "ten"),
            ("--classes", "X"),
            ("--classes", "L,,M"),
            ("--mobile-fraction", "nan"),
            ("--mobile-fraction", "-0.25"),
            ("--mobile-fraction", "1.5"),
            ("--mobile-fraction", "inf"),
            ("--seed", "-1"),
        ],
    )
    def test_bad_argument_usage_error(self, option, value, capsys):
        argv = ["generate", "--devices", "20", option, value]
        assert_usage_error(argv, capsys, option)


class TestRun:
    def test_run_and_validate_round_trip(self, scenario_file, tmp_path):
        out = tmp_path / "result.json"
        code = main(["run", str(scenario_file), "--scheduler", "edf", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["scheduler"] == "edf"
        code = main(["validate", str(scenario_file), str(out)])
        assert code == EXIT_OK

    def test_run_idempotent_modulo_timing(self, scenario_file, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert main(["run", str(scenario_file), "--out", str(out)]) == EXIT_OK
        d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        d1.pop("slot_wall_s")
        d2.pop("slot_wall_s")
        assert d1 == d2

    def test_output_is_the_dumped_result(self, tmp_path, monkeypatch, capsys):
        # ids that JSON must escape; each output must be the strict, sorted
        # dump of the result the engine returned, plus a newline
        micro = workload.micro_instances(1, seed=4, max_devices=4)[0]
        ids = ['a"b', "c\\d", "t\tb", "é"]
        devices = tuple(dataclasses.replace(d, id=i) for d, i in zip(micro.devices, ids))
        assert len(devices) == len(ids)
        path = tmp_path / "ids.json"
        save_scenario(dataclasses.replace(micro, devices=devices), path)
        results, real_run = [], engine.run

        def recording_run(*args, **kwargs):
            results.append(real_run(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(engine, "run", recording_run)
        out = tmp_path / "result.json"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        assert main(["run", str(path)]) == EXIT_OK
        stdout = capsys.readouterr().out
        want = [
            json.dumps(r.to_dict(), sort_keys=True, allow_nan=False) + "\n" for r in results
        ]
        assert [out.read_text(), stdout] == want
        assert set(json.loads(stdout)["decisions"]) == {d.id for d in devices}

    def test_table_format(self, scenario_file, capsys):
        assert main(["run", str(scenario_file), "--format", "table"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "total loss" in out

    def test_table_text_unchanged(self, tmp_path, capsys):
        # pinned text: the table reads the RunResult, not its JSON document
        path = tmp_path / "micro.json"
        save_scenario(workload.micro_instances(1, seed=9)[0], path)
        assert main(["run", str(path), "--format", "table"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "scenario   micro-s9-0\n"
            "scheduler  heuristic (mobility=on)\n"
            "total loss 97.5487\n"
            "\n"
            "device\tloss\tprogress_kwh\tcompleted\n"
            "m0\t0.0000\t5.64\tyes\n"
            "m1\t5.8077\t0.00\tno\n"
            "m2\t91.7411\t0.00\tno\n"
        )

    def test_unknown_scheduler_usage_error(self, scenario_file):
        assert main(["run", str(scenario_file), "--scheduler", "fifo"]) == EXIT_USAGE

    def test_missing_file(self):
        assert main(["run", "/nonexistent/sc.json"]) == EXIT_USAGE

    def test_mobility_flag(self, scenario_file, tmp_path):
        out = tmp_path / "m.json"
        assert main(["run", str(scenario_file), "--mobility", "off", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["mobility_enabled"] is False


class TestValidateCommand:
    def test_corrupted_result_fails(self, scenario_file, tmp_path):
        out = tmp_path / "result.json"
        main(["run", str(scenario_file), "--out", str(out)])
        doc = json.loads(out.read_text())
        dev_id = sorted(doc["decisions"])[0]
        doc["decisions"][dev_id][0] = "S:1:99"
        out.write_text(json.dumps(doc))
        assert main(["validate", str(scenario_file), str(out)]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "mutate", [_no_budgets, _every_home_nine], ids=lambda f: f.__name__.lstrip("_")
    )
    def test_invalid_scenario_one_line(self, mutate, scenario_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["run", str(scenario_file), "--out", str(out)]) == EXIT_OK
        bad = write_mutated(scenario_file, tmp_path, mutate)
        assert main(["validate", str(bad), str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scenario invalid: ")
        assert captured.err.count("\n") == 1

    def test_malformed_schedule_one_line(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["run", str(scenario_file), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        del doc["decisions"][sorted(doc["decisions"])[0]]
        out.write_text(json.dumps(doc))
        assert main(["validate", str(scenario_file), str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("malformed schedule: ")
        assert err.count("\n") == 1


class TestMalformedInput:
    """Bad input documents exit with code 2 and one stderr line, never a traceback."""

    def assert_rejected(self, argv, capsys):
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("malformed input: ")
        assert err.count("\n") == 1

    def test_run_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"config": ')
        self.assert_rejected(["run", str(bad)], capsys)

    def test_validate_malformed_scenario_json(self, tmp_path, scenario_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        self.assert_rejected(["validate", str(bad), str(scenario_file)], capsys)

    def test_validate_malformed_result_json(self, tmp_path, scenario_file, capsys):
        bad = tmp_path / "result.json"
        bad.write_text("[1, 2")
        self.assert_rejected(["validate", str(scenario_file), str(bad)], capsys)

    def test_validate_result_without_decisions(self, tmp_path, scenario_file, capsys):
        bad = tmp_path / "result.json"
        bad.write_text(json.dumps({"scheduler": "heuristic"}))
        self.assert_rejected(["validate", str(scenario_file), str(bad)], capsys)

    def test_run_missing_movement_pair(self, tmp_path, scenario_file, capsys):
        doc = json.loads(scenario_file.read_text())
        del doc["config"]["movement"]["pairs"][0]
        bad = tmp_path / "missing_pair.json"
        bad.write_text(json.dumps(doc))
        self.assert_rejected(["run", str(bad)], capsys)

    def test_run_unknown_schema_version(self, tmp_path, scenario_file, capsys):
        # `true` is not the integer 1
        doc = json.loads(scenario_file.read_text())
        for version in (99, True):
            doc["schema_version"] = version
            bad = tmp_path / f"v{version}.json"
            bad.write_text(json.dumps(doc))
            self.assert_rejected(["run", str(bad)], capsys)

    @pytest.mark.parametrize(
        "path",
        [
            ("devices", 0, "arrival_slot"),
            ("devices", 0, "deadline_slot"),
            ("devices", 0, "home"),
            ("config", "horizon_slots"),
            ("config", "movement", "pairs", 0, "delay_slots"),
        ],
        ids=lambda path: path[-1],
    )
    def test_run_infinite_integer_field(self, path, tmp_path, scenario_file, capsys):
        # JSON's Infinity loads as a float that int() cannot convert
        doc = json.loads(scenario_file.read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = math.inf
        bad = tmp_path / "infinite.json"
        bad.write_text(json.dumps(doc))
        self.assert_rejected(["run", str(bad)], capsys)

    @pytest.mark.parametrize("value", [0.7, True], ids=["fraction", "boolean"])
    @pytest.mark.parametrize(
        "path",
        [
            ("devices", 0, "arrival_slot"),
            ("devices", 0, "deadline_slot"),
            ("devices", 0, "home"),
            ("config", "horizon_slots"),
            ("config", "num_aggregators"),
            ("config", "movement", "num_aggregators"),
            ("config", "movement", "pairs", 0, "from"),
            ("config", "movement", "pairs", 0, "to"),
            ("config", "movement", "pairs", 0, "delay_slots"),
        ],
        ids=lambda path: "movement." + path[-1] if "movement" in path else path[-1],
    )
    def test_run_inexact_integer_field(self, path, value, tmp_path, scenario_file, capsys):
        # neither is truncated to an integer: 0.7 is not 0 and true is not 1
        doc = json.loads(scenario_file.read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        bad = tmp_path / "inexact.json"
        bad.write_text(json.dumps(doc))
        self.assert_rejected(["run", str(bad)], capsys)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, 0.7, None], ids=repr)
    def test_run_non_boolean_mobile(self, value, tmp_path, scenario_file, capsys):
        # bool() would make "false" true; only JSON true and false are flags
        doc = json.loads(scenario_file.read_text())
        doc["devices"][0]["mobile"] = value
        bad = tmp_path / "mobile.json"
        bad.write_text(json.dumps(doc))
        self.assert_rejected(["run", str(bad)], capsys)

    @pytest.mark.parametrize("value", [None, 7, 7.0, True], ids=repr)
    @pytest.mark.parametrize("path", [("id",), ("devices", 0, "id")], ids=["scenario", "device"])
    def test_run_non_string_id(self, path, value, tmp_path, scenario_file, capsys):
        # str() would make null the id 'None' and 7 the id '7'
        doc = json.loads(scenario_file.read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        bad = tmp_path / "id.json"
        bad.write_text(json.dumps(doc))
        self.assert_rejected(["run", str(bad)], capsys)

    def test_run_undecodable_bytes(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"scenario_id": "caf\xe9"}')
        self.assert_rejected(["run", str(bad)], capsys)

    def test_validate_undecodable_result(self, tmp_path, scenario_file, capsys):
        bad = tmp_path / "result.json"
        bad.write_bytes(b"\xff\xfe")
        self.assert_rejected(["validate", str(scenario_file), str(bad)], capsys)

    def test_ingest_undecodable_bytes(self, tmp_path, capsys):
        bad = tmp_path / "sessions.csv"
        bad.write_bytes(b"arrival,departure,kwh,station\n\xff\n")
        self.assert_rejected(["ingest", str(bad)], capsys)

    @pytest.mark.parametrize("command", ["run", "ingest"])
    def test_unreadable_path_usage_error(self, command, tmp_path, capsys):
        assert main([command, str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"cannot open {tmp_path}: ")
        assert err.count("\n") == 1

    def test_validate_non_integer_action_field(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "result.json"
        assert main(["run", str(scenario_file), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        doc["decisions"][sorted(doc["decisions"])[0]][0] = "S:x:0"
        out.write_text(json.dumps(doc))
        self.assert_rejected(["validate", str(scenario_file), str(out)], capsys)

    @pytest.mark.parametrize(
        "action",
        [
            "S: 1:0",
            "S:01:0",
            "S:1_0:0",
            # more digits than int() converts
            pytest.param("S:" + "1" * 5000 + ":0", id="S:5000-digits:0"),
        ],
    )
    def test_validate_non_canonical_action(self, action, tmp_path, scenario_file, capsys):
        # int() would read each as a valid field: " 1" and "01" as 1, "1_0" as 10
        out = tmp_path / "result.json"
        assert main(["run", str(scenario_file), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        doc["decisions"][sorted(doc["decisions"])[0]][0] = action
        out.write_text(json.dumps(doc))
        self.assert_rejected(["validate", str(scenario_file), str(out)], capsys)

    @pytest.mark.parametrize("command", ["run", "validate", "solve-exact"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            ("unknown", "bad scenario document: unknown key 'beta_maxx' in config"),
            ("missing", "bad scenario document: missing key 'home' in device"),
            ("repeated", "repeated key 'horizon_slots'"),
        ],
        ids=["unknown-key", "missing-key", "repeated-key"],
    )
    def test_document_read_whole(self, command, edit, message, micro_file, capsys):
        # each ran with exit 0: the unknown and the first repeated key unread
        doc = json.loads(micro_file.read_text())
        if edit == "unknown":
            doc["config"]["beta_maxx"] = 1.0
        if edit == "missing":
            del doc["devices"][0]["home"]
        text = json.dumps(doc)
        if edit == "repeated":
            text = text.replace('"horizon_slots": ', '"horizon_slots": 3, "horizon_slots": ', 1)
        micro_file.write_text(text)
        # `validate` stops at the scenario, before reading the result
        args = [command, str(micro_file)] + [str(micro_file)] * (command == "validate")
        assert main(args) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"malformed input: {message}\n"

    def test_validate_repeated_result_key(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "result.json"
        assert main(["run", str(scenario_file), "--out", str(out)]) == EXIT_OK
        text = out.read_text().replace('"decisions": {', '"decisions": {}, "decisions": {', 1)
        out.write_text(text)
        assert main(["validate", str(scenario_file), str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "malformed input: repeated key 'decisions'\n"

    def test_validate_string_rows(self, tmp_path, scenario_file, capsys):
        # an all-Idle row written as one string must not be walked letter by letter
        out = tmp_path / "result.json"
        assert main(["run", str(scenario_file), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        doc["decisions"] = {dev_id: "I" * len(row) for dev_id, row in doc["decisions"].items()}
        out.write_text(json.dumps(doc))
        self.assert_rejected(["validate", str(scenario_file), str(out)], capsys)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"schema_version": ' + "1" * 5001 + "}", "Exceeds the limit (4300 digits)"),
            ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["5001-digit-integer", "100000-deep-nesting"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "{bad}"],
            ["validate", "{bad}", "{micro}"],
            ["validate", "{micro}", "{bad}"],
            ["solve-exact", "{bad}"],
            ["experiment", "baseline-compare", "--scenario", "{bad}"],
        ],
        ids=["run", "validate-scenario", "validate-result", "solve-exact", "baseline-compare"],
    )
    def test_json_past_parser_limits(self, text, message, argv, micro_file, tmp_path, capsys):
        # each was a ValueError or RecursionError traceback with exit 1
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        argv = [a.format(bad=bad, micro=micro_file) for a in argv]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"malformed input: {message}")
        assert err.count("\n") == 1

    def test_ingest_csv_field_past_limit(self, tmp_path, capsys):
        # a csv.Error traceback with exit 1
        bad = tmp_path / "sessions.csv"
        bad.write_text("arrival,departure,kwh,station\n" + "x" * 131_073 + ",a,1,s\n")
        assert main(["ingest", str(bad)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "malformed input: unreadable session records: field larger than field limit (131072)\n"
        )


def _nan_initial_energy(doc):
    doc["devices"][0]["initial_energy_kwh"] = math.nan


def _nan_mode_level(doc):
    doc["devices"][0]["modes_kw"][0] = math.nan


def _infinite_top_mode(doc):
    doc["devices"][0]["modes_kw"][-1] = math.inf


def _nan_movement_cost(doc):
    doc["config"]["movement"]["pairs"][0]["cost_kwh_per_slot"] = math.nan


class TestNonFiniteInput:
    """JSON's NaN and Infinity literals load as floats; `run` must refuse them."""

    @pytest.mark.parametrize(
        "mutate",
        [_nan_initial_energy, _nan_mode_level, _infinite_top_mode, _nan_movement_cost],
        ids=lambda f: f.__name__.lstrip("_"),
    )
    def test_run_rejects(self, mutate, tmp_path, scenario_file, capsys):
        doc = json.loads(scenario_file.read_text())
        mutate(doc)
        bad = tmp_path / "non_finite.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("scenario invalid: ")
        assert "finite" in err


def _move_pair(key, value):
    def mutate(doc):
        doc["config"]["movement"]["pairs"][0][key] = value

    return mutate


def _no_movement_aggregators(doc):
    doc["config"]["movement"]["num_aggregators"] = 0


class TestInvalidMovement:
    """A movement value of the right JSON type is checked by validate_config:
    an out-of-range delay or cost, or a matrix of the wrong size, is an
    invalid scenario, not a malformed document."""

    @pytest.mark.parametrize(
        "mutate, line",
        [
            (_move_pair("delay_slots", 0), "movement[0][1].delay_slots: delay >= 1 slot"),
            (_move_pair("delay_slots", -2), "movement[0][1].delay_slots: delay >= 1 slot"),
            (_move_pair("cost_kwh_per_slot", -0.1), "movement[0][1].cost_kwh_per_slot: cost >= 0"),
            (_no_movement_aggregators, "movement: matrix size matches aggregator count"),
        ],
        ids=["zero-delay", "negative-delay", "negative-cost", "no-movement-aggregators"],
    )
    def test_run_rejects(self, mutate, line, tmp_path, scenario_file, capsys):
        doc = json.loads(scenario_file.read_text())
        mutate(doc)
        bad = tmp_path / "movement.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"scenario invalid: <config>: {line}\n"

    @pytest.mark.parametrize("command", ["run", "validate", "solve-exact"])
    def test_delay_past_horizon_ceiling_rejected(self, command, tmp_path, capsys):
        # a JSON integer delay of 10**400 slots overflowed the float of its
        # move energy in the validator and the solver
        device = DeviceRequest("a", 0, 2, True, 0.5, 1.0, 1.6, (2.0,), 0)
        cfg = SystemConfig(2, (2.0, 2.0), 4, 0.5, uniform_movement(2, 10**400, 0.1))
        scenario_path = tmp_path / "far.json"
        save_scenario(Scenario("far", cfg, (device,)), scenario_path)
        result_path = tmp_path / "result.json"
        result_path.write_text(json.dumps({"decisions": {"a": ["M:0:1", "I", "I", "I"]}}))
        args = [command, str(scenario_path)]
        if command == "validate":
            args.append(str(result_path))
        assert main(args) == EXIT_VALIDATION
        rule = "delay_slots: delay <= 1000 slots"
        assert capsys.readouterr().err == (
            f"scenario invalid: <config>: movement[0][1].{rule}; <config>: movement[1][0].{rule}\n"
        )


class TestHugeInteger:
    """A JSON integer beyond float range breaks only its own rule; no
    product with a float is formed from it."""

    @pytest.mark.parametrize("command", ["run", "validate", "solve-exact"])
    @pytest.mark.parametrize(
        "device, horizon, line",
        [
            ({"arrival_slot": -(10**400)}, 4, "a: arrival_slot: R_k >= 0"),
            ({"deadline_slot": 10**400}, 4, "a: deadline_slot: T_k <= horizon"),
            ({}, 10**400, "<config>: horizon_slots: horizon <= 1000 slots"),
        ],
        ids=["arrival", "deadline", "horizon"],
    )
    def test_rejected(self, command, device, horizon, line, tmp_path, capsys):
        # each raised OverflowError, a traceback with exit 1
        request = DeviceRequest("a", 0, 2, True, 0.5, 1.0, 1.6, (2.0,), 0)
        request = dataclasses.replace(request, **device)
        cfg = SystemConfig(2, (2.0, 2.0), horizon, 0.5, uniform_movement(2, 1, 0.1))
        scenario_path = tmp_path / "huge.json"
        save_scenario(Scenario("huge", cfg, (request,)), scenario_path)
        args = [command, str(scenario_path)] + [str(scenario_path)] * (command == "validate")
        assert main(args) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"scenario invalid: {line}\n"


class TestInfeasibleRun:
    def test_one_stderr_line(self, micro_file, monkeypatch, capsys):
        # a scheduler that serves m0 at a mode outside its set in slot 0
        # and moves it from an aggregator that does not exist in slot 1
        real = heuristic.run_horizon

        def broken(*args, **kwargs):
            horizon = real(*args, **kwargs)
            horizon.decisions["m0"][:2] = [Serve(9, 0), Move(7, 1)]
            return horizon

        monkeypatch.setattr(heuristic, "run_horizon", broken)
        assert main(["run", str(micro_file)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "scheduler heuristic produced an infeasible schedule: "
            "(i) device=m0 slot=0; (v) device=m0 slot=1\n"
        )


def _newline_id_no_demand(doc):
    doc["devices"][0]["id"] = "a\nb"
    doc["devices"][0]["demand_kwh"] = 0.0


class TestIdInMessage:
    """A device id goes into a stderr message escaped, so every message is
    one line whatever the id holds."""

    def test_invalid_scenario(self, micro_file, tmp_path, capsys):
        bad = write_mutated(micro_file, tmp_path, _newline_id_no_demand)
        assert main(["run", str(bad)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "scenario invalid: a\\nb: demand_kwh: E_k > 0\n"
        assert err.count("\n") == 1

    def test_infeasible_schedule(self, micro_file, tmp_path, monkeypatch, capsys):
        def _newline_id(doc):
            doc["devices"][0]["id"] = "m\n0"

        real = heuristic.run_horizon

        def broken(*args, **kwargs):
            horizon = real(*args, **kwargs)
            horizon.decisions["m\n0"][0] = Serve(9, 0)
            return horizon

        monkeypatch.setattr(heuristic, "run_horizon", broken)
        bad = write_mutated(micro_file, tmp_path, _newline_id)
        assert main(["run", str(bad)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == (
            "scheduler heuristic produced an infeasible schedule: (i) device=m\\n0 slot=0\n"
        )
        assert err.count("\n") == 1

    def test_unreadable_path(self, tmp_path, capsys):
        path = tmp_path / "no\nsuch.json"
        assert main(["run", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"cannot open {tmp_path}/no\\nsuch.json: ")
        assert err.count("\n") == 1


def _control_char_ids(doc):
    doc["id"] = "sc\nid"
    doc["devices"][0]["id"] = "a\tb\nc"


class TestIdInTable:
    """Ids go into a table or report escaped, so each device and the
    scenario take one line whatever their ids hold."""

    def test_run_table(self, micro_file, tmp_path, capsys):
        bad = write_mutated(micro_file, tmp_path, _control_char_ids)
        devices = load_scenario(bad).devices
        assert main(["run", str(bad), "--format", "table"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "scenario   sc\\nid"
        assert lines[4] == "device\tloss\tprogress_kwh\tcompleted"
        rows = lines[5:]
        assert len(rows) == len(devices)
        assert [row.split("\t")[0] for row in rows] == sorted(
            "a\\tb\\nc" if d.id == "a\tb\nc" else d.id for d in devices
        )
        assert all(row.count("\t") == 3 for row in rows)

    def test_baseline_compare_table(self, micro_file, tmp_path, capsys):
        bad = write_mutated(micro_file, tmp_path, _control_char_ids)
        argv = ["experiment", "baseline-compare", "--scenario", str(bad), "--format", "table"]
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "scenario sc\\nid"
        # the scenario line, a loss per scheduler, an improvement per baseline
        assert len(lines) == 1 + 3 + 2


    def test_validate_report(self, micro_file, tmp_path, capsys):
        def _newline_id(doc):
            doc["devices"][0]["id"] = "a\nb"

        bad = write_mutated(micro_file, tmp_path, _newline_id)
        out = tmp_path / "result.json"
        assert main(["run", str(bad), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        doc["decisions"]["a\nb"][0] = "S:9:0"
        out.write_text(json.dumps(doc))
        assert main(["validate", str(bad), str(out)]) == EXIT_VALIDATION
        lines = capsys.readouterr().out.splitlines()
        # one line per feasibility rule
        assert len(lines) == 8
        assert lines[0].startswith("(i) FAIL at device=a\\nb slot=0: ")


class TestStdout:
    """A stdout that is closed or cannot be written is one stderr line
    and exit 1, whatever the command."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "{micro}"],
            ["run", "{micro}", "--format", "table"],
            ["validate", "{micro}", "{result}"],
            ["solve-exact", "{micro}"],
            ["generate", "--devices", "20"],
            ["ingest", "bundled"],
            ["experiment", "oracle-gap", "--samples", "1"],
        ],
        ids=["run", "run-table", "validate", "solve-exact", "generate", "ingest", "experiment"],
    )
    def test_closed_stdout(self, argv, micro_file, tmp_path, monkeypatch, capsys):
        result = tmp_path / "result.json"
        assert main(["run", str(micro_file), "--out", str(result)]) == EXIT_OK
        argv = [a.format(micro=micro_file, result=result) for a in argv]
        # what the interpreter leaves when started with stdout closed
        monkeypatch.setattr(sys, "stdout", None)
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "cannot write stdout: stdout is closed\n"

    @pytest.mark.parametrize("extra", [[], ["--format", "table"]], ids=["json", "table"])
    def test_broken_pipe(self, extra, micro_file):
        # the pipe's read end is closed before the command starts, so the
        # first write fails with EPIPE; the table is smaller than the
        # stream's buffer, so only the flush reaches the pipe
        src = str(Path(gridflex.__file__).resolve().parents[1])
        paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as from a shell
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gridflex.cli", "run", str(micro_file), *extra],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("cannot write stdout: ")
        assert proc.stderr.count("\n") == 1


class TestSolveExact:
    def test_micro_instance(self, micro_file, tmp_path):
        out = tmp_path / "exact.json"
        code = main(["solve-exact", str(micro_file), "--out", str(out)])
        assert code == EXIT_OK
        text = out.read_text()
        assert text.count("\n") == 1  # compact
        assert "optimal_loss" in json.loads(text)

    def test_cap_exceeded_exit_code(self, micro_file):
        assert main(["solve-exact", str(micro_file), "--node-budget", "1"]) == EXIT_CAP

    def test_refuses_large_scenario(self, scenario_file):
        assert main(["solve-exact", str(scenario_file)]) == EXIT_CAP

    def test_invalid_scenario_one_line(self, scenario_file, tmp_path, capsys):
        # every device of twenty breaks the same rule: one line, not one per violation
        bad = write_mutated(scenario_file, tmp_path, _every_home_nine)
        assert main(["solve-exact", str(bad)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("scenario invalid: ")
        assert "more)" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bad_node_budget_usage_error(self, value, micro_file, capsys):
        argv = ["solve-exact", str(micro_file), "--node-budget", value]
        assert_usage_error(argv, capsys, "--node-budget")


class TestIngest:
    def test_bundled_replica(self, tmp_path):
        out = tmp_path / "ev.json"
        code = main(["ingest", "bundled", "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        scenario = load_scenario(out)
        assert scenario.config.horizon_slots == 48
        assert len(scenario.devices) > 500

    def test_csv_file(self, tmp_path):
        csv_path = tmp_path / "sessions.csv"
        csv_path.write_text(
            "arrival,departure,kwh,station\n"
            "2020-05-04T09:00:00,2020-05-04T17:00:00,10.0,ST-01\n"
        )
        out = tmp_path / "sc.json"
        assert main(["ingest", str(csv_path), "--out", str(out)]) == EXIT_OK
        assert len(load_scenario(out).devices) == 1

    @pytest.mark.parametrize("value", ["nan", "-0.5", "2"])
    def test_bad_mobile_fraction_usage_error(self, value, capsys):
        argv = ["ingest", "bundled", "--mobile-fraction", value]
        assert_usage_error(argv, capsys, "--mobile-fraction")

    def test_negative_seed_usage_error(self, capsys):
        assert_usage_error(["ingest", "bundled", "--seed", "-1"], capsys, "--seed")

    def test_scenario_document_rejected(self, scenario_file, capsys):
        # a scenario JSON has no session header: rejected, not a 0-device scenario
        assert main(["ingest", str(scenario_file)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("malformed input: session header lacks column(s): ")
        assert captured.err.count("\n") == 1

    def test_headerless_csv_rejected(self, tmp_path, capsys):
        csv_path = tmp_path / "ab.csv"
        csv_path.write_text("a,b\n1,2\n")
        assert main(["ingest", str(csv_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == (
            "malformed input: session header lacks column(s): "
            "arrival, departure, kwh, station\n"
        )

    def test_short_row_skipped(self, tmp_path, capsys):
        # a row without its kwh and station fields is skipped, not a traceback
        csv_path = tmp_path / "short.csv"
        csv_path.write_text(
            "arrival,departure,kwh,station\n"
            "2020-05-04T09:00:00,2020-05-04T17:00:00\n"
            "2020-05-04T09:00:00,2020-05-04T17:00:00,10.0,ST-01\n"
        )
        out = tmp_path / "sc.json"
        assert main(["ingest", str(csv_path), "--out", str(out)]) == EXIT_OK
        assert len(load_scenario(out).devices) == 1
        assert capsys.readouterr().err == "skipped 1 records, dropped 0 sessions\n"

    def test_unreadable_rows_skipped(self, tmp_path, capsys):
        # mixed UTC-offset timestamps and non-finite energies are skipped
        # and counted, not a traceback or a device
        csv_path = tmp_path / "unreadable.csv"
        csv_path.write_text(
            "arrival,departure,kwh,station\n"
            "2020-01-01T10:00:00+05:00,2020-01-01T12:00:00,5,a\n"
            "2020-01-01T10:00:00,2020-01-01T12:00:00,nan,a\n"
            "2020-01-01T10:00:00,2020-01-01T12:00:00,1e400,a\n"
            "2020-01-01T10:00:00,2020-01-01T12:00:00,5,a\n"
        )
        out = tmp_path / "sc.json"
        assert main(["ingest", str(csv_path), "--out", str(out)]) == EXIT_OK
        assert len(load_scenario(out).devices) == 1
        assert capsys.readouterr().err == "skipped 3 records, dropped 0 sessions\n"

    def test_failed_write_one_line(self, tmp_path, capsys):
        # the skipped-records note must not precede the write's failure
        csv_path = tmp_path / "sessions.csv"
        csv_path.write_text(
            "arrival,departure,kwh,station\n"
            "2020-05-04T09:00:00,2020-05-04T17:00:00,10.0,ST-01\n"
            "not a date,2020-05-04T17:00:00,10.0,ST-02\n"
        )
        assert main(["ingest", str(csv_path), "--out", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"cannot open {tmp_path}: ")
        assert err.count("\n") == 1


# small valid arguments for each suite, to which a test adds its own
SUITE_ARGS = {
    "mobility-delta": ["--counts", "20", "--samples", "1"],
    "oracle-gap": ["--samples", "1"],
}


class TestExperiments:
    def test_baseline_compare(self, scenario_file, tmp_path):
        out = tmp_path / "cmp.json"
        code = main(
            ["experiment", "baseline-compare", "--scenario", str(scenario_file),
             "--out", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert set(doc["losses"]) == {"heuristic", "edf", "hp"}

    def test_baseline_compare_requires_scenario(self):
        assert main(["experiment", "baseline-compare"]) == EXIT_USAGE

    def test_baseline_compare_invalid_scenario(self, scenario_file, tmp_path, capsys):
        doc = json.loads(scenario_file.read_text())
        doc["devices"][0]["home"] = 9
        bad = tmp_path / "bad_home.json"
        bad.write_text(json.dumps(doc))
        assert main(["experiment", "baseline-compare", "--scenario", str(bad)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("scenario invalid: ")
        assert err.count("\n") == 1

    def test_oracle_gap(self, tmp_path):
        out = tmp_path / "gap.json"
        code = main(
            ["experiment", "oracle-gap", "--samples", "5", "--seed", "2",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 5
        assert doc["median_ratio"] >= 1.0 - 1e-9

    def test_oracle_gap_infinite_ratio_is_null(self, capsys):
        # seed 14's first micro-instance has exact loss 0 and a positive heuristic loss
        argv = ["experiment", "oracle-gap", "--samples", "1", "--seed", "14"]
        assert main(argv) == EXIT_OK
        doc = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert doc["rows"][0]["ratio"] is None
        assert doc["rows"][0]["exact_loss"] == 0.0
        assert doc["median_ratio"] is None
        assert doc["max_ratio"] is None
        assert main(argv + ["--format", "table"]) == EXIT_OK
        assert "\tinf\n" in capsys.readouterr().out

    def test_mobility_delta_table(self, tmp_path):
        out = tmp_path / "delta.tsv"
        code = main(
            ["experiment", "mobility-delta", "--counts", "20", "--samples", "2",
             "--seed", "1", "--format", "table", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert out.read_text().startswith("device_count")

    @pytest.mark.parametrize(
        "suite, option, value",
        [
            ("mobility-delta", "--counts", "a,b"),
            ("mobility-delta", "--counts", "20,-1"),
            ("mobility-delta", "--counts", "0"),
            ("mobility-delta", "--counts", "20,,40"),
            ("mobility-delta", "--samples", "-2"),
            ("mobility-delta", "--seed", "-1"),
            ("oracle-gap", "--seed", "-1"),
            # zero samples used to print a NaN median and max ratio
            ("oracle-gap", "--samples", "0"),
        ],
    )
    def test_bad_argument_usage_error(self, suite, option, value, capsys):
        argv = ["experiment", suite, *SUITE_ARGS[suite], option, value]
        assert_usage_error(argv, capsys, option)

    @pytest.mark.parametrize(
        "suite, flags",
        [
            ("baseline-compare", ["--seed", "5", "--counts", "20", "--samples", "3"]),
            ("oracle-gap", ["--counts", "20", "--scenario", "x.json"]),
            ("mobility-delta", ["--scenario", "x.json"]),
        ],
    )
    def test_foreign_flag_usage_error(self, suite, flags, scenario_file, capsys):
        # a flag another suite reads is refused, not silently ignored
        own = ["--scenario", str(scenario_file)] if suite == "baseline-compare" else []
        assert main(["experiment", suite, *own, *flags]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: unrecognized arguments: " in err
        assert err.count("\n") == 1

    def test_mobility_delta_generation_failure(self, capsys):
        # three devices cannot carry the bands of five aggregators
        argv = ["experiment", "mobility-delta", "--counts", "3", "--samples", "1"]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("generation failed: ")
        assert err.count("\n") == 1
