"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Budgets are asserted alongside the functional checks.
"""

import statistics
import time

import mpmath

from gridflex import engine, workload
from gridflex.exact import ExactInstance, solve_exact, validate_schedule
from gridflex.priority import priority
from gridflex.utility import deadline_loss
from gridflex.workload import GenSpec, IngestSpec

mpmath.mp.dps = 50


def report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


GRID_COMBOS = (
    ("L", "L", "L", "M", "H"),
    ("L", "L", "M", "M", "H"),
    ("L", "M", "M", "M", "H"),
    ("L", "L", "M", "H", "H"),
)
GRID_FRACTIONS = (0.25, 0.5, 0.75, 1.0)


class TestAcceptance:
    def test_1_feasibility_suite(self):
        """Every schedule from every scheduler passes all eight constraints
        across the full parameter grid; zero tolerance."""
        t0 = time.perf_counter()
        scenarios = 0
        for count in (20, 40, 60, 80, 100):
            for ci, combo in enumerate(GRID_COMBOS):
                for fi, fraction in enumerate(GRID_FRACTIONS):
                    for seed_offset in range(3):
                        seed = count * 997 + ci * 131 + fi * 17 + seed_offset
                        scenario = workload.generate(
                            GenSpec(
                                num_devices=count,
                                class_combo=combo,
                                mobile_fraction=fraction,
                                seed=seed,
                            )
                        )
                        scenarios += 1
                        for scheduler in ("heuristic", "edf", "hp"):
                            result = engine.run(scenario, scheduler)
                            rep = validate_schedule(
                                result.decisions,
                                scenario.config,
                                list(scenario.devices),
                            )
                            assert rep.all_pass, (
                                f"{scenario.scenario_id} {scheduler}\n{rep.summary()}"
                            )
        elapsed = time.perf_counter() - t0
        report(
            1,
            scenarios >= 200 and elapsed < 120.0,
            f"{scenarios} scenarios x 3 schedulers feasible in {elapsed:.1f}s (< 120s)",
        )

    def test_2_oracle_inequality(self):
        """Exact optimum never exceeds any scheduler's loss, compared through
        the shared replay scoring with no tolerance."""
        t0 = time.perf_counter()
        scenarios = workload.micro_instances(100, seed=20_25)
        checked = 0
        for scenario in scenarios:
            optimal = solve_exact(ExactInstance(scenario)).loss
            for scheduler in ("heuristic", "edf", "hp"):
                loss = engine.run(scenario, scheduler).total_loss
                assert optimal <= loss, (
                    scenario.scenario_id,
                    scheduler,
                    optimal,
                    loss,
                )
                checked += 1
        elapsed = time.perf_counter() - t0
        report(
            2,
            len(scenarios) >= 100 and elapsed < 300.0,
            f"exact <= scheduler on {len(scenarios)} micro-instances "
            f"({checked} comparisons) in {elapsed:.1f}s (< 300s)",
        )

    def test_3_ev_replica_direction(self):
        """Heuristic beats both baselines on the bundled replica for every
        completion seed, with >= 30% median improvement."""
        t0 = time.perf_counter()
        records, skipped = workload.parse_sessions(workload.bundled_replica_text())
        assert skipped == 0
        improvements_edf, improvements_hp = [], []
        strict = True
        for seed in range(10):
            scenario, _ = workload.ingest_sessions(records, IngestSpec(seed=seed))
            results = engine.baseline_compare(scenario)
            h = results["heuristic"].total_loss
            e = results["edf"].total_loss
            p = results["hp"].total_loss
            strict = strict and h < e and h < p
            improvements_edf.append((e - h) / e * 100.0)
            improvements_hp.append((p - h) / p * 100.0)
        med_edf = statistics.median(improvements_edf)
        med_hp = statistics.median(improvements_hp)
        elapsed = time.perf_counter() - t0
        report(
            3,
            strict and med_edf >= 30.0 and med_hp >= 30.0 and elapsed < 60.0,
            f"strict wins on 10 seeds; median improvement edf={med_edf:.1f}% "
            f"hp={med_hp:.1f}% (>= 30%) in {elapsed:.1f}s (< 60s)",
        )

    def test_4_mobility_delta_direction(self):
        """Median mobility delta is <= 0 at 100 devices and the sign pattern
        never increases with device count."""
        t0 = time.perf_counter()
        counts = (20, 40, 60, 80, 100)
        medians = []
        for count in counts:
            specs = engine.sample_grid([count], samples_per_count=50, seed=0)
            summary = engine.mobility_delta_experiment(specs)
            medians.append(summary.by_device_count()[count].median)

        def sign(x: float) -> int:
            return 0 if x == 0 else (1 if x > 0 else -1)

        signs = [sign(m) for m in medians]
        monotone = all(a >= b for a, b in zip(signs, signs[1:]))
        elapsed = time.perf_counter() - t0
        detail = ", ".join(f"{c}:{m:.3g}" for c, m in zip(counts, medians))
        report(
            4,
            medians[-1] <= 0 and monotone and elapsed < 600.0,
            f"medians [{detail}] signs={signs} monotone non-increasing, "
            f"100-device median <= 0, in {elapsed:.1f}s (< 600s)",
        )

    def test_5_per_slot_runtime(self):
        """Per-slot scheduling stays under 10 ms at 100 devices and scales
        sub-2.5x when the device count doubles."""
        scenarios = {
            count: workload.generate(
                GenSpec(num_devices=count, class_combo=("L", "L", "M", "M", "H"), seed=3)
            )
            for count in (100, 200)
        }
        samples: dict[int, list[float]] = {100: [], 200: []}
        # the two sizes alternate, so load from other jobs on the host
        # lands on both sides of the ratio alike
        for _ in range(3):
            for count, scenario in scenarios.items():
                samples[count].extend(engine.run(scenario, "heuristic").slot_wall_s)
        ms_100, ms_200 = (statistics.median(samples[c]) * 1000.0 for c in (100, 200))
        ratio = ms_200 / ms_100
        report(
            5,
            ms_100 < 10.0 and ratio < 2.5,
            f"median per-slot {ms_100:.2f} ms at 100 devices (< 10 ms); "
            f"200-device ratio {ratio:.2f}x (< 2.5x)",
        )

    def test_6_utility_unit_suite(self):
        """Closed-form loss and priority values match arbitrary-precision
        recomputation to 1e-9 relative."""
        rel = 1e-9
        checks = []

        got = deadline_loss(4.0, 10.0, 8, 6, 1.6)
        want = float(mpmath.mpf(6) * mpmath.e ** (mpmath.mpf("1.6") * 2))
        checks.append(abs(got - want) <= rel * want)

        # completed two-slot transit at 0.15 kWh/slot ledgers exactly 2*delta*c
        from gridflex.heuristic import run_horizon
        from gridflex.model import (
            DeviceRequest,
            SystemConfig,
            uniform_movement,
        )

        cfg = SystemConfig(2, (2.0, 2.0), 12, 0.5, uniform_movement(2, 2, 0.15))
        devices = [
            DeviceRequest("a", 0, 6, False, 0.0, 6.0, 1.6, (2.0,), 0),
            DeviceRequest("b", 0, 6, True, 1.0, 6.0, 1.8, (2.0,), 0),
        ]
        result = run_horizon(cfg, devices)
        mover = result.states["b"]
        n_transits = sum(
            1
            for i, a in enumerate(result.decisions["b"])
            if type(a).__name__ == "Move"
            and (i == 0 or result.decisions["b"][i - 1] != a)
        )
        assert n_transits >= 1
        want_mobility = float(2 * mpmath.mpf(2) * mpmath.mpf("0.15") * n_transits)
        checks.append(
            abs(mover.mobility_loss_weighted - want_mobility) <= rel * want_mobility
        )

        for args, want in (
            ((0.0, 10.0, 6, 6), 1.0),
            ((5.0, 10.0, 1, 6), 0.1),
            ((5.0, 10.0, 10, 6), 2.0),
        ):
            got = priority(*args)
            checks.append(abs(got - want) <= rel * max(want, 1.0))

        report(
            6,
            all(checks),
            f"{len(checks)} closed-form values match high-precision recomputation "
            f"at rel {rel}",
        )

    def test_7_determinism(self):
        """Identical inputs yield byte-identical decision matrices and loss
        totals: in each of two full passes every scheduler's run equals its
        repeat and its `baseline_compare` run, and the passes agree."""
        scenario = workload.generate(GenSpec(num_devices=60, seed=11))
        records, _ = workload.parse_sessions(workload.bundled_replica_text())
        ev, _ = workload.ingest_sessions(records, IngestSpec(seed=4))
        schedulers = ("heuristic", "edf", "hp")

        payloads = []
        for _ in range(2):
            batch = [
                engine.run(sc, scheduler).canonical_json()
                for sc in (scenario, ev)
                for scheduler in schedulers
            ]
            repeat = [
                engine.run(sc, scheduler).canonical_json()
                for sc in (scenario, ev)
                for scheduler in schedulers
            ]
            assert batch == repeat
            pooled = []
            for sc in (scenario, ev):
                compared = engine.baseline_compare(sc)
                pooled += [compared[scheduler].canonical_json() for scheduler in schedulers]
            assert pooled == batch
            payloads.append(batch + pooled)

        report(
            7,
            payloads[0] == payloads[1],
            "byte-identical decision matrices and losses across repeats, "
            "baseline_compare and two passes",
        )
