"""Tests of the benchmark's own code.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import cProfile
import json
from pathlib import Path

import pytest

from perfbench import spec
from perfbench.attribution import ModuleResolver, attribute
from perfbench.workloads import WORKLOAD_TYPES, aggregate

ROOT = Path(__file__).resolve().parents[2]


def test_layer_map_covers_every_repro_module_once():
    modules = spec.repro_modules(ROOT / "src")
    assert "repro.core.lb" in modules and "repro.des.simulator" in modules
    unmapped = [m for m in modules if spec.layer_of(m) is None]
    assert unmapped == []
    assert spec.layer_of("repro.core.lb") == "lb"
    assert spec.layer_of("repro.core.solver") == "core"
    assert spec.layer_of("repro.newpackage.module") is None
    # Every listed prefix names a real package or module.
    assert set(spec.LAYER_OF) <= set(modules)


def test_metric_and_workload_names_are_valid_and_unique():
    names = [n for n, _, _ in spec.WORKLOADS]
    metrics = [n for n, _, _, _ in spec.END_TO_END] + [n for n, _, _ in spec.PER_LAYER]
    for name in names + metrics:
        assert spec.NAME_RE.match(name), name
    assert len(set(names)) == len(names)
    assert len(set(metrics)) == len(metrics)
    assert {f"{layer}.self_s" for layer in spec.LAYERS} <= set(metrics)
    assert set(WORKLOAD_TYPES) == set(names)


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
    setup = [m for m in on_disk["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert all(0 < m["bound"] <= 0.25 for m in on_disk["end_to_end"])


def test_attribution_groups_self_time_by_layer():
    import repro
    from repro.grid import homogeneous_cluster
    from repro.problems import HeatProblem
    from repro.core import run_aiac

    profile = cProfile.Profile()
    profile.enable()
    run_aiac(HeatProblem(16, t_end=0.05, n_steps=4), homogeneous_cluster(2, speed=2000.0))
    profile.disable()
    layers = attribute(profile, ModuleResolver(Path(repro.__file__).parent))
    assert layers.unmapped == set()
    for layer in ("des", "runtime", "grid", "core", "problems"):
        assert layers.self_s[layer] > 0, layer
    assert layers.calls["grid.arrival_calls"] > 0
    assert layers.calls["problems.iterate_calls"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOAD_TYPES))
def test_reduced_pass_passes_its_output_checks(name):
    workload = WORKLOAD_TYPES[name](seed=3, reduced=True)
    workload.setup()
    first, second = workload.run(), workload.run()
    assert first.all_errors() == [] and second.all_errors() == []
    assert len(first.solves) == workload.expected
    assert first.signature() == second.signature()
    assert first.wall_s > 0 and first.virtual_s > 0 and first.events > 0
    counts = aggregate(first)
    assert all(v == v for v in counts.values())  # no NaN


def test_a_second_seed_passes_the_faulted_checks():
    workload = WORKLOAD_TYPES["faulted_recovery"](seed=11, reduced=True)
    workload.setup()
    p = workload.run()
    assert p.all_errors() == []
    counts = aggregate(p)
    assert counts["faults.injected"] > 0
    assert counts["integrity.recall"] == 1.0


def test_speed_factor_scales_slow_hosts_up_and_fast_hosts_down():
    from perfbench.hostspeed import REFERENCE_S, reference_loop_s, speed_factor

    assert speed_factor(REFERENCE_S) == 1.0
    assert speed_factor(2 * REFERENCE_S) < 1.0 < speed_factor(REFERENCE_S / 2)
    assert reference_loop_s() > 0
