"""Tests of the benchmark itself: output contract, wrapper coverage,
byte neutrality of tracing, and exact repeatability of the counters.

    python3 -m pytest perfbench -q    # about three minutes: two traced runs
                                      # of every workload, one of the suite
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Counters each workload must drive above zero, from the layer map in
# run.py's docstring; a zero means a wrapper is not bound where it is called.
PREDICTED = {
    "verify": (
        "iom.charge_calls", "iom.charge_s.k3", "iom.kernel_calls", "iom.enum_vectors",
        "scalar.mode_den_bits", "scalar.self_s", "soliton.bilinear_calls",
        "soliton.decay_calls", "verify.check_calls", "verify.check_s.m3-consistency",
        "verify.rejected_draws", "modes.field_build_calls", "modes.bracket_calls",
        "modes.hirota_calls", "modes.kernel_calls", "iom.functional_calls",
        "modes.certified_terms", "modes.uncertified_terms",
    ),
    "evolve-wave": (
        "series.mul_calls", "series.inv_calls", "soliton.extract_calls",
        "evolve.reference_calls", "evolve.rk4_steps", "cli.out_bytes",
    ),
    "evolve-random": ("evolve.rk4_steps", "cli.out_bytes"),
}
# The full suite is run by hand only (too long to repeat within one
# measurement), but stays traced and anchored.
PREDICTED["suite"] = PREDICTED["verify"] + ("verify.check_s.conj-iom",)

COUNT_UNITS = ("count", "bits", "bytes")
COUNT_RATIOS = (
    "modes.field_build_cache_hit_ratio", "iom.functional_cache_hit_ratio", "modes.useful_ratio",
)

_traces: dict = {}


def traced(workload: str, repeat: int = 0) -> dict:
    """Result document of a traced benchmark run, cached per (workload, repeat)."""
    key = (workload, repeat)
    if key not in _traces:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        _traces[key] = json.loads(out.stdout.splitlines()[-1])
    return _traces[key]


def test_metric_names_match_benchmark_json():
    assert list(run.per_layer_units()) == [m["name"] for m in BENCHMARK["per_layer"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert units == run.per_layer_units()
    listed = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(run.WORKLOADS) == set(PREDICTED)
    assert set(run.WORKLOADS) - listed == {"suite", "evolve-random"}


def test_timed_run_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "evolve-random", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", sorted(PREDICTED))
def test_traced_run_is_neutral_and_covers_its_layers(workload):
    # correct covers the byte comparison of traced against untraced output
    # and, for the suite, the anchored report in both runs
    doc = traced(workload)
    assert doc["correct"] and doc["failed"] == 0
    metrics = doc["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    zero = [name for name in PREDICTED[workload] if not metrics[name]["value"] > 0]
    assert zero == []


@pytest.mark.parametrize("workload", sorted(set(PREDICTED) - {"suite"}))
def test_counters_repeat_exactly(workload):
    first, second = traced(workload)["metrics"], traced(workload, repeat=1)["metrics"]
    counts = [
        name for name, m in first.items()
        if m["unit"] in COUNT_UNITS or name in COUNT_RATIOS
    ]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    if workload == "verify":
        assert first["modes.certified_terms"]["value"] == 5750


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evolve-wave", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
