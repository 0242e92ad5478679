"""Acceptance gate: one test per published criterion, at the stated
tolerances and budgets, each announcing a single PASS/FAIL line.

These tests re-run the real machinery end to end (no fixtures shared with
the unit suites; the step-halving oracle comes from test_evolve) so a green
run here is the contract: exact soliton
identities at up to three waves, exact window certification of the bracket
and kernel-lemma families at the published truncations, the convergent
charge ladders, the charge-consistency legs, the integrator error and
conservation budget, and byte-level reproducibility of the command line.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from toda_bo.cli import main
from toda_bo.evolve import RunConfig, run
from toda_bo.verify import CheckConfig, run_check, run_suite

from test_evolve import order_ratio, wave_state

TOL = Fraction(1, 10**10)


def announce(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_soliton_exact_suite():
    t0 = time.perf_counter()
    reports = run_suite("soliton-exact", CheckConfig())
    elapsed = time.perf_counter() - t0
    ok = (
        len(reports) == 7
        and all(r.passed for r in reports)
        and all(r.residual["is_exact_zero"] for r in reports)
        and all(r.detail["cases"] == 20 for r in reports)  # n=0..3, 5 draws each
        and elapsed < 120
    )
    announce(1, "soliton-exact identically zero", ok)
    assert ok, [r.to_json() for r in reports if not r.passed] + [elapsed]


def test_criterion_2_bracket_suite_exact_on_window():
    t0 = time.perf_counter()
    reports = run_suite("bracket", CheckConfig())
    elapsed = time.perf_counter() - t0
    ok = (
        len(reports) == 12
        and all(r.passed for r in reports)
        and all(r.residual["is_exact_zero"] for r in reports)
        and all(r.detail["witness_certified_terms"] > 0 for r in reports)
        and all(
            r.params["trunc"] == {"z": 6, "modes": 12, "deg": 6} for r in reports
        )
        and elapsed < 300
    )
    announce(2, "bracket family exact at (6,12,6)", ok)
    assert ok, [r.to_json() for r in reports if not r.passed] + [elapsed]


def test_criterion_3_kernel_lemma_suite_exact_on_window():
    t0 = time.perf_counter()
    reports = run_suite("lemma-t3", CheckConfig())
    elapsed = time.perf_counter() - t0
    ok = (
        len(reports) == 6
        and all(r.passed for r in reports)
        and all(r.residual["is_exact_zero"] for r in reports)
        and all(r.detail["witness_certified_terms"] > 0 for r in reports)
        and all(r.params["trunc"] == {"z": 3, "modes": 6, "deg": 6} for r in reports)
        and elapsed < 600
    )
    announce(3, "kernel lemmas exact at (3,6,6)", ok)
    assert ok, [r.to_json() for r in reports if not r.passed] + [elapsed]


def test_criterion_4_charge_conjecture_ladders():
    report = run_check("conj-iom", CheckConfig())
    plus = [c for c in report.detail["cases"] if c["kind"] == "plus"]
    ok = report.passed and len(plus) == 6  # n in {1,2} x k in {1,2,3}
    for case in plus:
        ladder = [Fraction(x.replace("E", "e")) for x in case["ladder"]]
        final, prev = ladder[-1], ladder[-2]
        ok = ok and final < TOL  # < 1e-10 at the top cutoff (N=48)
        ok = ok and (final == 0 or 4 * final <= prev)  # factor >= 4 from N=32
        amp = Fraction(case["amplitude_diff"].replace("E", "e"))
        ok = ok and amp <= TOL  # same charge for a second amplitude draw
    announce(4, "charge ladders converge to closed forms", ok)
    assert ok, report.to_json()


def test_criterion_5_charge_consistency():
    ok = True
    for check_id in ("m2-consistency", "m3-consistency"):
        report = run_check(check_id, CheckConfig())
        d = report.detail
        ok = ok and report.passed
        ok = ok and d["exact_points"] == 20 and d["exact_pass"]
        ok = ok and d["formal_window_pass"] and d["numeric_pass"]
    announce(5, "closed charges consistent with kernel formulas", ok)
    assert ok


def test_criterion_6_integrator_error_and_conservation():
    records, summary = run(RunConfig())  # one wave, N=64, dt=1e-3, t in [0,1]
    ratio = order_ratio(wave_state(32), 0.25, 8)
    ok = (
        summary["max_mode_error"] < 1e-6
        and summary["eta0_drift"] < 1e-12
        and summary["i2_rel_drift"] < 1e-6
        and 12 <= ratio <= 20
    )
    announce(6, "integrator tracks the wave and conserves", ok)
    assert ok, (summary, ratio)


def test_criterion_7_cli_determinism_and_exit_codes(tmp_path, capsys):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    codes = [
        main(["verify", "--identity", "all", "--seed", "7", "--out", str(p)])
        for p in paths
    ]
    blobs = [p.read_bytes() for p in paths]
    doc = json.loads(blobs[0])
    ok = blobs[0] == blobs[1]
    ok = ok and codes == [0, 0] and len(doc["checks"]) == 28
    ok = ok and all(c["pass"] for c in doc["checks"])
    ok = ok and main(["verify", "--identity", "bogus"]) == 2
    failing = ["verify", "--identity", "eta-eta", "--trunc-z", "2"]
    failing += ["--trunc-modes", "1", "--trunc-deg", "1", "--out", str(tmp_path / "f.json")]
    ok = ok and main(failing) == 1
    capsys.readouterr()
    announce(7, "byte-identical reports and exit-code contract", ok)
    assert ok
