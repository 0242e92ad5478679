"""End-to-end benchmark of the toda-bo command line, with a traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed CLI run is a fresh interpreter (child.py) with TODA_BO_THREADS
unset, because the field builders in `modes` and the charge functionals in
`iom` are lru-cached per mode context and every user of the CLI starts
with cold caches.  One process drives the load, one CLI run at a time
(a closed loop with one client).

Workloads (the CLI arguments are in WORKLOADS below).  On a shared 2-vCPU
machine single CLI runs vary by 10-15%, and the machine's speed drifts
over minutes, so BENCHMARK.json holds two workloads measured for 55 s each
(22 runs per workload must fit in an hour) and each run reports the median
of the CLI runs it made.  Between them they cover every layer.

  verify         `verify --identity soliton-exact,m2-consistency,
                 m3-consistency,bracket,lemma-t3 --seed 7`: the full suite
                 without conj-iom, about 7 s instead of 30-45 s.  Traced,
                 `iom` holds about half of the self time (I_k_def up to k=3
                 at N=48 in m3-consistency; the O(N^2) charge recurrence
                 would show here) and `modes` about 37% (bracket,
                 apply_ratio_kernel on the 12-mode window, where 46% of
                 residual terms are uncertified, so certified-only
                 evaluation would show here); `iom` also runs over mode
                 polynomials (M2/M3_functional).  The report is the
                 anchored full-suite report without its conj-iom record,
                 byte for byte.  Takes no seed: the cost depends on the
                 drawn point.
  evolve-wave    `evolve` with its defaults (64 modes, 1000 steps, wave
                 data), about 2 s.  The exact reference trajectory
                 (series_mul, series_inv, eta_series_from_taus at 100
                 samples) is about 85%; RK4 is small.  No identity check
                 and no charge runs, so a change to `iom` or `modes`
                 should not move it.  Takes no seed.

Two more workloads run by hand and are checked the same way, but are not in
BENCHMARK.json: one more would leave too little time per run for a steady
median, and one suite run per measurement is too few.

  evolve-random  `evolve --init random --seed <seed> --modes 256 --steps 2000`,
                 about 2 s.  RK4 is about 75% and JSON writing in `cli` 25%
                 (5.1 MB); no exact arithmetic runs.  Takes the seed.
  suite          `verify --identity all --seed 7`, the full verification
                 named in the roadmap, 30-45 s; best with --trace 1 (`iom`
                 holds about 90% of self time).  Checked against the
                 anchored report.

With `--trace 0` the CLI is run back to back for `--seconds` seconds and the
medians of the end-to-end metrics are printed.  With `--trace 1` the CLI
runs once untraced and once with every layer wrapped (spans.py); the
per-layer metrics come from the traced run, and its output bytes must equal
the untraced ones.  Every run's output is checked (gate_* below); a missed
check, a failing identity, a non-zero exit or a traceback counts as a
failed operation.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from spans import CACHED_GROUPS, GROUPS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# The verify workloads run at the anchor seed.  `verify --identity all
# --seed 7` writes the anchor report below; the verify workload's report
# holds that report's records for all checks but conj-iom, byte for byte
# (each check draws from its own stream, so a selection does not move the
# draws).
ANCHOR_SEED = 7
SUITE_SHA256 = "3760cde0a7e7b9ff7b7abf6d32be76664513d225218cc0d9f7c737bab7edd1ea"
VERIFY_SHA256 = "e36df965d59b9324f1e54a05db5933603d867acc1f67f408636ee266525a9704"
SUITE_CHECKS = 28
VERIFY_CHECKS = 27
VERIFY_IDENTITIES = "soliton-exact,m2-consistency,m3-consistency,bracket,lemma-t3"

# The README's stated tolerances for the default wave run.
MAX_MODE_ERROR = 1e-6
MAX_ETA0_DRIFT = 1e-12
MAX_I2_REL_DRIFT = 1e-6

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120

# The registry's check ids, fixed here so the metric names stay the same.
CHECK_IDS = (
    "eta-eta", "xi-xi", "eta-xi", "eta-tau-", "eta-tau+", "xi-tau-", "xi-tau+",
    "hirota-t", "hirota-tb", "toda", "toda-field", "eta0-xi0",
    "tau-shift-lemma", "hm-pm-1", "hm-pm-2", "hm-3", "to-1", "to-2", "to-3",
    "conj-iom", "m2-consistency", "m3-consistency",
    "lemma-3-2", "lemma-3-3", "lemma-3-4", "lemma-3-5", "prop-t2", "prop-t3",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here at all (no source tree, bad loader)."""


@dataclass
class Gate:
    """Outcome of checking one CLI run: operations attempted and failed,
    reasons for any failure, and report facts used as layer metrics."""

    attempted: int = 1
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def fail_all(self, reason: str) -> "Gate":
        self.failed = self.attempted
        self.reasons.append(reason)
        return self


def _verify_report(out: Path) -> list[dict]:
    return json.loads(out.read_text())["checks"]


def _report_facts(checks: list[dict]) -> dict:
    def total(key):
        return sum(c["detail"].get(key, 0) for c in checks)

    cert, uncert = total("witness_certified_terms"), total("uncertified_residual_terms")
    return {
        "modes.certified_terms": cert,
        "modes.uncertified_terms": uncert,
        "modes.useful_ratio": cert / (cert + uncert) if cert + uncert else 0.0,
        "verify.rejected_draws": total("rejected_draws"),
    }


def _gate_checks(checks: list[dict], expected: int) -> Gate:
    gate = Gate(attempted=max(expected, len(checks)), facts=_report_facts(checks))
    bad = [c["id"] for c in checks if c["pass"] is not True]
    gate.failed = len(bad)
    if bad:
        gate.reasons.append(f"checks failed: {', '.join(bad)}")
    if len(checks) != expected:
        gate.fail_all(f"{len(checks)} checks reported, expected {expected}")
    return gate


def _gate_pinned(out: Path, sha256: str, checks: int, pinned: str) -> Gate:
    gate = _gate_checks(_verify_report(out), checks)
    if sha256 != pinned:
        gate.fail_all(f"report sha256 {sha256} is not the anchored {pinned}")
    return gate


def gate_suite(out: Path, sha256: str) -> Gate:
    return _gate_pinned(out, sha256, SUITE_CHECKS, SUITE_SHA256)


def gate_verify(out: Path, sha256: str) -> Gate:
    gate = _gate_pinned(out, sha256, VERIFY_CHECKS, VERIFY_SHA256)
    empty = [
        c["id"] for c in _verify_report(out)
        if c["mode"] == "windowed" and not c["detail"].get("witness_certified_terms")
    ]
    if empty:
        gate.fail_all(f"no certified witness terms: {', '.join(empty)}")
    return gate


def _evolve_summary(out: Path) -> tuple[dict, int]:
    with out.open("rb") as f:
        lines = f.read().splitlines()
    return json.loads(lines[-1])["summary"], len(lines)


def _gate_evolve(out: Path, wave: bool) -> Gate:
    summary, n_lines = _evolve_summary(out)
    gate = Gate(
        facts={
            "evolve.max_mode_error": summary["max_mode_error"] or 0.0,
            "evolve.eta0_drift": summary["eta0_drift"],
            "evolve.i2_rel_drift": summary["i2_rel_drift"],
        }
    )
    limits = [("eta0_drift", MAX_ETA0_DRIFT), ("i2_rel_drift", MAX_I2_REL_DRIFT)]
    if wave:
        limits.append(("max_mode_error", MAX_MODE_ERROR))
    for key, limit in limits:
        if not summary[key] <= limit:
            gate.fail_all(f"{key} {summary[key]!r} above {limit}")
    if n_lines != summary["samples"] + 2:  # header, samples, summary
        gate.fail_all(f"{n_lines} lines for {summary['samples']} samples")
    return gate


def gate_evolve_wave(out: Path, sha256: str) -> Gate:
    return _gate_evolve(out, wave=True)


def gate_evolve_random(out: Path, sha256: str) -> Gate:
    return _gate_evolve(out, wave=False)


@dataclass(frozen=True)
class Workload:
    args: Callable[[int], list[str]]  # seed -> CLI arguments
    gate: Callable[[Path, str], Gate]  # (output, its sha256) -> outcome


WORKLOADS: dict[str, Workload] = {
    "verify": Workload(
        lambda seed: ["verify", "--identity", VERIFY_IDENTITIES, "--seed", str(ANCHOR_SEED)],
        gate_verify,
    ),
    "evolve-wave": Workload(lambda seed: ["evolve"], gate_evolve_wave),
    "evolve-random": Workload(
        lambda seed: [
            "evolve", "--init", "random", "--seed", str(seed),
            "--modes", "256", "--steps", "2000",
        ],
        gate_evolve_random,
    ),
    "suite": Workload(
        lambda seed: ["verify", "--identity", "all", "--seed", str(ANCHOR_SEED)], gate_suite
    ),
}


# #### one CLI run ###############################################################


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("TODA_BO_THREADS", None)
    return env


def spawn(work: Path, cli_args: list[str], spans: Path | None = None) -> dict:
    """Run child.py once: a set-up probe when cli_args is empty, else one
    CLI run writing to work/out.  Returns child.py's result plus setup_s."""
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(result_path)]
    cmd.append(str(spans) if spans else "-")
    if cli_args:
        cmd += ["--", *cli_args, "--out", str(work / "out")]
    with open(work / "stderr", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL, stderr=err,
            timeout=CHILD_TIMEOUT_S,
        )
    if not result_path.exists():
        tail = (work / "stderr").read_text(errors="replace")[-2000:]
        raise BenchError(f"child exited {proc.returncode} without a result:\n{tail}")
    result = json.loads(result_path.read_text())
    if not result["loaded_from_src"]:
        raise BenchError(f"toda_bo was not imported from {SRC}")
    result["setup_s"] = result["ready"] - t0
    return result


def checked_run(work: Path, workload: str, seed: int, spans: Path | None = None):
    """One gated CLI run of a workload: (child result, Gate)."""
    wl = WORKLOADS[workload]
    out = work / "out"
    out.unlink(missing_ok=True)
    res = spawn(work, wl.args(seed), spans)
    if res["error"] is not None:
        return res, Gate().fail_all("traceback:\n" + res["error"])
    if not out.exists():
        return res, Gate().fail_all(f"no output (exit {res['exit']})")
    try:
        gate = wl.gate(out, res["out_sha256"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        gate = Gate().fail_all(f"unreadable output: {type(exc).__name__}: {exc}")
    if res["exit"] != 0:
        gate.fail_all(f"exit code {res['exit']}")
    return res, gate


# #### machine-speed reference #################################################


def ref_loop_s() -> float:
    """Time of a fixed stdlib Fraction loop that runs no toda_bo code, median of 3.

    Recorded beside each run to tell a slow machine from a slow program;
    never used to rescale a metric."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 8001):
            acc += Fraction(1, i)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# #### the two modes ###########################################################


def timed(work: Path, workload: str, seed: int, seconds: float):
    """Untraced runs back to back for `seconds`: end-to-end medians."""
    spawn(work, [])  # warm-up: byte-compiles the package on a fresh checkout
    setups = [spawn(work, [])["setup_s"] for _ in range(SETUP_PROBES)]
    ref = ref_loop_s()
    runs, gates = [], []
    deadline = time.monotonic() + seconds
    while not runs or time.monotonic() < deadline:
        res, gate = checked_run(work, workload, seed)
        runs.append(res)
        gates.append(gate)
        print(f"  run {len(runs)}: wall {res['wall_s']:.3f} s, cpu {res['cpu_s']:.3f} s, "
              f"rss {res['peak_rss_mb']:.1f} MB, failed {gate.failed}/{gate.attempted}",
              file=sys.stderr)
    setups += [r["setup_s"] for r in runs]

    def med(key):
        return statistics.median(r[key] for r in runs)

    metrics = {
        "wall_s": (med("wall_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
    }
    info = (f"{len(runs)} runs, {len(setups)} set-ups, median cpu_s {med('cpu_s'):.4f} s, "
            f"machine ref loop {ref:.4f} s")
    return metrics, gates, info


def traced(work: Path, workload: str, seed: int):
    """One untraced and one traced run: per-layer metrics and overhead."""
    ref = ref_loop_s()
    plain, plain_gate = checked_run(work, workload, seed)
    spans_path = WORK / f"spans-{workload}-{seed}.json"
    res, gate = checked_run(work, workload, seed, spans_path)
    if res.get("out_sha256") != plain.get("out_sha256"):
        gate.fail_all("traced output bytes differ from untraced output bytes")
    trace = res["trace"]
    if trace["missing"]:
        print(f"  not traced (missing): {', '.join(trace['missing'])}", file=sys.stderr)
    m = dict(trace["metrics"])
    m.update(gate.facts)
    for cid in CHECK_IDS:
        m[f"verify.check_s.{metric_safe(cid)}"] = trace["check_s"].get(cid, 0.0)
    m["evolve.rk4_steps"] = m.pop("evolve.rk4_calls")
    rk4_s = m["evolve.rk4_s"]
    m["evolve.steps_per_s"] = m["evolve.rk4_steps"] / rk4_s if rk4_s else 0.0
    m["cli.out_bytes"] = res.get("out_bytes", 0)
    m["trace.untraced_wall_s"] = plain["wall_s"]
    m["trace.overhead_s"] = res["wall_s"] - plain["wall_s"]
    m["run.cpu_s"] = plain["cpu_s"]
    m["machine.ref_loop_s"] = ref
    metrics = {name: (m.get(name, 0.0), unit) for name, unit in per_layer_units().items()}
    shares = sorted(((m[f"{layer}.share"], layer) for layer in LAYERS), reverse=True)
    info = "self-time shares: " + ", ".join(f"{layer} {s:.1%}" for s, layer in shares)
    info += f"; spans written to {spans_path.relative_to(ROOT)}"
    return metrics, [plain_gate, gate], info


def metric_safe(check_id: str) -> str:
    """Check id as a metric name part: '+'/'-' suffixes become _plus/_minus."""
    if check_id.endswith(("+", "-")):
        return check_id[:-1] + ("_plus" if check_id.endswith("+") else "_minus")
    return check_id


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name, in BENCHMARK.json order, with its unit."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    for g in GROUPS:
        if g == "evolve.rk4":
            units["evolve.rk4_s"], units["evolve.rk4_steps"] = "s", "count"
            units["evolve.steps_per_s"] = "1/s"
            continue
        units[f"{g}_s"], units[f"{g}_calls"] = "s", "count"
    for g in CACHED_GROUPS:
        units[f"{g}_cache_hit_ratio"] = "ratio"
    for k in (1, 2, 3):
        units[f"iom.charge_s.k{k}"] = "s"
    units.update({
        "iom.enum_vectors": "count",
        "scalar.mode_den_bits": "bits",
        "modes.certified_terms": "count",
        "modes.uncertified_terms": "count",
        "modes.useful_ratio": "ratio",
        "verify.rejected_draws": "count",
        "evolve.max_mode_error": "abs",
        "evolve.eta0_drift": "abs",
        "evolve.i2_rel_drift": "ratio",
        "cli.out_bytes": "bytes",
        "trace.spans": "count",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "run.cpu_s": "s",
        "machine.ref_loop_s": "s",
    })
    for cid in CHECK_IDS:
        units[f"verify.check_s.{metric_safe(cid)}"] = "s"
    return units


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (SRC / "toda_bo" / "cli.py").is_file():
        print(f"perfbench: no toda_bo source tree at {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            if args.trace:
                metrics, gates, info = traced(Path(tmp), args.workload, args.seed)
            else:
                metrics, gates, info = timed(Path(tmp), args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(g.attempted for g in gates)
    failed = sum(g.failed for g in gates)
    for g in gates:
        for reason in g.reasons:
            print(f"  FAILED: {reason}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {info}; fail_ratio {failed}/{attempted}")
    if not args.trace:
        print("  " + ", ".join(f"{k} {v:.4f} {u}" for k, (v, u) in metrics.items()))
    doc = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
