"""Command line: flag wiring, report schema, exit codes, byte reproducibility.

Oracles: the empty report is pinned to its exact byte string; exit codes are
driven through real flag combinations (an unknown identity, an unknown flag,
a window too small to certify anything, a step size large enough to blow
up); determinism is asserted on whole output files from repeated
invocations with identical flags and seed, and a seed past 2**32 draws
points other than the seed that shares its low 32 bits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import toda_bo
from toda_bo import cli, soliton
from toda_bo.cli import build_parser, emit_report, main
from toda_bo.scalar import ParamPoint
from toda_bo.soliton import (
    eta_series_from_taus,
    make_tau_plus,
    modes_from_series,
    parse_soliton_spec,
)
from toda_bo.verify import GROUPS

SMALL_WIN = ["--trunc-z", "4", "--trunc-modes", "8", "--trunc-deg", "4"]


def run_main(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


# #### exit codes ##############################################################


def test_unknown_identity_exits_2(capsys):
    rc, _, err = run_main(capsys, ["verify", "--identity", "bogus"])
    assert rc == 2
    assert "bogus" in err


@pytest.mark.parametrize(
    "selector", ["zz-*", ",", " , "], ids=["glob", "comma", "spaced-comma"]
)
def test_selector_matching_nothing_exits_2(capsys, tmp_path, selector):
    # an empty selection is usage trouble, not a passing run of no checks
    out = tmp_path / "report.json"
    rc, stdout, err = run_main(
        capsys, ["verify", "--identity", selector, "--out", str(out)]
    )
    assert rc == 2
    assert stdout == ""
    assert not out.exists()
    assert err == f"toda-bo: no identity matches {selector!r}\n"


def test_unknown_flag_exits_2(capsys):
    assert main(["verify", "--no-such-flag"]) == 2
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["iom", "--solitons", "3"],
        ["iom", "--modes", "-1"],
        ["evolve", "--modes", "0"],
        ["evolve", "--modes", "257"],
        ["verify", "--trunc-modes", "0"],
        ["verify", "--trunc-modes", "256"],
        ["verify", "--trunc-deg", "0"],
        ["verify", "--trunc-z", "-1"],
        ["verify", "--samples", "0"],
        ["verify", "--solitons", "-1"],
        ["verify", "--seed", "-1"],
        ["verify", "--samples", "five"],
        ["soliton", "--spec", "wave.json", "--window", "-1"],
    ],
    ids=" ".join,
)
def test_out_of_range_integer_flags_exit_2(capsys, argv):
    # each of these used to crash with a traceback, run with no cases, or
    # run past the documented mode cap
    rc, out, err = run_main(capsys, argv)
    assert rc == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"toda-bo {argv[0]}: error: argument")


def test_internal_error_exits_1_with_one_line(capsys, monkeypatch):
    # only an unknown selector means usage trouble; any other escaping
    # exception is a failed run
    def broken(selector, config):
        raise KeyError("missing table entry")

    monkeypatch.setattr(cli, "run_suite", broken)
    rc, out, err = run_main(capsys, ["verify", "--identity", "eta-eta"])
    assert rc == 1
    assert out == ""
    assert err == "toda-bo: internal error: KeyError: 'missing table entry'\n"


def _flag(name, values):
    return st.sampled_from(values).map(lambda v: [name, str(v)])


# just below the real axis, in both spellings: -5e-10 is refused, -1e-12 runs
_GAMMA = [
    "0.1", "0", "0.05", "-0.2", "120", "1e308", "nan", "inf", "-inf",
    "-0.0000000005", "-0.000000000001", "-5e-10", "-1e-12", "-1e-3",
]
_EVOLVE = st.tuples(
    st.just(["evolve"]),
    _flag("--modes", range(0, 9)),
    _flag("--steps", range(0, 21)),
    _flag("--dt", ["0.001", "0.01", "0.5", "50", "0", "-0.1", "-1e-3", "nan", "inf"]),
    _flag("--gamma-re", _GAMMA),
    _flag("--gamma-im", _GAMMA),
    _flag("--init", ["random", "soliton"]),
    _flag("--check-interval", [0, 3, 10]),
)
_IOM = st.tuples(
    st.just(["iom"]),
    _flag("--k", [0, 1, 2, 3]),
    _flag("--modes", range(-1, 9)),
    _flag("--solitons", [0, 1, 2, 3]),
    _flag("--seed", range(0, 50)),
)
_VERIFY = st.tuples(
    st.just(["verify", "--samples", "1"]),
    _flag("--identity", list(GROUPS["soliton-exact"]) + ["bogus", "zz-*", "hm-*,bogus"]),
    _flag("--solitons", [-1, 0, 1, 2]),
    _flag("--seed", range(0, 50)),
)
# "SPEC" in argv stands for a file holding the drawn wave spec document
_SPEC_ENTRY = st.one_of(
    st.sampled_from(["1/2", "1/8", "5/36", "-1/7", "1/3", "0", "1", "1/0", "x"]),
    st.integers(-2, 2),
    st.booleans(),
    st.none(),
    st.just(0.5),
)
_SPEC_LIST = st.one_of(st.lists(_SPEC_ENTRY, max_size=2), _SPEC_ENTRY)
_SPEC = st.one_of(
    st.fixed_dictionaries(
        {"s": _SPEC_ENTRY, "eps": _SPEC_ENTRY, "a": _SPEC_LIST, "b": _SPEC_LIST}
    ),
    st.dictionaries(st.sampled_from(["s", "eps", "a", "b"]), _SPEC_ENTRY, max_size=3),
    _SPEC_LIST,
)
_SOLITON = st.tuples(
    st.just(["soliton", "--spec", "SPEC"]),
    _flag("--window", range(-1, 9)),
    st.sampled_from([[], ["--eval"]]),
)
_STRAY = st.sampled_from([[], [], [], ["--bogus"], ["7"], ["--k"], ["--eval"], ["-3"]])


@given(
    st.one_of(_EVOLVE, _IOM, _VERIFY, _SOLITON).map(lambda parts: sum(parts, [])),
    _STRAY,
    _SPEC,
)
@example(["evolve", "--init", "random", "--gamma-re", "nan", "--steps", "2"], [], [])
@example(["evolve", "--init", "random", "--gamma-im", "inf", "--steps", "2"], [], [])
@example(["evolve", "--init", "random", "--gamma-im=-5e-10", "--steps", "2"], [], [])
@example(["soliton", "--spec", "SPEC"], [], {"s": "1/2", "eps": "1/8", "a": ["1/0"], "b": []})
@settings(max_examples=100, deadline=None)
def test_any_flag_combination_exits_cleanly(argv, stray, spec):
    # the contract: a result or a documented exit code, never an exception
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "wave.json")
        with open(path, "w") as f:
            json.dump(spec, f)
        argv = [path if a == "SPEC" else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with np.errstate(all="ignore"):
                rc = main(argv + stray)
    assert rc in (0, 1, 2), (rc, err.getvalue())
    assert "internal error" not in err.getvalue(), err.getvalue()
    if rc == 2:
        assert err.getvalue().startswith(("usage:", "toda-bo")), err.getvalue()


def test_check_failure_exits_1(capsys):
    # a one-mode window certifies nothing, which is a failing (inconclusive) check
    argv = ["verify", "--identity", "eta-eta", "--trunc-z", "2"]
    argv += ["--trunc-modes", "1", "--trunc-deg", "1"]
    rc, out, _ = run_main(capsys, argv)
    assert rc == 1
    doc = json.loads(out)
    assert doc["checks"][0]["pass"] is False
    assert doc["checks"][0]["detail"]["inconclusive"] is True


def test_passing_run_exits_0(capsys):
    rc, out, _ = run_main(capsys, ["verify", "--identity", "eta0-xi0"] + SMALL_WIN)
    doc = json.loads(out)
    assert rc == 0
    assert doc["schema"] == "toda-bo-report/1"
    (check,) = doc["checks"]
    assert check["pass"] is True
    assert check["residual"]["max_abs"] == "0/1"
    assert check["elapsed_ms"] is None


def test_large_verify_seeds_do_not_repeat_small_ones(capsys):
    # 2**32 + 7 shares seed 7's low 32 bits, and draws points of its own
    params = []
    for seed in (7, 2**32 + 7):
        argv = ["verify", "--identity", "hm-pm-1", "--samples", "2"]
        rc, out, _ = run_main(capsys, argv + ["--seed", str(seed)])
        assert rc == 0
        (check,) = json.loads(out)["checks"]
        params.append(check["params"])
    small, large = params
    assert large["seed"] == 2**32 + 7
    assert large["subseed"] == small["subseed"] ^ 2**32
    assert large["points"] != small["points"]


# #### report emission #########################################################


def test_empty_report_bytes(tmp_path):
    path = tmp_path / "report.json"
    emit_report([], str(path))
    assert path.read_text() == '{"schema":"toda-bo-report/1","checks":[]}\n'


def test_timings_flag_adds_wall_clock(capsys):
    argv = ["verify", "--identity", "eta0-xi0", "--timings"] + SMALL_WIN
    rc, out, _ = run_main(capsys, argv)
    assert rc == 0
    elapsed = json.loads(out)["checks"][0]["elapsed_ms"]
    assert isinstance(elapsed, float) and elapsed >= 0


def test_verify_out_file_is_reproducible(tmp_path, capsys):
    blobs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        argv = ["verify", "--identity", "lemma-3-4,prop-t2", "--out", str(path)]
        rc, out, _ = run_main(capsys, argv)
        assert rc == 0
        assert out == ""  # report goes to the file, nothing else to stdout
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    ids = [c["id"] for c in json.loads(blobs[0])["checks"]]
    assert ids == ["lemma-3-4", "prop-t2"]


# #### iom subcommand ##########################################################


def test_iom_table_fields_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "i1.json", tmp_path / "i2.json"
    argv = ["iom", "--k", "2", "--solitons", "1", "--modes", "16", "--seed", "11"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["schema"] == "toda-bo-iom/1"
    assert doc["k"] == 2 and doc["cutoff"] == 16
    value = Fraction(doc["value"])
    closed = Fraction(doc["closed"])
    assert doc["tail_bound_decimal"] is not None
    assert abs(value - closed) <= Fraction(doc["tail_bound_decimal"].replace("E", "e"))
    digits = doc["closed_decimal"].split("E")[0].replace("-", "").replace(".", "")
    assert len(digits.lstrip("0")) == 30  # thirty significant digits


# #### evolve subcommand #######################################################


def test_evolve_jsonl_structure_and_determinism(tmp_path):
    out1, out2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
    argv = ["evolve", "--modes", "12", "--dt", "0.001", "--steps", "20"]
    argv += ["--check-interval", "5"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = [json.loads(l) for l in out1.read_text().splitlines()]
    assert lines[0]["schema"] == "toda-bo-evolve/1"
    assert lines[0]["config"]["init"] == "soliton"
    records = lines[1:-1]
    assert len(records) == 5
    assert all(sorted(r) == ["I1", "I2", "modes", "t"] for r in records)
    assert len(records[0]["modes"]) == 25
    summary = lines[-1]["summary"]
    assert summary["eta0_drift"] <= 1e-14
    # dominated by window truncation at this small N, not by the stepper
    assert summary["max_mode_error"] <= 1e-8


def test_evolve_random_init_uses_gamma(tmp_path):
    out = tmp_path / "r.jsonl"
    argv = ["evolve", "--modes", "8", "--steps", "5", "--init", "random"]
    argv += ["--seed", "3", "--gamma-re", "0.1", "--gamma-im", "0.05"]
    assert main(argv + ["--out", str(out)]) == 0
    head = json.loads(out.read_text().splitlines()[0])
    assert head["config"]["gamma"] == [0.1, 0.05]
    assert abs(complex(*head["config"]["q"])) < 1
    # a negative value in exponent notation, spaced or joined by "="
    assert main(argv + ["--gamma-re", "-1e-3", "--out", str(out)]) == 0
    spaced = out.read_text()
    assert json.loads(spaced.splitlines()[0])["config"]["gamma"] == [-1e-3, 0.05]
    assert main(argv + ["--gamma-re=-1e-3", "--out", str(out)]) == 0
    assert out.read_text() == spaced
    # so does an abbreviation argparse resolves to the flag
    assert main(argv + ["--gamma-r", "-1e-3", "--out", str(out)]) == 0
    assert out.read_text() == spaced


def test_evolve_bad_gamma_or_dt_exits_2(capsys):
    argv = ["evolve", "--init", "random", "--gamma-im", "-0.2", "--steps", "2"]
    assert main(argv + ["--modes", "4"]) == 2
    capsys.readouterr()
    half_plane = "toda-bo: gamma must satisfy Im(gamma) >= 0\n"
    assert main(["evolve", "--init", "random", "--gamma-im=-5e-10", "--steps", "2"]) == 2
    assert capsys.readouterr().err == half_plane
    # exponent notation, spaced: the value is read, and refused for its sign
    assert main(["evolve", "--init", "random", "--gamma-im", "-1e-3", "--steps", "2"]) == 2
    assert capsys.readouterr().err == half_plane
    # 2*pi*Re(gamma) overflows to inf, and no phase is taken
    assert main(["evolve", "--init", "random", "--gamma-re", "1e308", "--steps", "2"]) == 2
    assert capsys.readouterr().err == "toda-bo: gamma's phase 2*pi*Re(gamma) must be finite\n"
    for dt in ("-0.1", "-1e-3", "inf"):
        assert main(["evolve", "--dt", dt, "--steps", "2", "--modes", "4"]) == 2
        assert capsys.readouterr().err == "toda-bo: dt must be positive and finite\n"
    # a float flag takes the next argument as its value, whatever it is
    assert main(["evolve", "--dt", "--steps", "2"]) == 2
    assert "argument --dt: invalid float value: '--steps'" in capsys.readouterr().err
    # an abbreviation reads the same bytes as the "=" spelling of its flag
    dt_sign = "toda-bo: dt must be positive and finite\n"
    for flag, abbrev, err in (
        ("--gamma-im", "--gamma-i", half_plane),
        ("--dt", "--d", dt_sign),
    ):
        base = ["evolve", "--init", "random", "--steps", "2", "--modes", "4"]
        joined = run_main(capsys, base + [f"{flag}=-1e-3"])
        assert joined == (2, "", err)
        assert run_main(capsys, base + [abbrev, "-1e-3"]) == joined
    # a prefix of both gamma flags, and "--", are refused as before
    for stray in (["--gamma", "-1e-3"], ["--g", "-1e-3"], ["--", "-1e-3"]):
        rc, out, err = run_main(capsys, ["evolve", "--steps", "2"] + stray)
        assert (rc, out) == (2, "")
        assert ("ambiguous option" in err) == (stray[0] != "--")


def test_evolve_blow_up_exits_1(capsys, tmp_path):
    # output is written only after the run returns, so a blow-up writes
    # nothing: no line on stdout and no file at --out
    path = tmp_path / "blow.jsonl"
    argv = ["evolve", "--modes", "8", "--dt", "50", "--steps", "10"]
    for extra in ([], ["--out", str(path)]):
        rc, out, err = run_main(capsys, argv + extra)
        assert rc == 1
        assert out == ""
        assert err.startswith("toda-bo:") and err.count("\n") == 1
        assert not path.exists()


def test_evolve_blow_up_names_the_stage_time(capsys):
    # the modes at t = 0 are finite: the first non-finite state is an RK4
    # stage, which sits at t + dt/2 or t + dt, never at the step's start
    rc, _, err = run_main(capsys, ["evolve", "--dt", "1e308", "--steps", "2"])
    assert rc == 1
    _, sep, t = err.strip().partition("non-finite mode at t=")
    assert sep and float(t) > 0, err


def test_evolve_memory_grows_by_one_mode_array_per_sample(tmp_path):
    # each sample holds its 129-mode complex array (2 KB of data) until the
    # run returns; its floats and its line are built while writing, one line
    # at a time (holding them per sample, plus a joined document, costs
    # 29 KB a sample)
    out = str(tmp_path / "run.jsonl")

    def peak(steps: int) -> int:
        tracemalloc.start()
        try:
            argv = ["evolve", "--modes", "64", "--steps", str(steps), "--out", out]
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)  # warm-up: kernel table, imports
    per_sample = (peak(400) - peak(200)) / 20  # 41 samples against 21
    assert per_sample <= 4096, per_sample


# #### soliton subcommand ######################################################


def test_soliton_render_and_eval(tmp_path):
    spec = {"s": "1/2", "eps": "1/8", "a": ["5/36"], "b": ["1/2"]}
    spec_path = tmp_path / "wave.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "wave_out.json"
    argv = ["soliton", "--spec", str(spec_path), "--eval", "--window", "6"]
    assert main(argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "toda-bo-soliton/1"
    assert doc["spec"] == spec
    point = ParamPoint(Fraction(1, 2), Fraction(1, 8), (Fraction(5, 36),))
    want = sorted(make_tau_plus(point).items())
    got = [((t["z"], tuple(t["b_exp"])), Fraction(t["coeff"])) for t in doc["tau_plus"]]
    assert got == want
    assert doc["eta_modes"]["0"]["value"] == "13/96"
    assert doc["decay"]["ok"] is True
    assert doc["tau_plus_values"]["z^1"] == "1/2"


def test_soliton_without_eval_is_symbolic_only(tmp_path, capsys):
    spec_path = tmp_path / "wave.json"
    spec_path.write_text(json.dumps({"s": "1/2", "eps": "1/8", "a": [], "b": []}))
    rc, out, _ = run_main(capsys, ["soliton", "--spec", str(spec_path)])
    assert rc == 0
    doc = json.loads(out)
    assert "eta_modes" not in doc
    assert doc["tau_plus"] == [{"z": 0, "b_exp": [], "coeff": "1/1"}]


def test_soliton_bad_spec_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["soliton", "--spec", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"s": "1/2"}))
    assert main(["soliton", "--spec", str(bad)]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["soliton", "--spec", str(garbled)]) == 2


_WAVE = {"s": "1/2", "eps": "1/8", "a": ["5/36"], "b": ["1/2"]}


@pytest.mark.parametrize(
    "doc",
    [
        [],
        "x",
        {**_WAVE, "s": None},
        {**_WAVE, "a": 5},
        {**_WAVE, "a": ["1/0"]},
        {**_WAVE, "b": [True]},
        {**_WAVE, "eps": 0.125},
        # an exponent is refused before Fraction expands it to 5000 digits
        {**_WAVE, "eps": "1e5000"},
        {**_WAVE, "eps": "0.5"},
    ],
    ids=[
        "list", "string", "null-s", "int-a", "zero-denominator", "bool-b",
        "float-eps", "exponent-eps", "decimal-eps",
    ],
)
def test_malformed_spec_exits_2_with_one_line(tmp_path, capsys, doc):
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run_main(capsys, ["soliton", "--spec", str(path)])
    assert (rc, out) == (2, "")
    assert err.startswith("toda-bo: bad wave spec: ") and err.count("\n") == 1, err


def test_soliton_eval_builds_the_tau_pair_once(tmp_path, capsys, monkeypatch):
    # the rendered taus are the ones --eval divides: one build of each,
    # counted wherever the builders are bound, and the same bytes
    built = {"plus": 0, "minus": 0}

    def counted(key, build):
        def wrapper(*args):
            built[key] += 1
            return build(*args)

        return wrapper

    for key, name in (("plus", "make_tau_plus"), ("minus", "make_tau_minus")):
        wrapper = counted(key, getattr(soliton, name))
        monkeypatch.setattr(soliton, name, wrapper)
        monkeypatch.setattr(cli, name, wrapper)
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(_WAVE))
    argv = ["soliton", "--spec", str(path), "--eval", "--window", "64"]
    rc, out, err = run_main(capsys, argv)
    assert (rc, err) == (0, "")
    assert built == {"plus": 1, "minus": 1}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8c0a5a0a5f15e650926957c027ba048783cc04f237033044def4912778e2ffb3"
    )


def test_soliton_renders_values_past_the_digit_limit(tmp_path, capsys):
    # the wide mode table of a tiny amplitude holds numerators and
    # denominators past the interpreter's int-to-str digit limit
    spec = {**_WAVE, "b": ["1/99999999999999999999"]}
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(spec))
    argv = ["soliton", "--spec", str(path), "--eval", "--window", "256"]
    rc, out, err = run_main(capsys, argv)
    assert (rc, err) == (0, "")
    params, b = parse_soliton_spec(spec)
    want = modes_from_series(eta_series_from_taus(params, b, 256))
    got, longest = {}, 0
    for m, mode in json.loads(out)["eta_modes"].items():
        p, q = mode["value"].split("/")
        got[int(m)] = Fraction(int(Decimal(p)), int(Decimal(q)))
        longest = max(longest, len(p), len(q))
    assert got == want
    # the limit exists from Python 3.10.7 on; 4300 is its default
    assert longest > getattr(sys, "get_int_max_str_digits", lambda: 4300)()


# #### installed entry point ###################################################

# pytest's pythonpath setting reaches its own process only: a child process
# finds this checkout's package first on its PYTHONPATH, ahead of any other
# installed copy
SRC = str(Path(toda_bo.__file__).resolve().parents[1])


def child_env() -> dict:
    """This process's environment, with SRC first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, path] if path else [SRC])}


def test_entry_point_process_exit_codes(tmp_path):
    script = shutil.which("toda-bo")
    cmd = [script] if script else [sys.executable, "-m", "toda_bo.cli"]
    proc = subprocess.run(
        cmd + ["verify", "--identity", "bogus"],
        env=child_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "bogus" in proc.stderr
    proc = subprocess.run(
        cmd + ["verify", "--identity", "zz-*"],
        env=child_env(), capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "toda-bo: no identity matches 'zz-*'\n"


def test_evolve_blow_up_process_prints_one_line(tmp_path):
    # run unwrapped, so numpy's overflow warnings would reach stderr
    script = shutil.which("toda-bo")
    cmd = [script] if script else [sys.executable, "-m", "toda_bo.cli"]
    for dt, rc in (("1e200", 1), ("inf", 2)):
        argv = ["evolve", "--modes", "8", "--dt", dt, "--steps", "10"]
        proc = subprocess.run(cmd + argv, env=child_env(), capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (rc, ""), proc.stderr
        assert proc.stderr.startswith("toda-bo: "), proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr


# #### start-up thread setting ################################################

# prints the thread setting after the import, then the native thread count
# (-1 where /proc/self/task is missing)
STARTUP_PROBE = """
import os
import toda_bo.cli
task = "/proc/self/task"
print(os.environ["OPENBLAS_NUM_THREADS"])
print(len(os.listdir(task)) if os.path.isdir(task) else -1)
"""


def _env_with_threads(value: str | None) -> dict:
    env = {k: v for k, v in child_env().items() if k != "OPENBLAS_NUM_THREADS"}
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    return env


def _startup(value: str | None) -> tuple[str, int]:
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE],
        env=_env_with_threads(value), capture_output=True, text=True, check=True,
    )
    setting, threads = proc.stdout.split()
    return setting, int(threads)


def test_cli_import_starts_openblas_single_threaded():
    setting, threads = _startup(None)
    assert setting == "1"
    assert threads in (-1, 1)


def test_cli_import_keeps_a_thread_setting_already_made():
    assert _startup("3")[0] == "3"


def test_thread_setting_moves_no_evolve_byte():
    argv = [sys.executable, "-m", "toda_bo.cli", "evolve", "--modes", "16", "--steps", "50"]
    outputs = [
        subprocess.run(
            argv, env=_env_with_threads(value), capture_output=True, check=True
        ).stdout
        for value in (None, "2")
    ]
    assert outputs[0].startswith(b'{"schema": "toda-bo-evolve/1"')
    assert outputs[0] == outputs[1]


# #### pinned tau-ratio outputs ################################################

# three waves with mixed signs: the pin of tau coefficients built from
# several pair factors, and of their key order
_THREE_WAVES = {
    "s": "1/2",
    "eps": "1/8",
    "a": ["5/36", "-1/7", "2/11"],
    "b": ["1/2", "1/3", "-1/4"],
}

# soliton --eval at --window 0 and 64 on three points off the sampled ones:
# one wave whose amplitude fails the decay margins, README's wave at s = 2
# (|q| > 1), and three waves with negative s and eps
_SPLIT_SPECS = {
    "margin-failing": {"s": "1/2", "eps": "1/8", "a": ["5/36"], "b": ["3"]},
    "s2": {**_WAVE, "s": "2"},
    "three-waves-negative": {
        "s": "-2/3",
        "eps": "-1/5",
        "a": ["1/7", "-2/9", "3/11"],
        "b": ["1/3", "2/5", "-1/4"],
    },
}
_SPLIT_DIGESTS = {
    ("margin-failing", "0"): (
        "ef737e4c4d3c1a8fb8ae7b3cb9ebfe7b8cf4d5325a17f04ef88181d037f3431b"
    ),
    ("margin-failing", "64"): (
        "c69c625cb28dd1ba60d58cbbd8c8805a70f68314342b51ed901500d44c1a32c3"
    ),
    ("s2", "0"): (
        "fe2ab059a620d42ba6977703cfc58915bbf9c330cf13370a7339811e58a0744b"
    ),
    ("s2", "64"): (
        "b170c02d47750923f3b8e9f4547a43da245150d7495a5ab9c5e74afb821de269"
    ),
    ("three-waves-negative", "0"): (
        "181146ce80ce623c897666489b1290240a23cdd3ef7430d318d58339087e694b"
    ),
    ("three-waves-negative", "64"): (
        "47879dbc5a8229feb8c72cfd82afe6f78cb3cca0172c661303b7eba1521bf122"
    ),
}

# iom --k K --solitons N --modes 48 --seed 7, by (K, N)
_WAVES = {"1": "one-wave", "2": "two-waves"}
_IOM_DIGESTS = {
    ("1", "1"): "a66a052f47c3ea533db2a8467f1492d692d6e4665f8f25d9f7cfaec55358f31a",
    ("1", "2"): "d57427aa2275794fcd22938ebbb1d503d5c8bceee77f8f59368f926cfc465449",
    ("2", "1"): "ad473f3996feefbe3b732c1e6d0522c65506d71fad37543a04afec381f0b1173",
    ("2", "2"): "563ab1e48fe76c8329fbac6ca18a57d28e40a349e53ef99427ac97d0b77725ce",
    ("3", "1"): "6e8f2c154b124b54c65e83d7f88b3b6e16705cc9abb6f8c4eaa2b4c5f4b89643",
    ("3", "2"): "6f0113ec0ac4536d5fa218fb4e8593273834adb4e230599fe221f5ceb5fd6917",
}


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["soliton", "--spec", _WAVE, "--eval", "--window", "64"],
            "8c0a5a0a5f15e650926957c027ba048783cc04f237033044def4912778e2ffb3",
        ),
        (
            ["soliton", "--spec", _THREE_WAVES, "--eval", "--window", "16"],
            "f2645e57ca3fe09130249b13a39928c027c60c480cce9a9c6034263fbcf94b5f",
        ),
        (
            ["evolve"],
            "b2521ec4c2ffd682d63780058da00d0ce223fd64a9c46c62a2cda0a2708f7f52",
        ),
        (
            ["evolve", "--init", "random", "--seed", "3", "--modes", "32"]
            + ["--steps", "200"],
            "269e68449e6184266fb8e24f4d7196a3bb85cfcb9f98ca70f7bd5882a043d749",
        ),
        (
            ["evolve", "--modes", "32", "--dt", "0.01", "--steps", "1000"],
            "c4f8ed8fd4b0a2407b87f2ad405754e6da637c96797d46d9f8e755972d5ec354",
        ),
        (
            ["evolve", "--modes", "256", "--steps", "100"],
            "7585c37c9a0ed0dc0aa9803546458e2fe871a4f134ab175c754bd2ae3b02b7f6",
        ),
        (
            ["iom", "--k", "3", "--solitons", "2", "--modes", "16", "--seed", "3"],
            "4ddb8a1d038b84d55b38d5537a0005efc7929feec21c16be6c24f86188df6bbd",
        ),
    ]
    + [
        (
            ["iom", "--k", k, "--solitons", n, "--modes", "48", "--seed", "7"],
            digest,
        )
        for (k, n), digest in _IOM_DIGESTS.items()
    ]
    + [
        (["soliton", "--spec", _SPLIT_SPECS[name], "--eval", "--window", w], digest)
        for (name, w), digest in _SPLIT_DIGESTS.items()
    ],
    ids=["soliton-eval-w64", "soliton-eval-three-waves-w16", "evolve-default"]
    + ["evolve-random-m32", "evolve-wave-m32-t10", "evolve-wave-m256"]
    + ["iom-k3-two-waves-m16-seed3"]
    + [f"iom-k{k}-{_WAVES[n]}" for k, n in _IOM_DIGESTS]
    + [f"soliton-eval-{name}-w{w}" for name, w in _SPLIT_DIGESTS],
)
def test_tau_ratio_output_bytes_are_pinned(tmp_path, capsys, argv, digest):
    # a dict in argv is a spec, written to a file first: _WAVE is README's
    # one-wave spec.  The soliton and iom runs read the tau ratio; the
    # default evolve run renders its reference modes to doubles and reports
    # the worst error against them; the random evolve run is the one
    # trajectory pinned without a reference; the iom runs carry the charge
    # value and its tail bound
    path = tmp_path / "wave.json"
    for a in argv:
        if isinstance(a, dict):
            path.write_text(json.dumps(a))
    argv = [str(path) if isinstance(a, dict) else a for a in argv]
    rc, out, err = run_main(capsys, argv)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_parser_defaults_match_acceptance_runs():
    args = build_parser().parse_args(["verify"])
    assert (args.seed, args.samples, args.solitons) == (7, 5, 3)
    assert (args.trunc_z, args.trunc_modes, args.trunc_deg) == (6, 12, 6)
    args = build_parser().parse_args(["verify", "--trunc-modes", "255"])
    assert args.trunc_modes == 255  # the largest window a packed monomial holds
    args = build_parser().parse_args(["evolve"])
    assert (args.modes, args.dt, args.steps) == (64, 1e-3, 1000)
