"""Command-line front end: check suites, charge tables, integration runs.

Four subcommands: `verify` runs registered identity checks and emits a
versioned JSON report, `iom` tabulates one truncated charge against its
closed form at a sampled point, `evolve` integrates the truncated mode flow
and writes JSON-lines snapshots, `soliton` renders a wave data file to exact
tau coefficients.  Report bytes are a pure function of the flags and seed;
the only exception is `--timings`, which adds wall-clock fields.

Exit codes: 0 everything passed, 1 a check or run failed (an unexpected
exception prints one `internal error` line), 2 usage trouble (unknown flag,
unknown identity or a selector that matches none, unreadable input file).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections.abc import Iterable
from itertools import chain

# numpy's bundled OpenBLAS starts an idle worker pool when it loads; the one
# BLAS call here, a short dot in np.convolve, runs on one thread regardless.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .evolve import (
    WAVE_Q,
    BlowUpError,
    RandomInit,
    RunConfig,
    q_from_gamma,
    record_line,
    run,
)
from .iom import I_k_def, ModeVector, closed_I, shell_tail, soliton_decay
from .modes import MAX_WEIGHT
from .scalar import (
    ZERO,
    BudgetError,
    ParamError,
    PoleError,
    scalar_decimal,
    scalar_str,
)
from .soliton import (
    Symbolic,
    decay_report,
    eta_series_from_taus,
    load_soliton_spec,
    make_tau_minus,
    make_tau_plus,
    modes_from_series,
    sample_decaying,
    soliton_spec_json,
    tau_series,
)
from .verify import S, CheckConfig, CheckReport, UnknownIdentity, run_suite

REPORT_SCHEMA = "toda-bo-report/1"


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _write(lines: Iterable[str], path: str | None) -> None:
    """Write the lines in order, to the file at path or to stdout; a lazy
    iterable is rendered one line at a time as it is written."""
    if path is None:
        sys.stdout.writelines(lines)
    else:
        with open(path, "w") as f:
            f.writelines(lines)


def emit_report(reports: list[CheckReport], path: str | None = None) -> None:
    """Write the versioned check report (stdout when no path is given).

    Compact separators: the report is a machine artifact and its bytes are
    part of the reproducibility contract."""
    doc = {"schema": REPORT_SCHEMA, "checks": [r.to_json() for r in reports]}
    _write([json.dumps(doc, separators=(",", ":")) + "\n"], path)


# #### subcommand handlers #####################################################


def _cmd_verify(args) -> int:
    cfg = CheckConfig(
        seed=args.seed,
        samples=args.samples,
        solitons=args.solitons,
        trunc_z=args.trunc_z,
        trunc_modes=args.trunc_modes,
        trunc_deg=args.trunc_deg,
        timings=args.timings,
    )
    reports = run_suite(args.identity, cfg)
    if not reports:
        raise UnknownIdentity(f"no identity matches {args.identity!r}")
    emit_report(reports, args.out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_iom(args) -> int:
    rng = random.Random(args.seed)
    params, b = sample_decaying(S, rng, args.solitons)
    window = 2 * args.modes
    mv = ModeVector.from_series(eta_series_from_taus(params, b, window))
    value = I_k_def(mv, args.k, args.modes, params.q)
    tail = shell_tail(args.k, args.modes, params.q, soliton_decay(params, b, mv))
    closed = closed_I(args.k, params)[-1]
    diff = abs(value - closed)
    doc = {
        "schema": "toda-bo-iom/1",
        "k": args.k,
        "cutoff": args.modes,
        "seed": args.seed,
        "point": params.to_json(),
        "amplitudes": [scalar_str(x) for x in b],
        "value": scalar_str(value),
        "value_decimal": scalar_decimal(value),
        "closed": scalar_str(closed),
        "closed_decimal": scalar_decimal(closed),
        "abs_diff_decimal": scalar_decimal(diff),
        "tail_bound_decimal": scalar_decimal(tail),
    }
    _write([_dumps(doc)], args.out)
    return 0


def _cmd_evolve(args) -> int:
    try:
        if args.init == "soliton":
            init, q = None, WAVE_Q  # gamma flags are moot
        else:
            q = q_from_gamma(complex(args.gamma_re, args.gamma_im))
            init = RandomInit(args.seed, q)
        cfg = RunConfig(
            n_modes=args.modes,
            dt=args.dt,
            steps=args.steps,
            check_interval=args.check_interval,
            init=init,
        )
    except ValueError as exc:
        print(f"toda-bo: {exc}", file=sys.stderr)
        return 2
    records, summary = run(cfg)
    header = {
        "schema": "toda-bo-evolve/1",
        "config": {
            "modes": args.modes,
            "dt": args.dt,
            "steps": args.steps,
            "check_interval": args.check_interval,
            "init": args.init,
            "seed": args.seed if args.init == "random" else None,
            "gamma": [args.gamma_re, args.gamma_im] if args.init == "random" else None,
            "q": [q.real, q.imag],
        },
    }
    lines = chain(
        [json.dumps(header) + "\n"],
        map(record_line, records),
        [json.dumps({"summary": summary}) + "\n"],
    )
    _write(lines, args.out)
    return 0


def _tau_terms(tau: Symbolic) -> list[dict]:
    return [
        {"z": zp, "b_exp": list(b_exp), "coeff": scalar_str(coeff)}
        for (zp, b_exp), coeff in sorted(tau.items())
    ]


def _tau_values(tau: Symbolic, b) -> dict:
    series = tau_series(tau, b)
    powers = sorted({zp for zp, _ in tau})
    return {f"z^{zp}": scalar_str(series.get(zp, ZERO)) for zp in powers}


def _cmd_soliton(args) -> int:
    try:
        params, b = load_soliton_spec(args.spec)
    except (OSError, json.JSONDecodeError, ParamError, ValueError) as exc:
        print(f"toda-bo: bad wave spec: {exc}", file=sys.stderr)
        return 2
    try:
        tp, tm = make_tau_plus(params), make_tau_minus(params)
        doc = {
            "schema": "toda-bo-soliton/1",
            "spec": soliton_spec_json(params, b),
            "tau_plus": _tau_terms(tp),
            "tau_minus": _tau_terms(tm),
        }
        if args.eval:
            rep = decay_report(params, b)
            eta = eta_series_from_taus(params, b, args.window, taus=(tp, tm))
            table = modes_from_series(eta)
            doc["tau_plus_values"] = _tau_values(tp, b)
            doc["tau_minus_values"] = _tau_values(tm, b)
            doc["eta_modes"] = {
                str(m): {"value": scalar_str(v), "decimal": scalar_decimal(v)}
                for m, v in sorted(table.items())
            }
            doc["decay"] = {
                "ok": rep["ok"],
                "outer_margin": scalar_str(rep["outer_margin"]),
                "inner_margin": scalar_str(rep["inner_margin"]),
                "d_factors": [scalar_str(d) for d in rep["d_factors"]],
            }
    except PoleError as exc:
        print(f"toda-bo: degenerate wave spec: {exc}", file=sys.stderr)
        return 2
    _write([_dumps(doc)], args.out)
    return 0


# #### parser ##################################################################


def _bounded_int(lo: int, hi: int | None = None):
    """argparse type for an integer in [lo, hi] (no upper limit when hi is None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo or (hi is not None and value > hi):
            span = f">= {lo}" if hi is None else f"between {lo} and {hi}"
            raise argparse.ArgumentTypeError(f"must be {span}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="toda-bo",
        description="Identity checks, charge tables and mode-flow runs "
        "for the deformed quadratic hierarchy.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run registered identity checks")
    v.add_argument("--identity", default="all", help="id, group, glob, or comma list")
    nonneg, positive = _bounded_int(0), _bounded_int(1)
    v.add_argument("--solitons", type=nonneg, default=3, help="max wave count")
    v.add_argument("--samples", type=positive, default=5, help="draws per wave count")
    v.add_argument("--seed", type=nonneg, default=7)
    v.add_argument("--trunc-z", type=nonneg, default=6, help="checked power window")
    n_modes = _bounded_int(1, MAX_WEIGHT)
    v.add_argument("--trunc-modes", type=n_modes, default=12, help="mode cutoff")
    v.add_argument("--trunc-deg", type=positive, default=6, help="monomial degree cap")
    v.add_argument("--timings", action="store_true", help="add wall-clock fields")
    v.add_argument("--out", default=None, help="report path (default stdout)")
    v.set_defaults(func=_cmd_verify)

    i = sub.add_parser("iom", help="truncated charge vs closed form at a sample")
    i.add_argument("--k", type=int, default=2, choices=(1, 2, 3))
    i.add_argument("--solitons", type=int, default=1, choices=(1, 2))
    i.add_argument("--modes", type=nonneg, default=48, help="enumeration cutoff")
    i.add_argument("--seed", type=nonneg, default=7)
    i.add_argument("--out", default=None)
    i.set_defaults(func=_cmd_iom)

    e = sub.add_parser("evolve", help="integrate the truncated mode flow")
    e.add_argument(
        "--modes", type=_bounded_int(1, 256), default=64, help="mode window half-width"
    )
    e.add_argument("--dt", type=float, default=1e-3)
    e.add_argument("--steps", type=int, default=1000)
    e.add_argument("--gamma-re", type=float, default=0.1)
    e.add_argument("--gamma-im", type=float, default=0.05)
    e.add_argument(
        "--init",
        choices=("soliton", "random"),
        default="soliton",
        help="wave data fixes q itself; gamma applies to random data",
    )
    e.add_argument("--check-interval", type=int, default=10)
    e.add_argument("--seed", type=nonneg, default=0, help="random init seed")
    e.add_argument("--out", default=None)
    e.set_defaults(func=_cmd_evolve)

    s = sub.add_parser("soliton", help="render a wave data file to tau terms")
    s.add_argument("--spec", required=True, help="JSON file {s, eps, a, b}")
    s.add_argument("--eval", action="store_true", help="add values and mode table")
    s.add_argument("--window", type=nonneg, default=16, help="mode table half-width")
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_soliton)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    # a float flag, or an abbreviation of only that one, takes the next
    # argument as its value, as "--dt=-1e-3" does: argparse alone reads
    # "-1e-3" as a flag
    floats = ("--dt", "--gamma-re", "--gamma-im")
    joined: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        if joined and sum(f.startswith(joined[-1]) for f in floats) == 1:
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    try:
        args = parser.parse_args(joined)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UnknownIdentity as exc:
        print(f"toda-bo: {exc.args[0]}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"toda-bo: {exc}", file=sys.stderr)
        return 1
    except (ParamError, PoleError, BudgetError) as exc:
        print(f"toda-bo: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"toda-bo: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"toda-bo: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
