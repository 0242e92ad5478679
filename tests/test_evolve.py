"""Mode-flow integrator: kernel, right-hand side, stepper, trajectory driver.

Oracles: the right-hand side is compared against a literal double loop over
the kernel sum, and bit for bit against the kept lags of numpy's full
convolution; the zero-mode derivative is cancelled algebraically by the
l <-> -l pairing, which the kernel table preserves exactly in floats; data
supported on one side closes into a triangular system whose first two modes
integrate in closed form (exponential and a two-exponential difference), and
the numeric trajectory must match both; the order of the stepper comes out
of step-halving; wave initial data and the rescaled reference samples are
compared bit for bit against the full exact tau pipeline at the
time-advanced amplitude.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toda_bo import evolve, soliton
from toda_bo.evolve import (
    BlowUpError,
    DEFAULT_AMPLITUDES,
    DEFAULT_POINT,
    RandomInit,
    RunConfig,
    State,
    WAVE_Q,
    analytic_soliton_modes,
    bo_rhs,
    initial_state,
    kernel,
    q_from_gamma,
    record_line,
    rk4_step,
    run,
    wave_modes,
)
from toda_bo.soliton import eta_series_from_taus, modes_from_series

Q_COMPLEX = q_from_gamma(0.1 + 0.05j)


def random_state(seed: int, N: int, q: complex = Q_COMPLEX, scale: float = 0.3):
    rng = np.random.default_rng(seed)
    modes = scale * (
        rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1)
    )
    return State(N, modes, 0.0, q)


def rhs(s: State) -> np.ndarray:
    """bo_rhs at a state's modes and kernel."""
    return bo_rhs(-kernel(s.N, s.q), s.modes)


def brute_rhs(s: State) -> np.ndarray:
    out = np.zeros(2 * s.N + 1, dtype=np.complex128)
    for m in range(-s.N, s.N + 1):
        acc = 0j
        for l in range(-s.N, s.N + 1):
            if l == 0 or abs(m + l) > s.N:
                continue
            sgn = 1 if l > 0 else -1
            acc += sgn * (1 - s.q ** abs(l)) * s.mode(-l) * s.mode(m + l)
        out[m + s.N] = acc
    return out


# #### parameters and state ####################################################


def test_q_from_gamma_half_plane():
    assert abs(abs(q_from_gamma(0.3)) - 1) < 1e-15
    q = q_from_gamma(0.1 + 0.05j)
    assert abs(q) == pytest.approx(math.exp(-2 * math.pi * 0.05))
    assert cmath.phase(q) == pytest.approx(2 * math.pi * 0.1)
    # non-finite gamma, or q too small to divide by
    for gamma in (0.1 - 0.2j, complex(math.nan, 0.05), complex(0.1, math.inf), 0.1 + 120j):
        with pytest.raises(ValueError):
            q_from_gamma(gamma)
    # a finite gamma whose phase 2*pi*Re(gamma) overflows
    for gamma in (complex(1e308, 0.05), complex(-1e308, 0.0)):
        with pytest.raises(ValueError, match="gamma's phase"):
            q_from_gamma(gamma)
    assert q_from_gamma(complex(2.8e307, 0.05)) == cmath.exp(
        2j * cmath.pi * complex(2.8e307, 0.05)
    )
    # one tolerance: |q| <= 1 + 1e-9 is what State accepts, so a slightly
    # negative Im(gamma) is refused here or builds a State, never in between
    with pytest.raises(ValueError, match="Im"):
        q_from_gamma(0.1 - 5e-10j)
    q = q_from_gamma(0.1 - 1e-12j)
    assert State(2, np.zeros(5), 0.0, q).q == q


def test_state_validation():
    with pytest.raises(ValueError):
        State(4, np.zeros(8), 0.0, 0.5)  # wrong window length
    with pytest.raises(ValueError):
        State(0, np.zeros(1), 0.0, 0.5)
    with pytest.raises(ValueError):
        State(2, np.zeros(5), 0.0, 1.5)  # |q| > 1
    with pytest.raises(ValueError):
        State(2, np.zeros(5), 0.0, 0.0)
    bad = np.zeros(5, dtype=complex)
    bad[1] = np.nan
    with pytest.raises(BlowUpError):
        State(2, bad, 0.0, 0.5)


def test_kernel_is_exactly_antisymmetric():
    for q in (0.25, Q_COMPLEX):
        g = kernel(10, q)
        assert g[10] == 0
        for l in range(1, 11):
            assert g[10 + l] == -g[10 - l]  # exact float negation
            assert g[10 + l] == 1 - q**l


# #### right-hand side #########################################################


def test_rhs_of_constant_state_vanishes():
    s = State(8, np.zeros(17, dtype=complex), 0.0, 0.25)
    s = State(8, s.modes + np.eye(17)[8] * 0.7, 0.0, 0.25)
    assert np.all(rhs(s) == 0)


def test_zero_mode_derivative_cancels():
    s = random_state(11, 16)
    g = kernel(s.N, s.q)
    # the pairing cancels term by term once the products share a grouping
    for l in range(1, s.N + 1):
        pos = g[s.N + l] * (s.mode(-l) * s.mode(l))
        neg = g[s.N - l] * (s.mode(l) * s.mode(-l))
        assert pos + neg == 0
    norm = np.abs(s.modes).sum()
    assert abs(rhs(s)[s.N]) <= 1e-14 * norm * norm


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([4, 9, 16]))
def test_rhs_matches_double_loop(seed, N):
    s = random_state(seed, N)
    got = rhs(s)
    want = brute_rhs(s)
    scale = max(np.abs(want).max(), 1.0)
    assert np.abs(got - want).max() <= 1e-13 * scale


@pytest.mark.parametrize("N", [1, 2, 7, 64, 256])
def test_rhs_is_the_kept_lags_of_the_full_convolution(N):
    # bo_rhs's "same" convolution must sum each kept lag exactly as the full
    # one does: the pinned evolve bytes rest on it, so a numpy that sums
    # "same" differently fails here first
    s = random_state(N, N)
    w = -kernel(N, s.q) * s.modes
    assert rhs(s).tobytes() == np.convolve(w, s.modes)[N : 3 * N + 1].tobytes()
    if N <= 7:
        want = brute_rhs(s)
        assert np.abs(rhs(s) - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)


def test_rhs_three_mode_example():
    # support {-1, 0, 1}: every derivative reduces to one or two kernel terms
    q = 0.25
    c, d_plus, d_minus = 0.6, 0.21, -0.14
    modes = np.zeros(9, dtype=complex)
    modes[4] = c
    modes[5] = d_minus  # eta_1 (stored by mode index, -N..N)
    modes[3] = d_plus  # eta_{-1}
    out = rhs(State(4, modes, 0.0, q))
    # pairing cancellation up to product rounding: (g*a)*b vs (g*b)*a
    assert abs(out[4]) <= 1e-16
    assert out[5] == pytest.approx(-(1 - q) * c * d_minus, rel=1e-15)
    assert out[3] == pytest.approx((1 - q) * c * d_plus, rel=1e-15)
    assert out[6] == pytest.approx(-(1 - q) * d_minus**2, rel=1e-15)
    assert out[2] == pytest.approx((1 - q) * d_plus**2, rel=1e-15)


def test_one_sided_support_is_invariant():
    # eta_{-l} eta_{m+l} needs l <= 0 and l >= -m: impossible for m < 0
    N = 8
    modes = np.zeros(2 * N + 1, dtype=complex)
    modes[N] = 0.4
    modes[N + 1] = 0.2 + 0.1j
    modes[N + 2] = -0.05
    s = State(N, modes, 0.0, 0.25)
    assert np.all(rhs(s)[:N] == 0)
    assert rhs(s)[N] == 0
    for _ in range(20):
        s = rk4_step(s, 0.05)
    assert np.all(s.modes[:N] == 0)
    assert s.modes[N] == 0.4  # zero mode untouched, exactly


# #### stepper #################################################################


def test_rk4_leaves_equilibrium_alone():
    modes = np.zeros(9, dtype=complex)
    modes[4] = 0.3 - 0.2j
    s = State(4, modes, 1.5, Q_COMPLEX)
    out = rk4_step(s, 0.1)
    assert np.array_equal(out.modes, s.modes)
    assert out.t == pytest.approx(1.6)


def test_rk4_stages_are_checked_like_states():
    # a stage checks its modes first, at its own time, then that time; as
    # in run, an overflowing step is caught by the checks, not a warning
    modes = np.zeros(9, dtype=complex)
    modes[4] = 0.3
    with pytest.raises(ValueError, match="time and deformation parameter"):
        rk4_step(State(4, modes, 1.7e308, 0.25), 1e308)
    modes[5] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError, match=r"non-finite mode at t=5e\+307"):
            rk4_step(State(4, modes, 0.0, 0.25), 1e308)


def test_zero_state_stays_zero():
    s = State(6, np.zeros(13, dtype=complex), 0.0, 0.25)
    for _ in range(10):
        s = rk4_step(s, 0.1)
    assert np.all(s.modes == 0)


@pytest.mark.parametrize("q", [0.25, Q_COMPLEX])
def test_triangular_closed_forms(q):
    # one-sided data: eta_0 is frozen, eta_1 is a pure exponential, eta_2 is
    # driven by eta_1^2 and integrates to a two-exponential difference
    N, dt, steps = 8, 1e-3, 500
    c, delta = 0.3, 0.05
    modes = np.zeros(2 * N + 1, dtype=complex)
    modes[N] = c
    modes[N + 1] = delta
    s = State(N, modes, 0.0, q)
    for _ in range(steps):
        s = rk4_step(s, dt)
    T = steps * dt
    a_rate = (1 - q * q) * c
    b_rate = 2 * (1 - q) * c
    source = -(1 - q) * delta * delta
    eta1 = delta * cmath.exp(-(1 - q) * c * T)
    eta2 = source * (cmath.exp(-b_rate * T) - cmath.exp(-a_rate * T)) / (
        a_rate - b_rate
    )
    assert s.mode(0) == c
    assert abs(s.mode(1) - eta1) <= 1e-12 * abs(eta1)
    assert abs(s.mode(2) - eta2) <= 1e-9 * abs(eta2)
    assert s.mode(-1) == 0


def order_ratio(s: State, dt: float, steps: int) -> float:
    """Step-halving ratio |y_h - y_{h/2}| / |y_{h/2} - y_{h/4}| over one horizon.

    A fourth-order one-step method gives 16 in the smooth regime."""

    def advance(h: float, n: int) -> np.ndarray:
        cur = s
        for _ in range(n):
            cur = rk4_step(cur, h)
        return cur.modes

    y1 = advance(dt, steps)
    y2 = advance(dt / 2, 2 * steps)
    y4 = advance(dt / 4, 4 * steps)
    e24 = float(np.abs(y2 - y4).max())
    assert e24 > 0, "horizon too short: refinement error vanished"
    return float(np.abs(y1 - y2).max()) / e24


def wave_state(N: int) -> State:
    """The wave's t = 0 state, built as run() builds it."""
    return State(N, analytic_soliton_modes(wave_modes(N), 0.0), 0.0, WAVE_Q)


def test_rk4_is_fourth_order():
    s = wave_state(32)
    ratio = order_ratio(s, 0.25, 8)
    assert 12 <= ratio <= 20


# #### initial data and trajectory driver ######################################


def pipeline_modes(t: float, N: int) -> np.ndarray:
    """complex() of each exact mode of the full tau pipeline at the amplitude
    advanced to t, lifted from its double as the reference lifts it."""
    q = float(DEFAULT_POINT.q)
    bt = tuple(
        Fraction(float(b) * cmath.exp((1 - q) * float(a) * t).real)
        for a, b in zip(DEFAULT_POINT.a, DEFAULT_AMPLITUDES)
    )
    exact = modes_from_series(eta_series_from_taus(DEFAULT_POINT, bt, N))
    assert all(type(c) is Fraction for c in exact.values())
    return np.array([complex(exact[m]) for m in range(-N, N + 1)])


def run_sample_times(config: RunConfig) -> list[float]:
    """The times at which run samples, reached as run reaches them: by
    repeated + dt, not as k * dt."""
    t, times = 0.0, []
    for k in range(1, config.steps + 1):
        t += config.dt
        if k % config.check_interval == 0 or k == config.steps:
            times.append(t)
    return times


def test_soliton_state_matches_exact_pipeline_at_t0():
    # run()'s first record is its start state, which wave_state rebuilds
    (start, *_), _ = run(RunConfig(n_modes=16, steps=1))
    s = wave_state(16)
    assert start["modes"].tobytes() == pipeline_modes(0.0, 16).tobytes()
    assert s.modes.tobytes() == start["modes"].tobytes()
    assert s.q == complex(float(DEFAULT_POINT.q))


@pytest.mark.parametrize("t", [0.0, 0.37, 1.0, 10.0, "run"])
def test_reference_modes_are_the_exact_modes_rounded_once(t):
    # the reference rescales the exact t = 0 modes; each sample must be
    # complex() of the full pipeline's Fraction mode at the advanced
    # amplitude, bit for bit.  "run" is every sample time of a default-step
    # run at the default window; by t = 10 the amplitude has passed 1
    if t == "run":
        short = RunConfig(n_modes=8, steps=35)
        assert [r["t"] for r in run(short)[0][1:]] == run_sample_times(short)
        times, windows = run_sample_times(RunConfig()), (RunConfig().n_modes,)
        assert len(times) == 100 and times[-1] != 1.0
    else:
        times, windows = (t,), (8, 64)
    for N in windows:
        exact = wave_modes(N)
        for sample in times:
            ref = analytic_soliton_modes(exact, sample)
            assert ref.tobytes() == pipeline_modes(sample, N).tobytes()


def test_wave_run_divides_the_tau_ratio_once(monkeypatch):
    # the initial modes are the one tau-ratio division of a run; every
    # reference sample rescales them.  Before the rescaling, this run made
    # 4 divisions (the initial modes and each of its 3 samples), and the
    # default run 101
    calls = 0
    divide = soliton.eta_series_from_taus

    def counted(*args):
        nonlocal calls
        calls += 1
        return divide(*args)

    monkeypatch.setattr(soliton, "eta_series_from_taus", counted)
    monkeypatch.setattr(evolve, "eta_series_from_taus", counted)
    _, summary = run(RunConfig(n_modes=8, steps=30, check_interval=10))
    assert summary["samples"] == 4 and summary["max_mode_error"] > 0
    assert calls == 1
    run(RunConfig(n_modes=8, steps=30, check_interval=10))
    assert calls == 2


def test_wave_run_builds_the_tau_pair_once(monkeypatch):
    # the initial modes and every reference sample evaluate one
    # amplitude-free tau pair, which the division builds; evolve binds no
    # tau builder of its own
    built = {"plus": 0, "minus": 0}

    def counted(key, build):
        def wrapper(*args):
            built[key] += 1
            return build(*args)

        return wrapper

    for key, name in (("plus", "make_tau_plus"), ("minus", "make_tau_minus")):
        wrapper = counted(key, getattr(soliton, name))
        monkeypatch.setattr(soliton, name, wrapper)
        assert not hasattr(evolve, name)
    _, summary = run(RunConfig(n_modes=8, steps=30, check_interval=10))
    assert summary["samples"] == 4 and summary["max_mode_error"] > 0
    assert built == {"plus": 1, "minus": 1}
    _, again = run(RunConfig(n_modes=8, steps=30, check_interval=10))
    assert again == summary
    assert built == {"plus": 2, "minus": 2}


def test_random_state_is_seeded_and_decaying():
    a = initial_state(RandomInit(5, Q_COMPLEX), 12)
    b = initial_state(RandomInit(5, Q_COMPLEX), 12)
    c = initial_state(RandomInit(6, Q_COMPLEX), 12)
    assert np.array_equal(a.modes, b.modes)
    assert not np.array_equal(a.modes, c.modes)
    for m in range(-12, 13):
        assert abs(a.mode(m)) <= 0.25 * 0.5 ** abs(m) * math.sqrt(2) + 1e-15
    assert a.q == Q_COMPLEX


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(dt=0.0)
    with pytest.raises(ValueError):
        RunConfig(steps=0)
    with pytest.raises(ValueError):
        RunConfig(check_interval=0)


def test_run_samples_and_conserves():
    cfg = RunConfig(n_modes=16, dt=1e-3, steps=40, check_interval=10)
    records, summary = run(cfg)
    assert len(records) == 5  # t=0 plus four samples
    assert [sorted(r) for r in records] == [["I1", "I2", "modes", "t"]] * 5
    assert records[0]["t"] == 0.0
    assert len(records[0]["modes"]) == 33
    for r in records:  # each record renders to one JSON line of its values
        line = record_line(r)
        assert line.endswith("\n") and line.count("\n") == 1
        doc = json.loads(line)
        assert (doc["t"], doc["I1"], doc["I2"]) == (r["t"], r["I1"], r["I2"])
        assert doc["modes"] == [[z.real, z.imag] for z in r["modes"]]
    assert summary["eta0_drift"] <= 1e-14
    assert summary["i2_rel_drift"] <= 1e-12
    assert summary["max_mode_error"] is not None
    assert summary["max_mode_error"] <= 1e-9
    assert summary["final_t"] == pytest.approx(0.04)
    assert summary["samples"] == 5


def test_run_random_reports_no_mode_error():
    cfg = RunConfig(
        n_modes=12,
        dt=1e-3,
        steps=20,
        check_interval=5,
        init=RandomInit(2, Q_COMPLEX),
    )
    records, summary = run(cfg)
    assert summary["max_mode_error"] is None
    assert summary["eta0_drift"] <= 1e-13
    assert summary["i2_rel_drift"] <= 1e-6
    assert len(records) == 5


def test_blow_up_guard_trips(monkeypatch):
    monkeypatch.setattr(evolve, "BLOWUP", 1e-3)
    cfg = RunConfig(n_modes=16, dt=1e-3, steps=5)
    with pytest.raises(BlowUpError):
        run(cfg)
