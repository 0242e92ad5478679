"""Double-precision integration of the truncated quadratic mode flow.

The evolution closes on the Fourier modes: the time derivative of each mode
is a window-truncated convolution against the signed deformation kernel
sgn(l)(1-q**|l|).  Everything here is floating point; the exact modules
supply initial data and reference trajectories.  The right-hand side is a
direct O(N^2) convolution with no dealiasing, and the stepper is fixed-step
classical fourth-order Runge-Kutta, so conservation drift stays a clean
diagnostic instead of being absorbed by adaptivity.  A wave run divides the
tau ratio once: its one-wave reference is a travelling wave, rescaled exactly.
"""

from __future__ import annotations

import cmath
import json
import random as _random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .scalar import ParamPoint
from .soliton import eta_series_from_taus, modes_from_series


class BlowUpError(RuntimeError):
    """A mode's modulus exceeded BLOWUP (or went non-finite)."""


# one decaying wave, safely inside the sampling box |a| <= 1/4, |eps| <= 1/8,
# with tau roots away from the unit circle on both sides
DEFAULT_POINT = ParamPoint(Fraction(1, 2), Fraction(1, 8), (Fraction(5, 36),))
DEFAULT_AMPLITUDES = (Fraction(1, 2),)
WAVE_Q = complex(float(DEFAULT_POINT.q))  # the wave flows at its point's q
BLOWUP = 1e6

_Q_TOL = 1e-9


def q_from_gamma(gamma: complex) -> complex:
    """Deformation parameter from the lattice spacing, q = e^(2*pi*i*gamma).

    The upper half plane (including the real axis) keeps |q| <= 1, tested
    as State tests it, |q| <= 1 + _Q_TOL; the flow also divides by q, so q
    must not underflow, and the phase must not overflow."""
    if not cmath.isfinite(gamma):
        raise ValueError("gamma must be finite")
    if not cmath.isfinite(2 * cmath.pi * gamma.real):
        raise ValueError("gamma's phase 2*pi*Re(gamma) must be finite")
    # Im(gamma) clamped at -1 keeps exp finite, and |q| = e^(2 pi) fails the test
    q = cmath.exp(2j * cmath.pi * complex(gamma.real, max(gamma.imag, -1.0)))
    if abs(q) > 1 + _Q_TOL:
        raise ValueError("gamma must satisfy Im(gamma) >= 0")
    if q == 0 or not cmath.isfinite(1 / q):
        raise ValueError("Im(gamma) too large: q underflows to zero")
    return q


@dataclass(frozen=True)
class State:
    """Mode window eta_m, |m| <= N, stored densely at array index m + N."""

    N: int
    modes: np.ndarray
    t: float
    q: complex

    def __post_init__(self):
        modes = np.asarray(self.modes, dtype=np.complex128)
        object.__setattr__(self, "modes", modes)
        if self.N < 1:
            raise ValueError("window must keep at least one side mode")
        if modes.shape != (2 * self.N + 1,):
            raise ValueError(f"modes must have shape ({2 * self.N + 1},)")
        _finite(modes, self.t)
        if not cmath.isfinite(self.q):
            raise ValueError("time and deformation parameter must be finite")
        if abs(self.q) > 1 + _Q_TOL:
            raise ValueError("|q| <= 1 required (Im(gamma) >= 0)")
        if self.q == 0:
            raise ValueError("q must be nonzero")

    def mode(self, m: int) -> complex:
        return complex(self.modes[m + self.N])


def _finite(modes: np.ndarray, t: float) -> np.ndarray:
    """State's checks on modes at time t: a non-finite mode is a blow-up,
    then a non-finite time a ValueError."""
    if not np.isfinite(modes).all():
        raise BlowUpError(f"non-finite mode at t={t}")
    if not np.isfinite(t):
        raise ValueError("time and deformation parameter must be finite")
    return modes


@lru_cache(maxsize=32)
def kernel(N: int, q: complex) -> np.ndarray:
    """Signed kernel g_l = sgn(l)(1-q**|l|) over l in [-N, N].

    Built from one table of powers so that g_{-l} == -g_l exactly in floats;
    the zero-mode conservation of the discrete flow rests on that."""
    g = np.zeros(2 * N + 1, dtype=np.complex128)
    for l in range(1, N + 1):
        v = 1 - q**l
        g[N + l] = v
        g[N - l] = -v
    return g


def bo_rhs(g: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """d/dt eta_m = sum_l sgn(l)(1-q**|l|) eta_{-l} eta_{m+l}, window-truncated,
    with g = -kernel(N, q).

    Substituting i = -l turns the sum into the convolution of (g * eta)
    with eta at lag m; modes outside the window count as zero.  The "same"
    mode keeps the 2N+1 lags |m| <= N of the full convolution, each the
    same dot product, and skips the 2N it would throw away."""
    return np.convolve(g * modes, modes, "same")


def rk4_step(s: State, dt: float) -> State:
    """One classical RK4 step.  The stages are arrays given State's checks
    at their own times; the step's end is the one State built."""
    g, y, t = -kernel(s.N, s.q), s.modes, s.t
    k1 = bo_rhs(g, y)
    k2 = bo_rhs(g, _finite(y + (dt / 2) * k1, t + dt / 2))
    k3 = bo_rhs(g, _finite(y + (dt / 2) * k2, t + dt / 2))
    k4 = bo_rhs(g, _finite(y + dt * k3, t + dt))
    return State(s.N, y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4), t + dt, s.q)


def conserved_pair(s: State) -> tuple[complex, complex]:
    """The first two charges of the truncated flow.

    The first is the zero mode itself; the second adds the kernel-weighted
    quadratic sum (1-1/q) * sum_{n>0} q**n eta_{-n} eta_n."""
    i1 = s.mode(0)
    n = np.arange(1, s.N + 1)
    qn = s.q ** n
    quad = np.sum(qn * s.modes[s.N - n] * s.modes[s.N + n])
    return i1, i1 * i1 + (1 - 1 / s.q) * quad


# #### initial data ############################################################


@dataclass(frozen=True)
class RandomInit:
    """Seeded complex modes with |eta_m| ~ 0.25 * 0.5**|m|, flowing at q."""

    seed: int
    q: complex


def wave_modes(N: int) -> dict[int, Fraction]:
    """The wave data's exact modes {m: eta_m} at t = 0 for |m| <= N: the
    one tau pair and tau-ratio division of a wave run."""
    return modes_from_series(eta_series_from_taus(DEFAULT_POINT, DEFAULT_AMPLITUDES, N))


def initial_state(init: RandomInit, N: int) -> State:
    """The t = 0 state of random initial data; run() starts a wave itself."""
    rng = _random.Random(init.seed)
    modes = np.array(
        [
            0.25 * 0.5 ** abs(m) * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for m in range(-N, N + 1)
        ],
        dtype=np.complex128,
    )
    return State(N, modes, 0.0, init.q)


def analytic_soliton_modes(exact: dict[int, Fraction], t: float) -> np.ndarray:
    """Reference trajectory from the exact t = 0 modes (wave_modes): the
    amplitude b(t) = b e^{(1-q)a t} is a float lifted back to a rational.

    A tau term's z-degree is its amplitude exponent, so b -> lambda b is
    z -> lambda z and eta_m(b_t) = r**m eta_m(b) for r = b / b_t: one wave
    is a travelling wave (the unpacking refuses more; they move apart).
    Each mode is one correctly rounded int / int division, over powers of
    r's numerator and denominator built up one step at a time."""
    (a,), (b,) = DEFAULT_POINT.a, DEFAULT_AMPLITUDES
    q = float(DEFAULT_POINT.q)
    r = b / Fraction(float(b) * cmath.exp((1 - q) * float(a) * t).real)
    N = max(exact)
    out = np.empty(2 * N + 1, dtype=np.complex128)
    up = down = 1  # r.numerator**k, r.denominator**k
    for k in range(N + 1):
        hi, lo = exact[k], exact[-k]
        out[N + k] = hi.numerator * up / (hi.denominator * down)
        out[N - k] = lo.numerator * down / (lo.denominator * up)
        up, down = up * r.numerator, down * r.denominator
    return out


# #### trajectory driver #######################################################


@dataclass(frozen=True)
class RunConfig:
    n_modes: int = 64
    dt: float = 1e-3
    steps: int = 1000
    check_interval: int = 10
    init: RandomInit | None = None  # None: the wave data

    def __post_init__(self):
        if not 0 < self.dt < float("inf"):
            raise ValueError("dt must be positive and finite")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.check_interval < 1:
            raise ValueError("check interval must be >= 1")


def _record(s: State, i1: complex, i2: complex) -> dict:
    return {
        "t": s.t,
        "modes": s.modes,
        "I1": [i1.real, i1.imag],
        "I2": [i2.real, i2.imag],
    }


def record_line(record: dict) -> str:
    """A run record as its JSONL line, each mode as its [re, im] pair.

    Only this line's floats are built, so a run written one line at a time
    holds one line's text on top of its mode arrays."""
    line = dict(record)
    line["modes"] = record["modes"].view(np.float64).reshape(-1, 2).tolist()
    return json.dumps(line) + "\n"


def run(config: RunConfig) -> tuple[list[dict], dict]:
    """Integrate, sampling every check_interval steps (plus the endpoints).

    Returns (records, summary): records are snapshots {t, modes, I1, I2},
    each holding its State's own mode array (never mutated, not copied) and
    rendered to JSON by record_line; the summary carries the conservation
    drifts and, for wave initial data, the worst mode error against the
    analytic trajectory."""
    N, soliton = config.n_modes, config.init is None
    if soliton:
        exact = wave_modes(N)
        state = State(N, analytic_soliton_modes(exact, 0.0), 0.0, WAVE_Q)
    else:
        state = initial_state(config.init, N)
    i1_0, i2_0 = conserved_pair(state)
    i2_scale = max(abs(i2_0), 1e-300)
    records = [_record(state, i1_0, i2_0)]
    eta0_drift = 0.0
    i2_drift = 0.0
    mode_err = 0.0
    # a step that overflows is caught by State and BLOWUP, not by a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, config.steps + 1):
            state = rk4_step(state, config.dt)
            if np.abs(state.modes).max() > BLOWUP:
                raise BlowUpError(f"mode norm exceeded {BLOWUP} at t={state.t}")
            if k % config.check_interval == 0 or k == config.steps:
                i1, i2 = conserved_pair(state)
                records.append(_record(state, i1, i2))
                eta0_drift = max(eta0_drift, abs(i1 - i1_0))
                i2_drift = max(i2_drift, abs(i2 - i2_0) / i2_scale)
                if soliton:
                    ref = analytic_soliton_modes(exact, state.t)
                    mode_err = max(mode_err, float(np.abs(state.modes - ref).max()))
    summary = {
        "n_modes": config.n_modes,
        "dt": config.dt,
        "steps": config.steps,
        "final_t": state.t,
        "samples": len(records),
        "eta0_drift": eta0_drift,
        "i2_rel_drift": i2_drift,
        "max_mode_error": mode_err if soliton else None,
    }
    return records, summary

