"""Layer tracing for the benchmark, installed from outside the package.

Every function named in LAYERS is replaced, in each toda_bo module that
binds it (`verify` takes `bracket`, `I_k_def` and others by from-import),
with a wrapper that records a span: name, start, end and the index of the
enclosing span.  Spans stay in memory and are written out once, when the
run ends.  lru-cached builders are wrapped outside the cache, so a cache
hit still counts as a call; hit ratios come from the caches' own
`cache_info()`.

A layer is one toda_bo module.  Its self time is the time inside its
spans minus the time inside their child spans; time in functions that are
not wrapped (methods, private helpers) lands on the nearest wrapped
caller.
"""

from __future__ import annotations

import functools
import json
import time
from fractions import Fraction

# layer -> public functions defined in toda_bo.<layer> that get a span.
# Hot leaf helpers (modes.mono_weight and poly_mul: millions and tens of
# thousands of calls) are left out: their time stays with their caller.
LAYERS: dict[str, tuple[str, ...]] = {
    "scalar": (
        "det_ring",
        "newton_p_from_e",
        "e_geometric_tail",
        "power_sum_extended",
        "sample_param_point",
        "sample_amplitudes",
        "sample_shift_amount",
    ),
    "series": ("series_mul", "series_inv", "series_exp", "series_log"),
    "modes": (
        "build_tau",
        "build_phi",
        "build_eta",
        "build_xi",
        "build_eta_ratio",
        "build_xi_ratio",
        "eta_zero",
        "xi_zero",
        "bracket",
        "flow",
        "hirota",
        "hirota_affine_power",
        "apply_ratio_kernel",
        "delta_mul",
    ),
    "soliton": (
        "make_tau_plus",
        "make_tau_minus",
        "miwa_shift",
        "bilinear",
        "decay_report",
        "eta_series_from_taus",
        "xi_series_from_taus",
        "modes_from_series",
    ),
    "iom": (
        "fit_decay",
        "I_k_def",
        "Ibar_k_def",
        "M2_kernel",
        "M3_kernel",
        "M2_functional",
        "M3_functional",
        "closed_I",
        "closed_Ibar",
        "closed_M",
        "M_from_I",
    ),
    "verify": ("run_suite", "run_check", "resolve_selector", "quad_kernel_series"),
    "evolve": (
        "run",
        "initial_state",
        "rk4_step",
        "bo_rhs",
        "conserved_pair",
        "analytic_soliton_modes",
    ),
    "cli": ("main", "emit_report"),
}

# metric prefix -> spans it covers; each yields <prefix>_s and <prefix>_calls,
# counting only spans with no enclosing span of the same group.
GROUPS: dict[str, tuple[str, ...]] = {
    "series.mul": ("series.series_mul",),
    "series.inv": ("series.series_inv", "series.series_log", "series.series_exp"),
    "soliton.extract": ("soliton.eta_series_from_taus", "soliton.xi_series_from_taus"),
    "soliton.bilinear": ("soliton.bilinear",),
    "soliton.decay": ("soliton.decay_report",),
    "modes.field_build": (
        "modes.build_tau",
        "modes.build_phi",
        "modes.build_eta",
        "modes.build_xi",
        "modes.build_eta_ratio",
        "modes.build_xi_ratio",
        "modes.eta_zero",
        "modes.xi_zero",
    ),
    "modes.bracket": ("modes.bracket", "modes.flow"),
    "modes.hirota": ("modes.hirota", "modes.hirota_affine_power"),
    "modes.kernel": (
        "modes.apply_ratio_kernel",
        "modes.delta_mul",
        "verify.quad_kernel_series",
    ),
    "iom.charge": ("iom.I_k_def", "iom.Ibar_k_def"),
    "iom.kernel": ("iom.M2_kernel", "iom.M3_kernel"),
    "iom.functional": ("iom.M2_functional", "iom.M3_functional"),
    "verify.check": ("verify.run_check",),
    "evolve.rk4": ("evolve.rk4_step",),
    "evolve.reference": ("evolve.analytic_soliton_modes",),
}

# groups whose functions are lru-cached: <prefix>_cache_hit_ratio
CACHED_GROUPS = ("modes.field_build", "iom.functional")

_GROUP_OF = {fn: g for g, fns in GROUPS.items() for fn in fns}


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


class Tracer:
    """Span recorder for one run of the CLI in this interpreter."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.attrs: dict[int, object] = {}  # span index -> check id or charge k
        self.enum_vectors = 0
        self.den_bits = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._caches: dict[str, object] = {}

    def install(self, modules: dict) -> None:
        """Wrap every LAYERS function and rebind it wherever it is bound.

        modules maps a layer name to its toda_bo module; all of them are
        searched for bindings of each wrapped function."""
        for layer, names in LAYERS.items():
            for name in names:
                fn = getattr(modules[layer], name, None)
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                if hasattr(fn, "cache_info"):
                    self._caches[f"{layer}.{name}"] = fn
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)

    def _note(self, name: str, idx: int, args, kwargs) -> None:
        if name == "verify.run_check":
            self.attrs[idx] = _arg(args, kwargs, 0, "check_id")
        elif name in ("iom.I_k_def", "iom.Ibar_k_def"):
            k = _arg(args, kwargs, 1, "k")
            self.attrs[idx] = k
            if name == "iom.I_k_def":
                n = _arg(args, kwargs, 2, "N")
                self.enum_vectors += (n + 1) ** (k * (k - 1) // 2)
                for v in _arg(args, kwargs, 0, "eta").values.values():
                    if isinstance(v, Fraction):
                        self.den_bits = max(self.den_bits, v.denominator.bit_length())

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = self._note if name in ("verify.run_check", "iom.I_k_def", "iom.Ibar_k_def") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            if note is not None:
                note(name, idx, args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer self time and share, per-group time and calls, counters."""
        spans = self.spans
        dur = [end - start for _, start, end, _ in spans]
        inner = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                inner[parent] += dur[i]
        total = sum(d for d, (_, _, _, p) in zip(dur, spans) if p < 0)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for g in GROUPS:
            out[f"{g}_s"] = 0.0
            out[f"{g}_calls"] = 0
        for k in (1, 2, 3):
            out[f"iom.charge_s.k{k}"] = 0.0
        checks: dict[str, float] = {}
        for i, (name, _, _, parent) in enumerate(spans):
            out[name.split(".", 1)[0] + ".self_s"] += dur[i] - inner[i]
            g = _GROUP_OF.get(name)
            if g is None or self._inside(parent, g):
                continue
            out[f"{g}_s"] += dur[i]
            out[f"{g}_calls"] += 1
            if g == "iom.charge" and self.attrs[i] in (1, 2, 3):
                out[f"iom.charge_s.k{self.attrs[i]}"] += dur[i]
            elif g == "verify.check":
                cid = self.attrs[i]
                checks[cid] = checks.get(cid, 0.0) + dur[i]
        for layer in LAYERS:
            out[f"{layer}.share"] = out[f"{layer}.self_s"] / total if total else 0.0
        for g in CACHED_GROUPS:
            hits = misses = 0
            for fn_name in GROUPS[g]:
                fn = self._caches.get(fn_name)
                if fn is not None:
                    info = fn.cache_info()
                    hits, misses = hits + info.hits, misses + info.misses
            out[f"{g}_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["iom.enum_vectors"] = self.enum_vectors
        out["scalar.mode_den_bits"] = self.den_bits
        out["trace.spans"] = len(spans)
        out["trace.wall_s"] = total
        return {"metrics": out, "check_s": checks}

    def _inside(self, parent: int, group: str) -> bool:
        while parent >= 0:
            name, _, _, parent_of = self.spans[parent]
            if _GROUP_OF.get(name) == group:
                return True
            parent = parent_of
        return False

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "spans": self.spans}, f)
