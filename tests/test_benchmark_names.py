"""The benchmark's tracer wraps package functions by name.

`perfbench/spans.py` lists them in `LAYERS`; a name the package no longer
defines is reported as "not traced (missing)" and its span metrics read
nothing.  The file is read as a syntax tree, not imported, so this check
runs without the benchmark and without editing it.  The stranded names
are pinned: a rename that strands another one fails here, and emptying
the list goes with the next change to the benchmark itself.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

STRANDED = {
    "scalar.det_ring",
    "scalar.e_geometric_tail",
    "scalar.power_sum_extended",
    "series.series_exp",
    "series.series_log",
    "modes.build_eta_ratio",
    "modes.build_xi_ratio",
    "modes.delta_mul",
    "modes.flow",
    "modes.hirota_affine_power",
    "iom.Ibar_k_def",
    "iom.closed_Ibar",
}


def traced_layers() -> dict[str, tuple[str, ...]]:
    tree = ast.parse(SPANS.read_text(), str(SPANS))
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and node.target.id == "LAYERS"
    ]
    return ast.literal_eval(value)


def test_traced_names_missing_from_the_package_are_the_known_ones():
    layers = traced_layers()
    assert len(layers) == 8
    missing = {
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not hasattr(importlib.import_module(f"toda_bo.{layer}"), name)
    }
    assert missing == STRANDED
