"""The boundaries that the benchmark's tracer names and the package lacks.

``perfbench/spans.py`` wraps package functions and methods by name and
skips, without a word, any that the package no longer has; the metrics fed
by a skipped boundary then read 0.  This test reads that file as text,
without importing or changing it, and pins the set of named boundaries that
are missing, so a change that removes or renames one shows up here.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# core.derive_bar: the quandle kernel's one preimage count gives bar, so
# core.derive_bar_calls reads 0 (kernels.quandle_violations counts builds).
# presentation.hom_image and terms.eval_term: only tests called them, and
# they are gone; the metrics they fed (presentation.image_*, terms.eval_calls)
# read 0 on every workload before, since no command calls either name, so no
# reported number changes
MISSING = {"core.derive_bar", "presentation.hom_image", "terms.eval_term"}


def _listed(name: str) -> list:
    """The literal value of the module-level assignment to name."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no {name}")


def test_traced_boundaries_missing_from_the_package():
    missing = set()
    for module, fname, _ in _listed("FUNCTIONS"):
        if not hasattr(importlib.import_module(f"singquandles.{module}"), fname):
            missing.add(f"{module}.{fname}")
    for module, cname, meth, _ in _listed("METHODS"):
        cls = getattr(importlib.import_module(f"singquandles.{module}"), cname, None)
        if cls is None or meth not in vars(cls):
            missing.add(f"{module}.{cname}.{meth}")
    assert missing == MISSING
