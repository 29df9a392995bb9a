"""Spans and counts at the package's module boundaries, recorded from outside.

The package itself carries no tracing.  ``Tracer.installed`` rebinds each
boundary function below to a wrapper, in every ``singquandles`` module that
holds a reference to it (``from .core import table_singquandle`` copies the
name, so rebinding only the defining module would miss those callers), and
puts the originals back on exit.  A boundary a later version of the package
no longer has is skipped; its metrics then read 0.

A span is (name, start, end, parent index, case index), kept in memory.  Self
time is a span's duration minus its direct children's, which do not overlap
because the CLI runs on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

MB = 1 << 20

# (module, function, span name); a span name of None only counts calls
FUNCTIONS = [
    ("cli", "_load_singquandle_arg", "cli.load_structure"),
    ("cli", "_print_phi", "polynomial.phi_render"),
    ("fileformats", "parse_singquandle", "fileformats.parse"),
    ("core", "table_singquandle", "core.build"),
    ("core", "validate_tables", "core.validate"),
    ("core", "derive_bar", None),
    ("kernels", "quandle_violations", "kernels.quandle_scan"),
    ("kernels", "sing_violations", "kernels.sing_scan"),
    ("kernels", "enumerate_colorings", "kernels.enum"),
    ("presentation", "enumerate_homs", "presentation.enumerate_homs"),
    ("presentation", "hom_image", "presentation.image"),
    ("terms", "eval_term", None),
    ("polynomial", "ssqp", "polynomial.ssqp"),
]
# (module, class, method, span name)
METHODS = [
    ("core", "FiniteSingquandle", "closure", "core.closure"),
    ("core", "FiniteSingquandle", "profiles", "core.profiles"),
    ("polynomial", "PhiInvariant", "__init__", "polynomial.phi_render"),
]
# spans whose tracemalloc peak is recorded; tracing runs only inside them
MALLOC_PEAK = {"kernels.quandle_scan", "kernels.sing_scan", "kernels.enum"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self.images: dict[int, set] = defaultdict(set)  # case index -> distinct images
        self.case = -1
        self._stack: list[int] = []

    def reset(self):
        """Start a new pass: drop spans, counts, peaks and images."""
        self.__init__()

    def _counting(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanning(self, name, fn):
        peak = name in MALLOC_PEAK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            if peak:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if peak:
                    self.peaks[name] = max(self.peaks.get(name, 0), tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, self.case)
                self.counts[name] += 1
            if name == "kernels.enum":
                self.counts["kernels.enum_rows"] += len(result)
            elif name == "presentation.enumerate_homs":
                self.counts["presentation.colorings"] += len(result)
            elif name == "presentation.image":
                self.images[self.case].add(result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "singquandles" or name.startswith("singquandles.")}
        undo = []

        def patch(owner, attr, value):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            for modname, fname, span in FUNCTIONS:
                orig = getattr(mods.get("singquandles." + modname), fname, None)
                if orig is None:
                    continue
                wrapper = (self._counting(f"{modname}.{fname}", orig) if span is None
                           else self._spanning(span, orig))
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            patch(mod, attr, wrapper)
            for modname, cname, meth, span in METHODS:
                cls = getattr(mods.get("singquandles." + modname), cname, None)
                if cls is not None and meth in vars(cls):
                    patch(cls, meth, self._spanning(span, vars(cls)[meth]))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Seconds per span name, inclusive and self, over the recorded spans."""
        inclusive: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            inclusive[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        own: dict[str, float] = defaultdict(float)
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            own[name] += t1 - t0 - child[idx]
        return inclusive, own

    def per_case(self, names: list[str]) -> dict[str, dict[str, float]]:
        """Inclusive seconds per span name for each case index."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, t0, t1, _, case in self.spans:
            out[names[case]][name] += t1 - t0
        return {case: dict(spans) for case, spans in out.items()}

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass."""
        inc, own = self.totals()
        c = self.counts
        images = sum(len(s) for s in self.images.values())
        return {
            "fileformats.parse_self_s": own["fileformats.parse"],
            "core.build_s": inc["core.build"],
            "core.validate_s": inc["core.validate"],
            "core.derive_bar_calls": c["core.derive_bar"] / c["core.build"] if c["core.build"] else 0.0,
            "kernels.quandle_scan_s": inc["kernels.quandle_scan"],
            "kernels.sing_scan_s": inc["kernels.sing_scan"],
            "kernels.scan_peak_mb": max(self.peaks.get("kernels.quandle_scan", 0),
                                        self.peaks.get("kernels.sing_scan", 0)) / MB,
            "kernels.enum_s": inc["kernels.enum"],
            "kernels.enum_peak_mb": self.peaks.get("kernels.enum", 0) / MB,
            "kernels.enum_rows": c["kernels.enum_rows"],
            "presentation.reverify_self_s": own["presentation.enumerate_homs"],
            "terms.eval_calls": c["terms.eval_term"],
            "presentation.colorings": c["presentation.colorings"],
            "presentation.image_s": inc["presentation.image"],
            "presentation.image_calls": c["presentation.image"],
            "presentation.distinct_image_ratio":
                images / c["presentation.image"] if c["presentation.image"] else 0.0,
            "core.closure_calls": c["core.closure"],
            "core.closure_s": inc["core.closure"],
            "core.profiles_calls": c["core.profiles"],
            "core.profiles_s": inc["core.profiles"],
            "polynomial.ssqp_s": inc["polynomial.ssqp"],
            "polynomial.ssqp_calls": c["polynomial.ssqp"],
            "polynomial.phi_render_s": inc["polynomial.phi_render"],
            "cli.load_structure_s": inc["cli.load_structure"],
        }


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over the traced passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
