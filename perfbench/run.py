"""Benchmark of the singquandles CLI: validate, color and phi.

Usage, from the repository root:

    python3 perfbench/run.py --workload {validate-tables,color-sparse,phi-images} \
        --seed N --seconds S --trace {0,1}

The benchmark writes seeded target tables (see workloads.py) into a work
directory under the checkout, then drives ``singquandles.cli.main(argv)`` in
this process, one case after another, capturing stdout and stderr.  It is a
closed loop with a single client: the next case starts when the previous one
returns.  No threads or worker processes generate load; numpy and its BLAS
are held to one thread.  Passes over the cases run until ``--seconds`` have
been measured; the last pass may stop part way, so every case has at least
one sample and most have several.  There is no warm-up pass: each CLI call a
user makes starts cold, so the first pass's corpus parsing (milliseconds) is
a cost users pay.  Every case of every pass is checked against its golden
exit code and stdout.

The host this benchmark was written on is a shared VM whose speed drifts by
20-30% over tens of seconds to minutes, with no steal time to show it (CPU
time drifts with wall time) and no hardware counters to count instructions
instead.  A slow phase can outlast a whole run, so every end-to-end time is
scaled by CALIBRATION_REF_S over the median time, in this run, of a fixed
reference kernel that uses none of the package (calibrate.py), timed in a
helper process after every case sample.  The times are thus seconds on a
host where that kernel takes CALIBRATION_REF_S, about what it takes on the
2-vCPU Xeon VM the benchmark was written on.  Nothing the package does
changes the kernel's time, so a change to the package moves these metrics
exactly as much as it moves the measured times.  Medians on both sides
match their time scales: the kernel's median and the cases' medians both
describe the host as it was over the whole run.  In one set of 10 runs per
workload, the quartile spread of pass_s over its median was 0.11 unscaled
and 0.075 scaled on validate-tables, 0.13 and 0.067 on phi-images, and 0.098
and 0.11 on color-sparse.  Each case's fastest sample, scaled by the
kernel's fastest time, spread more (0.17 on validate-tables): a 20 ms
kernel finds a fast moment that a 2 s case does not.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

    setup_s        median time for a fresh interpreter to import singquandles.cli,
                   sampled across the run, scaled
    pass_s         median over complete passes of the summed case samples,
                   scaled: the time one call of every case takes (see Runner)
    case_ms_gmean  geometric mean over cases of each case's median sample, scaled
    peak_rss_mb    ru_maxrss of this process, which ran every case
    ok_ratio       cases that passed their check / cases attempted

With ``--trace 1`` the first half of the time runs untraced passes and the
second half traced ones (spans.py); the last line reports the per-layer
metrics, medians over the traced passes, and ``trace.overhead_s``, the traced
minus the untraced median pass time; per-layer times are not scaled.

Earlier stdout lines are informational: the backend and numpy version, the
unscaled times (median, slowest and count of the complete passes, each
case's fastest and median sample, set-up samples), the kernel's times and
the scale, and the per-case layer breakdown of a traced pass.
The exit code is 0 only when the benchmark ran; a failed case is reported
in ``failed`` and ``correct``, not by the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent))
import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11
CALIBRATION_REF_S = 0.02
MIN_SAMPLE_S = 0.1


def import_cli():
    sys.path.insert(0, str(SRC))
    from singquandles import cli
    return cli


def time_import() -> float:
    """Seconds for a fresh interpreter to finish ``import singquandles.cli``.

    This process has imported the package already, so the bytecode caches
    are written, as an installed package would have them.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import singquandles.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


class Runner:
    """Runs cases through the CLI in process and checks every output.

    Untraced, a case that returns in under ``min_sample_s`` is called again
    until that much time has passed, and its sample is the mean call time:
    a single call of a few milliseconds says more about the moment it ran
    in than about the code.  Traced passes call each case once, so that
    their counts are exact per pass.
    """

    def __init__(self, cli, cases, min_sample_s: float):
        self.cli = cli
        self.cases = cases
        self.min_sample_s = min_sample_s
        self.tracer = None
        self.kernel = None  # a calibrate.Kernel, timed after each sample when set
        self.calibration: list[float] = []  # its times
        self.attempted = 0
        self.failed = 0

    def call(self, i: int) -> float:
        case = self.cases[i]
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.case = i
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(case.argv))
        except Exception as exc:  # a raising case is a failed case, not a crash
            code, err = None, io.StringIO(f"raised {exc!r}")
        dt = time.perf_counter() - t0
        self.attempted += 1
        if (code != case.exit_code or out.getvalue() != case.stdout
                or case.stderr_needs not in err.getvalue()):
            self.failed += 1
            print(f"FAILED {case.name}: exit {code}, stdout {out.getvalue()[:200]!r}, "
                  f"stderr {err.getvalue()[:200]!r}", file=sys.stderr)
        return dt

    def sample(self, i: int) -> float:
        """Mean seconds per call of case i."""
        spent, calls = 0.0, 0
        while not calls or spent < self.min_sample_s:
            spent += self.call(i)
            calls += 1
        return spent / calls

    def run_pass(self) -> tuple[float, list[float]]:
        """Wall time of one pass and the sample of each case."""
        gc.collect()
        t0 = time.perf_counter()
        times = [self.sample(i) for i in range(len(self.cases))]
        return time.perf_counter() - t0, times

    def run_for(self, seconds: float, between=lambda done: None) -> list[list[float]]:
        """Samples of each case, pass after pass, until ``seconds`` have been
        measured; the last pass stops where the time runs out, but the first
        always completes.  The reference kernel, if set, runs after each
        sample and ``between(done)`` after each complete pass, both outside
        the measured time; ``done`` is the share of ``seconds`` measured."""
        samples: list[list[float]] = [[] for _ in self.cases]
        spent = 0.0
        while True:
            gc.collect()
            for i, case_samples in enumerate(samples):
                if spent >= seconds and case_samples:
                    return samples
                t0 = time.perf_counter()
                case_samples.append(self.sample(i))
                spent += time.perf_counter() - t0
                if self.kernel:
                    self.calibration.append(self.kernel())
            between(spent / seconds)


def median_pass(samples: list[list[float]]) -> float:
    """Median over complete passes of the summed case samples."""
    return statistics.median(sum(p) for p in zip(*samples))


def describe(name: str, samples: list[list[float]]) -> str:
    """Median, max and count of the complete passes' summed samples.  No
    percentile has ten samples beyond it at these pass counts, so the max is
    the tail that is shown."""
    totals = [sum(p) for p in zip(*samples)]
    return (f"{name}: median {statistics.median(totals):.4f} s, max {max(totals):.4f} s, "
            f"{len(totals)} passes")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "singquandles" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that the work directory and the helper go too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs = workloads.Inputs(args.seed, workdir)
        cases = workloads.WORKLOADS[args.workload](inputs, workloads.expected_json(ROOT))

        cli = import_cli()
        import numpy
        from singquandles import kernels

        print(json.dumps({"workload": args.workload, "seed": args.seed, "cases": len(cases),
                          "backend": kernels.active_backend(), "numpy": numpy.__version__,
                          "numba": "importable" if "numba" in kernels.available_backends()
                          else "not importable; no numba number is measured"}))
        if args.trace:
            return traced(args, cli, cases)
        return untraced(args, cli, cases)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def report(runner: Runner, metrics: dict) -> int:
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def untraced(args, cli, cases) -> int:
    runner = Runner(cli, cases, MIN_SAMPLE_S)
    # set-up samples spread over the run, so that they see the same host as
    # the passes instead of one moment of it
    setup = []

    def between(done: float):
        while len(setup) < SETUP_SAMPLES * done:
            setup.append(time_import())

    with calibrate.Kernel() as runner.kernel:
        samples = runner.run_for(args.seconds, between)
    between(1)
    cal = runner.calibration
    scale = CALIBRATION_REF_S / statistics.median(cal)
    print(describe("unscaled pass_s", samples))
    print(json.dumps({"unscaled_case_ms": {c.name: {"fastest": round(1e3 * min(s), 3),
                                                    "median": round(1e3 * statistics.median(s), 3),
                                                    "samples": len(s)}
                                           for c, s in zip(cases, samples)}}))
    print(json.dumps({"unscaled_setup_s": [round(t, 4) for t in setup],
                      "calibration_s": {"fastest": round(min(cal), 5), "median": round(statistics.median(cal), 5),
                                        "samples": len(cal)}, "scale": round(scale, 4)}))
    return report(runner, {
        "setup_s": metric(scale * statistics.median(setup), "s"),
        "pass_s": metric(scale * median_pass(samples), "s"),
        "case_ms_gmean": metric(scale * 1e3 * math.exp(statistics.fmean(
            math.log(statistics.median(s)) for s in samples)), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": metric((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    })


def traced(args, cli, cases) -> int:
    runner = Runner(cli, cases, min_sample_s=0)
    plain = runner.run_for(args.seconds / 2)
    runner.tracer = tracer = spans.Tracer()
    layer_passes, traced = [], [[] for _ in cases]
    with tracer.installed():
        # whole passes only, so that every count is per pass
        while not layer_passes or sum(map(sum, traced)) < args.seconds / 2:
            tracer.reset()
            _, times = runner.run_pass()
            for case_samples, t in zip(traced, times):
                case_samples.append(t)
            layer_passes.append(tracer.layer_metrics())
    print(describe("untraced pass_s", plain))
    print(describe("traced pass_s", traced))
    print(json.dumps({"layer_seconds_by_case": tracer.per_case([c.name for c in cases])}))
    layers = spans.median_metrics(layer_passes)
    layers["trace.overhead_s"] = median_pass(traced) - median_pass(plain)
    return report(runner, {name: metric(value, _unit(name)) for name, value in layers.items()})


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name.endswith("_ratio") else "count"


if __name__ == "__main__":
    sys.exit(main())
