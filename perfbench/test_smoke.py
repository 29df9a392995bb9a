"""Smoke test of the benchmark at tiny orders.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import run
import spans
import workloads as W


def tiny_cases(inp, expected):
    return [
        W.Case("validate affine(8,3,2)", ("validate", inp.write(W.affine_tables(8, 3, 2))),
               "valid singquandle of order 8\n"),
        W.Case("validate affine(8,3,2) with one R1 entry changed",
               ("validate", inp.write(W.affine_tables(8, 3, 2), perturb_r1=True)),
               "", exit_code=4, stderr_needs="singular-"),
        W.Case("color 6_11l-pd X-Z8-a", ("color", "--format", "machine", "corpus:6_11l-pd",
                                         inp.write(W.x_z8_a_tables())), "16\n"),
        W.corpus_probe(inp, expected),
    ]


@pytest.mark.parametrize("seed", [0, 1])
def test_tiny_pass_is_correct_untraced_and_traced(tmp_path, seed):
    cases = tiny_cases(W.Inputs(seed, tmp_path), W.expected_json(run.ROOT))
    runner = run.Runner(run.import_cli(), cases, min_sample_s=0)
    runner.run_pass()
    runner.tracer = tracer = spans.Tracer()
    with tracer.installed():
        runner.run_pass()
    assert (runner.attempted, runner.failed) == (8, 0)

    layers = tracer.layer_metrics()
    # two per valid build; the rejected table stops after the first
    assert tracer.counts["core.derive_bar"] == 2 * 3 + 1
    assert layers["core.derive_bar_calls"] == 7 / 4
    assert layers["presentation.colorings"] == layers["kernels.enum_rows"] == 16 + 16
    # only the phi case takes images: three closures and one profile table each
    assert layers["presentation.image_calls"] == layers["polynomial.ssqp_calls"] == 16
    assert layers["core.closure_calls"] == 3 * 16
    assert layers["core.profiles_calls"] == 16
    assert layers["terms.eval_calls"] > 0
    assert all(v > 0 for k, v in layers.items() if k.endswith("_s"))


def test_wrappers_are_removed_after_tracing():
    from singquandles import core, fileformats

    before = fileformats.table_singquandle, core.FiniteSingquandle.closure
    with spans.Tracer().installed():
        assert fileformats.table_singquandle is not before[0]
    assert (fileformats.table_singquandle, core.FiniteSingquandle.closure) == before


def test_a_wrong_output_is_counted_as_failed(tmp_path):
    inp = W.Inputs(0, tmp_path)
    wrong = W.Case("color 1_1l X-Z8-a", ("color", "--format", "machine", "corpus:1_1l",
                                         inp.write(W.x_z8_a_tables())), "17\n")
    runner = run.Runner(run.import_cli(), [wrong], min_sample_s=0)
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (1, 1)


def test_same_seed_writes_same_inputs(tmp_path):
    paths = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / name).mkdir()
        paths.append(Path(W.Inputs(seed, tmp_path / name).write(W.affine_tables(16, 3, 2))))
    a, b, c = (p.read_text() for p in paths)
    assert a == b != c


def test_fails_without_package_source(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phi-images", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_for_keeps_every_case_and_may_stop_mid_pass(tmp_path):
    inp = W.Inputs(0, tmp_path)
    case = W.Case("color 1_1l X-Z8-a", ("color", "--format", "machine", "corpus:1_1l",
                                        inp.write(W.x_z8_a_tables())), "16\n")
    runner = run.Runner(run.import_cli(), [case] * 3, min_sample_s=0)
    samples = runner.run_for(1e-9)
    assert [len(s) for s in samples] == [1, 1, 1]
    assert run.median_pass(samples) == sum(s[0] for s in samples)
    done = []
    with calibrate.Kernel() as runner.kernel:
        samples = runner.run_for(0.05, between=done.append)
    assert all(samples) and runner.failed == 0
    assert len(samples[0]) >= len(samples[-1]) >= len(done)
    assert done == sorted(done) and 0 < done[-1]
    assert len(runner.calibration) == sum(map(len, samples))
