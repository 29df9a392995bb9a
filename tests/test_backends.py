import os
import random
import subprocess
import sys

import numpy as np
import pytest

import singquandles
from singquandles import corpus, kernels
from singquandles.core import derive_bar
from singquandles.errors import NotRightInvertibleError
from singquandles.formulas import affine_singquandle
from singquandles.presentation import _compile, enumerate_homs

from oracles import shift_singquandle, violation_rows

HAVE_BOTH = set(kernels.available_backends()) >= {"numba", "numpy"}
needs_both = pytest.mark.skipif(not HAVE_BOTH, reason="numba not importable")


def _random_tables(rng, n):
    """Affine and shift structures (shift is not affine), possibly with a few
    cells corrupted, and junk tables, half with a right-invertible star."""
    kind = rng.randrange(4)
    if kind < 2:
        if kind == 0:
            t = rng.choice([t for t in range(1, n) if np.gcd(t, n) == 1])
            q = affine_singquandle(n, t, rng.randrange(n))
        else:
            q = shift_singquandle(n, rng.randrange(n))
        star, r1, r2 = q.star.copy(), q.r1.copy(), q.r2.copy()
        for _ in range(rng.randrange(4)):  # possibly corrupt a few cells
            table = rng.choice([star, r1, r2])
            table[rng.randrange(n), rng.randrange(n)] = rng.randrange(n)
        return star, r1, r2
    if kind == 2:
        star = np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
    else:
        star = np.array([rng.sample(range(n), n) for _ in range(n)]).T
    r1 = np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
    r2 = np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
    return star, r1, r2


def test_violation_rows_match_oracle(backend):
    # exact witnesses, row for row: order within each code and the per-code cap
    rng = random.Random(11)
    singular_tables = 0
    for _ in range(120):
        star, r1, r2 = _random_tables(rng, rng.randrange(2, 9))
        try:
            bar = derive_bar(star)
        except NotRightInvertibleError:
            bar = None
        singular_tables += bar is not None
        for cap in (1, 3, 100):
            quandle, singular = violation_rows(star, bar, r1, r2, cap)
            assert kernels.quandle_violations(star, cap).tolist() == [list(r) for r in quandle]
            if bar is not None:
                got = kernels.sing_violations(star, bar, r1, r2, cap).tolist()
                assert got == [list(r) for r in singular]
    assert singular_tables >= 60


@needs_both
def test_quandle_kernel_agreement():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randrange(2, 9)
        star, _, _ = _random_tables(rng, n)
        a = kernels._BACKENDS["numpy"]["quandle"](star, 100)
        b = kernels._BACKENDS["numba"]["quandle"](star.astype(np.int64), 100)
        assert np.array_equal(a, b)


@needs_both
def test_sing_kernel_agreement():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randrange(2, 9)
        star, r1, r2 = _random_tables(rng, n)
        try:
            bar = derive_bar(star)
        except Exception:
            continue  # kernel contract assumes right-invertible star
        args = [x.astype(np.int64) for x in (star, bar, r1, r2)]
        a = kernels._BACKENDS["numpy"]["sing"](*args, 100)
        b = kernels._BACKENDS["numba"]["sing"](*args, 100)
        assert np.array_equal(a, b)


@needs_both
def test_violation_cap_is_per_axiom():
    star = np.zeros((6, 6), dtype=np.int64)  # wildly invalid
    for cap in (1, 5, 100):
        outs = []
        for name in ("numpy", "numba"):
            out = kernels._BACKENDS[name]["quandle"](star, cap)
            outs.append(out)
            for code in (0, 1, 2):
                assert np.count_nonzero(out[:, 0] == code) <= cap
        assert np.array_equal(outs[0], outs[1])


@needs_both
@pytest.mark.parametrize("link", ("1_1l", "6_11l", "K1", "K2"))
def test_enumeration_agreement_on_corpus(link):
    pres = corpus.load(link)
    code, steps, max_stack = _compile(pres)
    for target in ("X-Z4", "X-Z8-a", "X-Z8-b"):
        q = corpus.load(target)
        rows = []
        for name in ("numpy", "numba"):
            rows.append(kernels._BACKENDS[name]["enum"](
                q.order, len(pres.generators), q.star, q.bar, q.r1, q.r2,
                code, steps, max_stack))
        assert np.array_equal(rows[0], rows[1])


@needs_both
def test_enumeration_agreement_via_set_backend():
    pres = corpus.load("6_11l")
    q = corpus.load("X-Z8-a")
    results = {}
    before = kernels.active_backend()
    try:
        for name in ("numpy", "numba"):
            kernels.set_backend(name)
            results[name] = enumerate_homs(pres, q)
    finally:
        kernels.set_backend(before)
    assert results["numpy"] == results["numba"]


def test_set_backend_rejects_unknown():
    with pytest.raises(ValueError):
        kernels.set_backend("fortran")


def test_numpy_frontier_keeps_aliased_columns_shared():
    # a derive like c = b stores one array under two keys; repeating or
    # filtering the frontier must transform it once and keep it shared
    a, b = np.arange(3), np.arange(3, 6)
    calls = []
    out = kernels._share({0: a, 1: b, 2: a}, lambda c: calls.append(1) or c * 2)
    assert len(calls) == 2
    assert out[0] is out[2]
    assert out[1].tolist() == [6, 8, 10]


def _child_env(backend):
    """The parent's environment, importing the same singquandles under test."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(singquandles.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (pkg_root, inherited))),
            "SINGQUANDLES_BACKEND": backend}


def test_env_var_selects_backend():
    script = ("import singquandles.kernels as k; print(k.active_backend())")
    out = subprocess.run([sys.executable, "-c", script],
                         env=_child_env("numpy"), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "numpy"


def test_env_var_rejects_unknown():
    script = ("import singquandles.kernels as k\n"
              "try:\n    k.active_backend()\nexcept ValueError:\n    print('rejected')")
    out = subprocess.run([sys.executable, "-c", script],
                         env=_child_env("cuda"), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "rejected"


def test_results_identical_across_backends_full_pipeline(backend):
    # the backend fixture swaps kernels; values must not move at all
    q = corpus.load("X-Z8-a")
    from singquandles.polynomial import sqp
    assert sqp(q).render() == corpus.expected()["X-Z8-a"]["sqp"]
