import random
import tracemalloc

import numpy as np
import pytest

from singquandles.errors import (
    MalformedTableError,
    ModulusMismatchError,
    NotInvertibleError,
    ParseError,
)
from singquandles.formulas import (
    MAX_EXPONENT,
    BivariatePolyFormula,
    affine_singquandle,
    formula_singquandle,
    parse_formula,
)


def test_parse_and_render():
    f = parse_formula("7*x + 6*y + 4*x*y", 8)
    assert f.render() == "7*x + 6*y + 4*x*y"
    assert f.evaluate(1, 1) == (7 + 6 + 4) % 8


def test_parse_exponents_and_constants():
    f = parse_formula("2 + x^2*y + 3*y^3", 5)
    assert f.evaluate(2, 1) == (2 + 4 + 3) % 5
    # graded order, x outranking y within a degree
    assert f.render() == "2 + x^2*y + 3*y^3"


def test_coefficients_reduce_mod_n():
    assert parse_formula("9*x", 8).render() == "x"
    assert parse_formula("8*x + y", 8).render() == "y"


def test_long_products_reduce_after_each_factor():
    nines = "9" * 4000
    text = "*".join([nines] * 400) + "*x^2*y - " + "*".join([nines] * 399) + "*y"
    n = 97
    want = BivariatePolyFormula.make(n, [(pow(int(nines), 400, n), 2, 1),
                                         (-pow(int(nines), 399, n), 0, 1)])
    assert parse_formula(text, n).terms == want.terms == ((20, 0, 1), (96, 2, 1))


def test_modulus_is_checked_before_any_factor():
    for text in ("x", "3*x", "", "x^9"):
        with pytest.raises(ValueError, match="modulus must be positive"):
            parse_formula(text, 0)


def test_negative_terms():
    f = parse_formula("x - y", 5)
    assert f.evaluate(0, 1) == 4


@pytest.mark.parametrize("bad", [
    "x^9", "x**2", "x y", "z", "2x", "", "x +", "^2",
    "x*", "*x", "x^", "x^2^2", "2 3", "x - - y", "+", "-",
    # a literal longer than int() converts; a product or exponent sum too long to print
    "9" * 5000 + "*x + 2*y", "y^" + "1" * 5000, "9" * 3000 + "*" + "9" * 3000 + "*x^3*x^2",
    "x^" + "9" * 4300 + "*x^" + "9" * 4300,
])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_formula(bad, 7)


def test_render_parses_back():
    rng = random.Random(21)
    for _ in range(500):
        n = rng.randint(1, 30)
        f = BivariatePolyFormula.make(n, [(rng.randint(-60, 60), rng.randint(0, MAX_EXPONENT),
                                           rng.randint(0, MAX_EXPONENT))
                                          for _ in range(rng.randint(0, 6))])
        assert parse_formula(f.render(), n) == f


def test_exponent_cap_is_enforced():
    parse_formula(f"x^{MAX_EXPONENT}", 7)
    with pytest.raises(ParseError):
        parse_formula(f"x^{MAX_EXPONENT + 1}", 7)


def test_table_matches_pointwise_eval():
    f = parse_formula("1 + 2*x^2 + 3*x*y^2", 6)
    table = f.table()
    for x in range(6):
        for y in range(6):
            assert table[x, y] == f.evaluate(x, y)


def test_modulus_mismatch():
    star = parse_formula("x", 4)
    r1 = parse_formula("y", 4)
    r2 = parse_formula("x", 5)
    with pytest.raises(ModulusMismatchError):
        formula_singquandle(star, r1, r2)


def test_affine_needs_invertible_t():
    with pytest.raises(NotInvertibleError):
        affine_singquandle(4, 2, 1)
    affine_singquandle(4, 3, 2)  # gcd(3,4)=1 is fine


def test_affine_tables_follow_the_formulas():
    n, t, s = 7, 3, 4
    q = affine_singquandle(n, t, s)
    for a in range(n):
        for b in range(n):
            assert q.star[a, b] == (t * a + (1 - t) * b) % n
            assert q.r1[a, b] == (s * a + (1 - s) * b) % n
            assert q.r2[a, b] == (t * (1 - s) * a + (1 - t + s * t) * b) % n


def test_affine_z4_r2_is_first_projection():
    q = affine_singquandle(4, 3, 2)
    assert np.array_equal(q.r2, np.arange(4).repeat(4).reshape(4, 4))


def test_formula_value_normalization():
    a = BivariatePolyFormula.make(9, [(3, 1, 0), (4, 1, 0)])
    b = BivariatePolyFormula.make(9, [(7, 1, 0)])
    assert a == b


def test_order_above_int16_range_is_rejected_before_the_tables_are_evaluated():
    tracemalloc.start()
    try:
        with pytest.raises(MalformedTableError, match="order 32769 is above 32768"):
            affine_singquandle(2**15 + 1, 2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
