"""The fraction-free elimination against Gauss-Jordan over Fractions:
exact_linalg's integer routines on integer matrices, and qlinalg's
adapters, which clear denominators and call them, on rational ones."""

import random
from fractions import Fraction

import pytest

from galforms import exact_linalg, qlinalg
from oracles import (
    fraction_determinant,
    gauss_kernel,
    gauss_mat_inv,
    gauss_rank,
    gauss_solve,
)


def random_rational_matrix(rng, rows, cols, rank, denominators):
    """A rows x cols matrix of rank at most rank: a product of random
    factors, with entries given random denominators if asked.  Its entries
    are ints when there are no denominators."""
    left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rank)]
    m = [[sum(left[i][t] * right[t][j] for t in range(rank)) for j in range(cols)]
         for i in range(rows)]
    if denominators:
        m = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in m]
    return m


def shapes(rng):
    """Rectangular and square shapes, 1 x n and n x 1 among them, with
    ranks from 0 (the zero matrix) to full."""
    for _ in range(400):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        yield rows, cols, rng.randint(0, min(rows, cols) + 1)
    for n in range(1, 8):
        yield 1, n, 1
        yield n, 1, 1
        yield n, n, n


def as_fractions(m):
    return [[Fraction(x) for x in row] for row in m]


@pytest.mark.parametrize("denominators", [False, True])
def test_core_matches_gauss_jordan(denominators):
    rng = random.Random(11 + denominators)
    for rows, cols, r in shapes(rng):
        m = random_rational_matrix(rng, rows, cols, r, denominators)
        q = as_fractions(m)
        # exact_linalg's routines take integer rows: the cases without
        # denominators
        modules = (qlinalg,) if denominators else (qlinalg, exact_linalg)
        for module in modules:
            assert module.rank(m) == gauss_rank(q), (module, m)
            if any(x for row in m for x in row):
                assert module.kernel(m) == gauss_kernel(q), (module, m)
        if rows == cols:
            assert (fraction_determinant(q) == 0) == (qlinalg.mat_inv(m) is None), m
            assert qlinalg.mat_inv(m) == gauss_mat_inv(q), m
            b = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rows)]
            assert qlinalg.solve(m, b) == gauss_solve(q, b), m
            bm = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(rows)]
            for module in modules:
                assert module.solve(m, bm) == gauss_solve(q, as_fractions(bm)), (module, m)


def test_empty_matrices():
    for module in (qlinalg, exact_linalg):
        assert module.rank([]) == gauss_rank([]) == 0
        assert module.rank([[]]) == 0
        assert module.kernel([]) == gauss_kernel([]) == []
    assert qlinalg.mat_inv([]) == gauss_mat_inv([]) == []


def test_kernel_of_zero_matrix_is_the_standard_basis():
    for rows, cols in ((1, 1), (1, 4), (3, 2), (2, 5)):
        zero = [[Fraction(0)] * cols for _ in range(rows)]
        with pytest.raises(ValueError):
            gauss_kernel(zero)
        for module, m in ((qlinalg, zero), (exact_linalg, [[0] * cols for _ in range(rows)])):
            assert module.kernel(m) == [[Fraction(i == j) for i in range(cols)] for j in range(cols)]
            assert module.rank(m) == 0
    assert qlinalg.mat_inv([[0, 0], [0, 0]]) is None
    assert exact_linalg.solve([[0, 0], [0, 0]], [[1, 0], [0, 1]]) is None


def test_outputs_are_fractions():
    """Integer input still gives Fraction entries, never floats."""
    assert all(type(x) is Fraction for row in qlinalg.mat_inv([[2, 1], [1, 1]]) for x in row)
    assert all(type(x) is Fraction for row in qlinalg.kernel([[1, 2, 3]]) for x in row)


def _entries(x):
    if isinstance(x, list):
        for y in x:
            yield from _entries(y)
    else:
        yield x


def test_gauss_jordan_oracles_are_exact_on_integers():
    """Integer input gives Fractions, never floats, and qlinalg's answers;
    0.5 == Fraction(1, 2), so the types are checked apart from the values."""
    assert gauss_solve([[2, 0], [0, 4]], [1, 1]) == [Fraction(1, 2), Fraction(1, 4)]
    assert gauss_kernel([[2, 4, 6]]) == [[-2, 1, 0], [-3, 0, 1]]
    assert gauss_mat_inv([[0, 2], [3, 0]]) == [[0, Fraction(1, 3)], [Fraction(1, 2), 0]]
    rng = random.Random(13)
    for rows, cols, r in shapes(rng):
        m = random_rational_matrix(rng, rows, cols, r, False)
        got = [gauss_rank(m)]
        assert qlinalg.rank(m) == got[-1], m
        if any(x for row in m for x in row):
            got.append(gauss_kernel(m))
            assert qlinalg.kernel(m) == got[-1], m
        if rows == cols:
            got.append(gauss_mat_inv(m))
            assert qlinalg.mat_inv(m) == got[-1], m
            b = [rng.randint(-5, 5) for _ in range(rows)]
            got.append(gauss_solve(m, b))
            assert qlinalg.solve(m, b) == got[-1], m
            got.append(fraction_determinant(m))
            assert (got[-1] == 0) == (qlinalg.mat_inv(m) is None), m
        assert not any(isinstance(x, float) for x in _entries(got)), m
