"""Dense linear algebra over Q on matrices of rationals (ints or
fractions.Fraction), as lists of rows: adapters that clear the
denominators of the whole matrix and call exact_linalg's integer
routines, and exact_linalg's product.  No galforms module calls them; they stay for
the acceptance gate, the tests and the benchmark's tracer.
"""

from __future__ import annotations

from . import exact_linalg
from .fields import _scaled_matrix

mat_mul = exact_linalg.mat_mul


def rank(a):
    return exact_linalg.rank(_scaled_matrix(a)[0])


def kernel(a):
    """Basis of {x : a x = 0}: the free-column basis of the reduced echelon form."""
    return exact_linalg.kernel(_scaled_matrix(a)[0])


def solve(a, b):
    """Solve the square system a x = b; b may be a matrix (list of rows)
    or a vector.  Returns None if a is singular."""
    vector = b and not isinstance(b[0], list)
    n = len(a)
    rows = _scaled_matrix([list(ra) + ([rb] if vector else list(rb)) for ra, rb in zip(a, b)])[0]
    x = exact_linalg.solve([row[:n] for row in rows], [row[n:] for row in rows])
    return [row[0] for row in x] if vector and x is not None else x


def mat_inv(a):
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    return solve(a, [[int(i == j) for j in range(n)] for i in range(n)]) if n else []
