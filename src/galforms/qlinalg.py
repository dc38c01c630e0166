"""Exact dense linear algebra over Q: the one elimination over the rationals.

rank, kernel, solve and mat_inv take matrices of rationals
(ints or fractions.Fraction) and share one fraction-free elimination:
each row is cleared to integers by the lcm of its denominators, and each
updated row is divided by the gcd of its entries (Bareiss, Math. Comp. 22,
1968; Cohen, GTM 138, 2.2).  mat_mul is the product of rational
matrices.  Matrices are lists of rows; no function mutates its arguments.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def mat_mul(a, b):
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]


def _integral(coords):
    """(integer numerators, common denominator) of rational coordinates."""
    den = 1
    for c in coords:
        d = c.denominator
        if den % d:
            den = den * d // gcd(den, d)
    if den == 1:
        return [c.numerator for c in coords], 1
    return [c.numerator * (den // c.denominator) for c in coords], den


def _scaled_matrix(m):
    """(N, D) with m = N / D: D the lcm of m's denominators, N integral."""
    width = len(m[0]) if m else 0
    ints, den = _integral([x for row in m for x in row])
    return [ints[i * width: (i + 1) * width] for i in range(len(m))], den


def _echelon(a):
    """Fraction-free row echelon form of the rational matrix a: (pivots,
    rows).  rows[k] is an integer row whose leading entry lies in column
    pivots[k]; zero rows are dropped.  A row is updated only by the pivots
    it has a nonzero entry under, r <- (p r - c pivot) / g with g the gcd
    of the result."""
    rows = []
    for row in a:
        ints, _den = _integral(row)
        if any(ints):
            rows.append(ints)
    pivots, done = [], []
    for col in range(len(a[0])):
        k = next((i for i, r in enumerate(rows) if r[col]), None)
        if k is None:
            continue
        pivot = rows.pop(k)
        p = pivot[col]
        kept = []
        for r in rows:
            c = r[col]
            if c:
                r = [p * x - c * y for x, y in zip(r, pivot)]
                g = gcd(*r)
                if not g:
                    continue
                if g > 1:
                    r = [x // g for x in r]
            kept.append(r)
        pivots.append(col)
        done.append(pivot)
        rows = kept
        if not rows:
            break
    return pivots, done


def _reduce(pivots, rows):
    """Back-substitution: clear each pivot column above its pivot, so row
    k over its pivot entry is row k of the reduced echelon form."""
    for k in reversed(range(len(rows))):
        col, pivot = pivots[k], rows[k]
        p = pivot[col]
        for j in range(k):
            c = rows[j][col]
            if c:
                r = [p * x - c * y for x, y in zip(rows[j], pivot)]
                g = gcd(*r)
                rows[j] = [x // g for x in r] if g > 1 else r
    return rows


def rank(a):
    if not a or not a[0]:
        return 0
    return len(_echelon(a)[0])


def solve(a, b):
    """Solve the square system a x = b; b may be a matrix (list of rows)
    or a vector.  Returns None if a is singular."""
    vector = b and not isinstance(b[0], list)
    rhs = [[x] for x in b] if vector else b
    n = len(a)
    pivots, rows = _echelon([list(ra) + list(rb) for ra, rb in zip(a, rhs)])
    if pivots[:n] != list(range(n)):
        return None
    sol = [[Fraction(x, row[k]) for x in row[n:]] for k, row in enumerate(_reduce(pivots, rows))]
    return [row[0] for row in sol] if vector else sol


def mat_inv(a):
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    if n == 0:
        return []
    return solve(a, [[int(i == j) for j in range(n)] for i in range(n)])


def kernel(a):
    """Basis of the right kernel {x : a x = 0}, as a list of vectors: the
    free-column basis of the reduced echelon form."""
    if not a:
        return []
    ncols = len(a[0])
    pivots, rows = _echelon(a)
    rows = _reduce(pivots, rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for col, row in zip(pivots, rows):
            vec[col] = Fraction(-row[fc], row[col])
        basis.append(vec)
    return basis
