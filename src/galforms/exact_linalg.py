"""Exact linear algebra over the integers.

Matrices with arbitrary-precision integer entries, Smith normal form,
integer kernels, lattice quotients (cokernels), coinvariants and fixed
sublattices for finite groups of lattice automorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd


class IntMatrix:
    """Immutable integer matrix, row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries):
        data = tuple(tuple(int(x) for x in row) for row in entries)
        if data:
            ncols = len(data[0])
            if any(len(row) != ncols for row in data):
                raise ValueError("ragged rows")
        else:
            ncols = 0
        self.rows = len(data)
        self.cols = ncols
        self._data = data

    @staticmethod
    def zero(rows, cols):
        return IntMatrix([[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n):
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(diag):
        n = len(diag)
        return IntMatrix([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self._data[i][j]

    def row(self, i):
        return self._data[i]

    def column(self, j):
        return tuple(self._data[i][j] for i in range(self.rows))

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self._data == other._data

    def __hash__(self):
        return hash(self._data)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self._data]})"

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch")
            # skip zeros on both sides: bar complexes and transforms are sparse
            sparse = [[(j, y) for j, y in enumerate(row) if y] for row in other._data]
            product = []
            for row in self._data:
                acc = [0] * other.cols
                for x, pairs in zip(row, sparse):
                    if x:
                        for j, y in pairs:
                            acc[j] += x * y
                product.append(acc)
            return IntMatrix(product)
        return NotImplemented

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch")
        return IntMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self._data, other._data)
            ]
        )

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch")
        return IntMatrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self._data, other._data)
            ]
        )

    def __neg__(self):
        return IntMatrix([[-a for a in row] for row in self._data])

    def transpose(self):
        return IntMatrix([self.column(j) for j in range(self.cols)])

    def apply(self, vector):
        """Matrix-vector product, vector as a sequence of ints."""
        if len(vector) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * v for a, v in zip(row, vector)) for row in self._data)

    def stack(self, other):
        """Vertical concatenation."""
        if self.cols != other.cols:
            raise ValueError("dimension mismatch")
        return IntMatrix(list(self._data) + list(other._data))

    def hcat(self, other):
        """Horizontal concatenation."""
        if self.rows != other.rows:
            raise ValueError("dimension mismatch")
        return IntMatrix([list(r1) + list(r2) for r1, r2 in zip(self._data, other._data)])

    def submatrix(self, row_indices, col_indices):
        return IntMatrix([[self._data[i][j] for j in col_indices] for i in row_indices])

    def determinant(self):
        """Exact determinant via fraction-valued Gaussian elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        m = [[Fraction(x) for x in row] for row in self._data]
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                return 0
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det *= m[col][col]
            inv = 1 / m[col][col]
            for r in range(col + 1, n):
                factor = m[r][col] * inv
                if factor:
                    m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
        assert det.denominator == 1
        return det.numerator


def int_rank(vectors):
    """Rank over Q of integer vectors, by fraction-free elimination; each
    reduced row is divided by the gcd of its entries."""
    rows = [list(v) for v in vectors if any(v)]
    rank = 0
    while rows:
        pivot = rows.pop()
        col = next(j for j, x in enumerate(pivot) if x)
        a = pivot[col]
        reduced = []
        for r in rows:
            c = r[col]
            if c:
                r = [a * x - c * y for x, y in zip(r, pivot)]
                g = gcd(*r)
                if not g:
                    continue
                if g > 1:
                    r = [x // g for x in r]
            reduced.append(r)
        rows = reduced
        rank += 1
    return rank


@dataclass(frozen=True)
class Lattice:
    """Free Z-module of a given rank with its distinguished basis."""

    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    invariant_factors: (d1, ..., dk) with d1 | d2 | ... | dk, each di >= 2.
    free_rank: number of Z summands.
    """

    invariant_factors: tuple
    free_rank: int = 0

    def __post_init__(self):
        factors = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        if any(d < 2 for d in factors):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        if self.free_rank < 0:
            raise ValueError("free_rank must be nonnegative")

    @property
    def torsion_order(self):
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def is_trivial(self):
        return not self.invariant_factors and self.free_rank == 0

    def __str__(self):
        parts = [f"Z/{d}" for d in self.invariant_factors] + ["Z"] * self.free_rank
        return " x ".join(parts) if parts else "0"


def smith_normal_form(matrix):
    """Smith normal form with transforms: returns (S, U, V) with U*M*V = S.

    S is diagonal with nonnegative entries d1 | d2 | ...; U and V are
    unimodular.  Pivot choice: smallest nonzero absolute value, ties broken
    by lowest row index, then lowest column index, so results are
    reproducible.
    """
    return _smith(matrix, u=True, v=True)[:3]


def _smith(matrix, u=False, v=False, u_inv=False, v_inv=False):
    """The elimination behind smith_normal_form: (S, U, V, U^-1, V^-1),
    updating only the transforms asked for and None for the others.  On
    the inverses, row_i -= q*row_j on U is col_j += q*col_i on U^-1, and
    col_i -= q*col_j on V is row_j += q*row_i on V^-1."""
    m, n = matrix.rows, matrix.cols
    s = [list(row) for row in matrix._data]
    # U and V^-1 are kept as lists of rows, V and U^-1 as lists of
    # columns, so that every update is a whole-list operation
    u_rows, v_cols, u_inv_cols, v_inv_rows = (
        [[int(i == j) for j in range(k)] for i in range(k)] if wanted else None
        for k, wanted in ((m, u), (n, v), (m, u_inv), (n, v_inv))
    )

    def axpy(rows, i, j, q):  # rows[i] += q * rows[j], skipping zeros of rows[j]
        if rows is not None:
            dst, src = rows[i], rows[j]
            for k in compress(range(len(src)), src):
                dst[k] += q * src[k]

    def row_op(i, j, q):  # row_i -= q * row_j
        axpy(s, i, j, -q)
        axpy(u_rows, i, j, -q)
        axpy(u_inv_cols, j, i, q)

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in s:
            if row[j]:
                row[i] -= q * row[j]
        axpy(v_cols, i, j, -q)
        axpy(v_inv_rows, j, i, q)

    def swap(i, j, *lists):
        for x in lists:
            if x is not None:
                x[i], x[j] = x[j], x[i]

    def swap_rows(i, j):
        swap(i, j, s, u_rows, u_inv_cols)

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        swap(i, j, v_cols, v_inv_rows)

    def negate_row(t):
        for x in (s, u_rows, u_inv_cols):
            if x is not None:
                x[t] = [-a for a in x[t]]

    def find_pivot(t):
        # scanning in tie-break order, an entry of absolute value 1 is final
        pivot, best = None, 0
        for i in range(t, m):
            row = s[i][t:]
            if not any(row):
                continue
            a = min(map(abs, filter(None, row)))
            if not best or a < best:
                j = next(j for j, x in enumerate(row) if x == a or x == -a)
                pivot, best = (i, t + j), a
                if a == 1:
                    break
        return pivot

    for t in range(min(m, n)):
        while True:
            pivot = find_pivot(t)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            done = True
            for i in range(t + 1, m):
                q = s[i][t] // s[t][t]
                if q:
                    row_op(i, t, q)
                if s[i][t]:
                    done = False
            for j in range(t + 1, n):
                q = s[t][j] // s[t][t]
                if q:
                    col_op(j, t, q)
                if s[t][j]:
                    done = False
            if done:
                break
        # pivot clean; move on (divisibility fixed below)

    # normalize signs
    for t in range(min(m, n)):
        if s[t][t] < 0:
            negate_row(t)

    # enforce divisibility chain d_t | d_{t+1}
    changed = True
    while changed:
        changed = False
        for t in range(min(m, n) - 1):
            a, b = s[t][t], s[t + 1][t + 1]
            if a and b % a != 0:
                # fold entry (t+1, t+1) into the pivot position and rediagonalize
                col_op(t, t + 1, -1)  # col_t += col_{t+1}
                # now s[t+1][t] = b; clear the 2x2 block by euclidean steps
                while s[t + 1][t] or s[t][t + 1]:
                    if s[t + 1][t]:
                        if s[t][t] == 0 or (
                            s[t + 1][t] and abs(s[t + 1][t]) < abs(s[t][t])
                        ):
                            swap_rows(t, t + 1)
                        if s[t + 1][t]:
                            q = s[t + 1][t] // s[t][t]
                            row_op(t + 1, t, q)
                    if s[t][t + 1]:
                        if s[t][t] == 0 or abs(s[t][t + 1]) < abs(s[t][t]):
                            swap_cols(t, t + 1)
                        if s[t][t + 1]:
                            q = s[t][t + 1] // s[t][t]
                            col_op(t + 1, t, q)
                if s[t][t] < 0:
                    negate_row(t)
                if s[t + 1][t + 1] < 0:
                    negate_row(t + 1)
                changed = True

    return (IntMatrix(s),) + tuple(
        None if x is None else IntMatrix(zip(*x) if as_columns else x)
        for x, as_columns in ((u_rows, False), (v_cols, True), (u_inv_cols, True), (v_inv_rows, False))
    )


def solve_integer(matrix, b):
    """An integer solution x of M x = b, or None if none exists."""
    s, u, v = smith_normal_form(matrix)
    ub = u.apply(b)
    y = [0] * matrix.cols
    r = min(s.rows, s.cols)
    for t in range(s.rows):
        if t < r and s[t, t] != 0:
            if ub[t] % s[t, t] != 0:
                return None
            y[t] = ub[t] // s[t, t]
        elif ub[t] != 0:
            return None
    return v.apply(y)


def kernel_basis(matrix):
    """Basis of the integer kernel {x : M x = 0}, as an IntMatrix whose
    columns are the basis vectors.  The kernel of an integer matrix is
    automatically saturated."""
    s, _u, v = smith_normal_form(matrix)
    r = sum(1 for t in range(min(s.rows, s.cols)) if s[t, t] != 0)
    cols = list(range(r, matrix.cols))
    return v.submatrix(range(matrix.cols), cols)


def cokernel(matrix):
    """Cokernel of M : Z^cols -> Z^rows as (group, projection).

    The projection matrix maps the standard basis of the target Z^rows to
    coordinates on the generators of the quotient (torsion generators
    first, then free generators), one row per generator.
    """
    s, u, _v = smith_normal_form(matrix)
    diag = [s[t, t] for t in range(min(s.rows, s.cols))]
    torsion_rows = [t for t, d in enumerate(diag) if d not in (0, 1)]
    free_rows = [t for t, d in enumerate(diag) if d == 0] + list(
        range(min(s.rows, s.cols), s.rows)
    )
    group = FiniteAbelianGroup(
        tuple(diag[t] for t in torsion_rows), len(free_rows)
    )
    projection = u.submatrix(torsion_rows + free_rows, range(s.rows if s.rows else 0))
    return group, projection


def _check_actions(lattice, action):
    n = lattice.rank
    for g in action:
        if g.rows != n or g.cols != n:
            raise ValueError("action matrix has wrong shape")
        if abs(g.determinant()) != 1:
            raise ValueError("action matrix is not a lattice automorphism")


def _moved_span_matrix(lattice, action):
    """Matrix whose columns generate span{ g*x - x }."""
    n = lattice.rank
    cols = []
    identity = IntMatrix.identity(n)
    for g in action:
        d = g - identity
        for j in range(n):
            cols.append(d.column(j))
    if not cols:
        return IntMatrix.zero(n, 0)
    return IntMatrix(cols).transpose()


def coinvariants(lattice, action):
    """Largest quotient of the lattice on which every action matrix acts
    trivially: L / span{ g*x - x }, as (group, projection)."""
    _check_actions(lattice, action)
    moved = _moved_span_matrix(lattice, action)
    return cokernel(moved)


def fixed_sublattice(lattice, action):
    """Fixed points of the action: kernel of the stacked (g - I), returned
    as (rank, embedding matrix whose columns are a basis)."""
    _check_actions(lattice, action)
    n = lattice.rank
    identity = IntMatrix.identity(n)
    blocks = [g - identity for g in action]
    if not blocks:
        return Lattice(n), IntMatrix.identity(n)
    stacked = blocks[0]
    for b in blocks[1:]:
        stacked = stacked.stack(b)
    basis = kernel_basis(stacked)
    return Lattice(basis.cols), basis
