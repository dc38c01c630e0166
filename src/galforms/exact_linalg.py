"""Exact linear algebra over the integers.

Matrices with arbitrary-precision integer entries, Smith normal form,
integer kernels, lattice quotients (cokernels), coinvariants and fixed
sublattices for finite groups of lattice automorphisms.  Over Q, on
integer rows: the rank, from the Smith diagonal, and kernels and
solutions, as Fractions, from one fraction-free elimination (Bareiss,
Math. Comp. 22, 1968; Cohen, GTM 138, 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul


class IntMatrix:
    """Immutable integer matrix, row-major.  The public constructor checks
    its entries; results computed here are built unchecked by _trusted."""

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

    @classmethod
    def _trusted(cls, data, cols):
        """The matrix of a tuple of int tuples, each of length cols."""
        matrix = object.__new__(cls)
        matrix._data, matrix.rows, matrix.cols = data, len(data), cols
        return matrix

    @staticmethod
    def identity(n):
        return _dense([{i: 1} for i in range(n)], n)

    def __getitem__(self, ij):
        i, j = ij
        return self._data[i][j]

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
            return _dense(_mul(_rows(self), _rows(other)), other.cols)
        return NotImplemented

    def __neg__(self):
        return IntMatrix._trusted(tuple(tuple(-a for a in row) for row in self._data), self.cols)

    def transpose(self):
        data = tuple(zip(*self._data)) if self.rows else ((),) * self.cols
        return IntMatrix._trusted(data, self.rows)

    def apply(self, vector):
        """Matrix-vector product, vector as a sequence of ints."""
        if len(vector) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(map(mul, row, vector)) for row in self._data)


def _rows(matrix):
    """The rows of an IntMatrix as sparse rows: dicts of column to nonzero
    value."""
    return [{j: x for j, x in enumerate(row) if x} for row in matrix._data]


def _dense(rows, ncols, columns=False):
    """The IntMatrix of sparse rows of length ncols, or with columns, of the
    sparse columns of a square matrix."""
    data = [[0] * ncols for _ in rows]
    for line, row in zip(data, rows):
        for j, x in row.items():
            line[j] = x
    return IntMatrix._trusted(tuple(zip(*data)) if columns else tuple(map(tuple, data)), ncols)


def _mul(a, b):
    """The product of two matrices given as sparse rows."""
    product = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        product.append({j: x for j, x in acc.items() if x})
    return product


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


def _smith(matrix, u=False, v=False, u_inv=False, v_inv=False, normalize=True):
    """The elimination behind smith_normal_form: (S, U, V, U^-1, V^-1),
    with None for the transforms not asked for."""
    m, n = matrix.rows, matrix.cols
    s, *transforms = _sparse_smith(_rows(matrix), n, u, v, u_inv, v_inv, normalize)
    return (_dense(s, n),) + tuple(
        None if x is None else _dense(x, k, columns)
        for x, k, columns in zip(transforms, (m, n, m, n), (False, True, True, False))
    )


def _sparse_smith(s, ncols, u=False, v=False, u_inv=False, v_inv=False, normalize=True):
    """Smith normal form of the matrix with sparse rows s, eliminated in
    place: (S, U, V, U^-1, V^-1), S, U and V^-1 as sparse rows, V and U^-1
    as sparse columns, None for the transforms not asked for.  Pivot:
    smallest nonzero absolute value, then lowest row, then lowest column;
    the scan stops at the first entry of absolute value 1.  On the
    inverses, row_i -= q*row_j on U is col_j += q*col_i on U^-1, and
    col_i -= q*col_j on V is row_j += q*row_i on V^-1.  With normalize
    false, S stops at a diagonal: its nonzero entries come first, of
    either sign and in no divisibility chain, and the rows of U and V^-1
    and the columns of V and U^-1 from the rank on are the normalized
    ones.

    Rows are read lazily (Gilbert & Peierls, SIAM J. Sci. Stat. Comput. 9,
    1988).  While every pivot so far is 1 or -1, a row that has not been
    a pivot is zero on the pivoted keys and equals its input row times V
    on the others.  So a row in unread keeps its input until the pivot
    scan first reads it; it is then its input times v_rows, V by rows on
    the keys not yet pivoted, keyed like s, and from then on row_op
    updates it.  A scan that meets no entry 1 or -1 reads every live row,
    which ends the lazy phase; with U or U^-1 asked for, every row is
    read from the start."""
    m, n = len(s), ncols
    # the rows keep the input's column keys: column j is key at[j], and
    # key c is column pos[c], so a column swap touches no row
    at, pos = list(range(n)), list(range(n))
    holding = [set() for _ in range(n)]  # by key: the read rows that may hold it
    unread = set() if u or u_inv else {i for i in range(m) if s[i]}
    for i, row in enumerate(s):
        if i not in unread:
            for k in row:
                holding[k].add(i)
    u_rows, v_cols, u_inv_cols, v_inv_rows, v_rows = (
        [{i: 1} for i in range(k)] if wanted else None
        for k, wanted in ((m, u), (n, v or unread), (m, u_inv), (n, v_inv), (n, unread))
    )

    def axpy(lines, i, j, q):  # lines[i] += q * lines[j]
        dst = lines[i]
        for k, x in lines[j].items():
            y = dst.get(k, 0) + q * x
            if y:
                dst[k] = y
            else:
                del dst[k]

    def swap(i, j, *lists):
        for x in lists:
            if x is not None:
                x[i], x[j] = x[j], x[i]

    def swap_cols(i, j):
        swap(i, j, at, v_cols, v_inv_rows)
        pos[at[i]], pos[at[j]] = i, j

    def row_op(i, j, q, items):  # row_i -= q * row_j, whose entries are items
        dst = s[i]
        for k, x in items:
            if k in dst:
                y = dst[k] - q * x
                if y:
                    dst[k] = y
                else:
                    del dst[k]
            else:
                dst[k] = -q * x
                holding[k].add(i)
        if u_rows:
            axpy(u_rows, i, j, -q)
        if u_inv_cols:
            axpy(u_inv_cols, j, i, q)

    def col_op(i, j, q, rows):  # col_i -= q * col_j, whose nonzero entries lie in rows
        ci, cj = at[i], at[j]
        for r in rows:
            row = s[r]
            if cj in row:
                y = row.get(ci, 0) - q * row[cj]
                if y:
                    row[ci] = y
                    holding[ci].add(r)
                else:
                    del row[ci]
        if unread:
            for r in v_cols[j]:
                row = v_rows[r]
                y = row.get(ci, 0) - q * row[cj]
                if y:
                    row[ci] = y
                else:
                    del row[ci]
        if v_cols:
            axpy(v_cols, i, j, -q)
        if v_inv_rows:
            axpy(v_inv_rows, j, i, q)

    def negate_row(t):
        for x in (s, u_rows, u_inv_cols):
            if x is not None:
                x[t] = {k: -y for k, y in x[t].items()}

    def entry(i, j):
        return s[i].get(at[j], 0)

    # Rows from the pivot row t on are zero left of column t, so the scan
    # reads whole rows.  live holds, in order, the rows from t on that may
    # be nonzero; zero rows stay zero, so the scan drops them.
    live = [i for i in range(m) if s[i]]
    for t in range(min(m, n)):
        while True:
            pivot, best, kept, rest = None, 0, [], []
            for k, i in enumerate(live):
                if i in unread:
                    unread.remove(i)
                    s[i] = _mul([s[i]], v_rows)[0]
                    for c in s[i]:
                        holding[c].add(i)
                if s[i]:
                    kept.append(i)
                    a = min(map(abs, s[i].values()))
                    if not best or a < best:
                        pivot, best = i, a
                        if a == 1:
                            rest = live[k + 1:]
                            break
            live = kept + rest
            if pivot is None:
                break
            pj = min(pos[c] for c, x in s[pivot].items() if x == best or x == -best)
            if pivot != t:
                swap(t, pivot, s, u_rows, u_inv_cols)
                for i in (t, pivot):
                    for k in s[i]:
                        holding[k].add(i)
                if live[0] != t:
                    live.insert(0, t)
            if pj != t:
                swap_cols(t, pj)
            c = at[t]
            p = s[t][c]
            column, items = [i for i in holding[c] if c in s[i]], list(s[t].items())
            for i in column:
                q = s[i][c] // p
                if q and i != t:
                    row_op(i, t, q, items)
            column = [i for i in column if c in s[i]]  # row t and the remainders
            holding[c] = set(column)
            for key, x in list(s[t].items()):
                if key != c and x // p:
                    col_op(pos[key], t, x // p, column)
            if len(column) == 1 and len(s[t]) == 1:
                break
        if pivot is None:
            break
        del live[0]
        if unread:
            for r in v_cols[t]:
                del v_rows[r][at[t]]

    # normalize signs; r = 0 skips them and the chain
    r = min(m, n) if normalize else 0
    for t in range(r):
        if entry(t, t) < 0:
            negate_row(t)

    # enforce divisibility chain d_t | d_{t+1}
    changed = True
    while changed:
        changed = False
        for t in range(r - 1):
            a, b = entry(t, t), entry(t + 1, t + 1)
            if a and b % a != 0:
                # fold entry (t+1, t+1) into the pivot position and rediagonalize
                col_op(t, t + 1, -1, (t, t + 1))  # col_t += col_{t+1}
                # now s[t+1][t] = b; clear the 2x2 block by euclidean steps
                while entry(t + 1, t) or entry(t, t + 1):
                    if entry(t + 1, t):
                        if entry(t, t) == 0 or abs(entry(t + 1, t)) < abs(entry(t, t)):
                            swap(t, t + 1, s, u_rows, u_inv_cols)
                        if entry(t + 1, t):
                            row_op(t + 1, t, entry(t + 1, t) // entry(t, t), list(s[t].items()))
                    if entry(t, t + 1):
                        if entry(t, t) == 0 or abs(entry(t, t + 1)) < abs(entry(t, t)):
                            swap_cols(t, t + 1)
                        if entry(t, t + 1):
                            col_op(t + 1, t, entry(t, t + 1) // entry(t, t), (t, t + 1))
                if entry(t, t) < 0:
                    negate_row(t)
                if entry(t + 1, t + 1) < 0:
                    negate_row(t + 1)
                changed = True

    # rows never read lie below n pivots, all 1 or -1, so they are zero
    s = [{} if i in unread else {pos[c]: x for c, x in row.items()} for i, row in enumerate(s)]
    return s, u_rows, v_cols if v else None, u_inv_cols, v_inv_rows


def mat_mul(a, b):
    """The product of two matrices given as lists of rows."""
    columns = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in columns] for row in a]


def rank(rows):
    """The rank of a matrix given as integer rows: the number of nonzero
    entries of its Smith diagonal."""
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    return sum(map(bool, _sparse_smith(sparse, len(rows[0]) if rows else 0, normalize=False)[0]))


def _eliminate(r, pivot, col):
    """p r - c pivot over its gcd, p and c the entries of pivot and r in
    column col; None if it is zero."""
    p, c = pivot[col], r[col]
    r = [p * x - c * y for x, y in zip(r, pivot)]
    g = gcd(*r)
    return None if not g else [x // g for x in r] if g > 1 else r


def _echelon(a):
    """Fraction-free reduced row echelon form of the matrix with integer
    rows a: (pivots, rows), zero rows dropped.  rows[k] is an integer row
    whose leading entry lies in column pivots[k], and row k over that
    entry is row k of the reduced echelon form.  Each pivot is eliminated
    from the rows below it with a nonzero entry in its column, then, by
    back-substitution, from the pivot rows above it."""
    rows = [row for row in a if any(row)]
    pivots, done = [], []
    for col in range(len(a[0])):
        k = next((i for i, r in enumerate(rows) if r[col]), None)
        if k is None:
            continue
        pivot = rows.pop(k)
        rows = [r for r in (_eliminate(r, pivot, col) if r[col] else r for r in rows) if r is not None]
        pivots.append(col)
        done.append(pivot)
        if not rows:
            break
    for k in reversed(range(len(done))):
        for j in range(k):
            if done[j][pivots[k]]:
                done[j] = _eliminate(done[j], done[k], pivots[k])
    return pivots, done


def kernel(rows):
    """Basis of the right kernel {x : A x = 0} over Q of the matrix with
    integer rows A, as Fraction vectors: the free-column basis of the
    reduced echelon form, which does not depend on how A was scaled."""
    if not rows:
        return []
    pivots, reduced = _echelon(rows)
    basis = []
    for fc in (c for c in range(len(rows[0])) if c not in pivots):
        vec = [Fraction(int(c == fc)) for c in range(len(rows[0]))]
        for col, row in zip(pivots, reduced):
            vec[col] = Fraction(-row[fc], row[col])
        basis.append(vec)
    return basis


def solve(a, b):
    """The solution X over Q of the square system A X = B, for integer
    rows A and B, as Fraction rows; None if A is singular."""
    n = len(a)
    pivots, rows = _echelon([list(ra) + list(rb) for ra, rb in zip(a, b)])
    if pivots[:n] != list(range(n)):
        return None
    return [[Fraction(x, row[k]) for x in row[n:]] for k, row in enumerate(rows)]


def solve_integer(matrix, b):
    """An integer solution x of M x = b, or None if none exists.  It
    divides (U b)_t by s_t, so a diagonal S does."""
    s, u, v = _smith(matrix, u=True, v=True, normalize=False)[:3]
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
    s, _u, v = _smith(matrix, v=True)[:3]
    r = sum(1 for t in range(min(s.rows, s.cols)) if s[t, t] != 0)
    return IntMatrix._trusted(tuple(row[r:] for row in v._data), matrix.cols - r)


def cokernel(matrix):
    """Cokernel of M : Z^cols -> Z^rows as (group, projection).

    The projection matrix maps the standard basis of the target Z^rows to
    coordinates on the generators of the quotient (torsion generators
    first, then free generators), one row per generator.
    """
    s, u = _smith(matrix, u=True)[:2]
    group, generators = _quotient(s)
    return group, IntMatrix._trusted(tuple(u._data[i] for i in generators), s.rows)


def _quotient(s):
    """The cokernel of a matrix with Smith form s, and the indices of the
    rows of U that project onto its generators, torsion first."""
    diag = [s[t, t] for t in range(min(s.rows, s.cols))]
    torsion_rows = [t for t, d in enumerate(diag) if d not in (0, 1)]
    free_rows = [t for t, d in enumerate(diag) if d == 0] + list(range(len(diag), s.rows))
    return FiniteAbelianGroup(tuple(diag[t] for t in torsion_rows), len(free_rows)), torsion_rows + free_rows


def _check_actions(rank, action):
    """Each action matrix is rank x rank and unimodular: every entry of
    its Smith diagonal is 1 or -1."""
    for g in action:
        if g.rows != rank or g.cols != rank:
            raise ValueError("action matrix has wrong shape")
        diagonal = _sparse_smith(_rows(g), rank, normalize=False)[0]
        if any(abs(row.get(t, 0)) != 1 for t, row in enumerate(diagonal)):
            raise ValueError("action matrix is not a lattice automorphism")


def coinvariants(rank, action):
    """Largest quotient of Z^rank on which every action matrix acts
    trivially: Z^rank / span{ g*x - x }, the span of the columns of the
    g - I side by side, as (group, projection)."""
    _check_actions(rank, action)
    return _coinvariants(rank, action)


def _coinvariants(rank, action):
    """coinvariants of matrices known to be lattice automorphisms."""
    moved = tuple(
        tuple(x - (i == j) for g in action for j, x in enumerate(g._data[i])) for i in range(rank)
    )
    return cokernel(IntMatrix._trusted(moved, rank * len(action)))


def fixed_sublattice(rank, action):
    """Fixed points of the action on Z^rank: kernel of the stacked
    (g - I), as (rank, embedding matrix whose columns are a basis)."""
    _check_actions(rank, action)
    stacked = tuple(
        tuple(x - (i == j) for j, x in enumerate(row)) for g in action for i, row in enumerate(g._data)
    )
    basis = kernel_basis(IntMatrix._trusted(stacked, rank))
    return basis.cols, basis
