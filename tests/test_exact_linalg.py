"""Integer linear algebra: Smith normal form, kernels, cokernels,
coinvariants.  The SNF properties here are the oracle layer everything
else leans on."""

import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galforms.exact_linalg import (
    FiniteAbelianGroup,
    IntMatrix,
    _smith,
    coinvariants,
    cokernel,
    fixed_sublattice,
    kernel_basis,
    smith_normal_form,
    solve_integer,
)
from galforms import qlinalg
from galforms.cli import parse_group
from galforms.cohomology import GModule, _bar_rows
from galforms.exact_linalg import _dense
from galforms.groups import cyclic, direct_product
from oracles import dense_smith, fraction_determinant, gauss_rank


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-20, 20), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
).map(IntMatrix)


def is_unimodular(m):
    return fraction_determinant(m._data) in (1, -1)


def submatrix(m, rows, cols):
    """The entries of m in the given rows and columns."""
    return IntMatrix._trusted(tuple(tuple(m[i, j] for j in cols) for i in rows), len(cols))


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_snf_properties(m):
    s, u, v = smith_normal_form(m)
    assert (u * m) * v == s
    assert is_unimodular(u) and is_unimodular(v)
    # the inverse transforms, tracked with U and V and without them
    assert _smith(m, u=True, v=True) == (s, u, v, None, None)
    s2, u2, v2, u_inv, v_inv = _smith(m, u=True, v=True, u_inv=True, v_inv=True)
    assert (s2, u2, v2) == (s, u, v)
    assert u * u_inv == IntMatrix.identity(m.rows)
    assert v * v_inv == IntMatrix.identity(m.cols)
    assert _smith(m, u_inv=True, v_inv=True) == (s, None, None, u_inv, v_inv)
    diag = [s[t, t] for t in range(min(s.rows, s.cols))]
    # stopped at a diagonal, the transforms agree from the rank on
    r, rows, cols = sum(1 for d in diag if d), range(m.rows), range(m.cols)
    _s, u3, v3, u_inv3, v_inv3 = _smith(m, True, True, True, True, normalize=False)
    assert submatrix(u3, range(r, m.rows), rows) == submatrix(u, range(r, m.rows), rows)
    assert submatrix(u_inv3, rows, range(r, m.rows)) == submatrix(u_inv, rows, range(r, m.rows))
    assert submatrix(v3, cols, range(r, m.cols)) == submatrix(v, cols, range(r, m.cols))
    assert submatrix(v_inv3, range(r, m.cols), cols) == submatrix(v_inv, range(r, m.cols), cols)
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j:
                assert s[i, j] == 0
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zeros come after all nonzero entries
    seen_zero = False
    for d in diag:
        if d == 0:
            seen_zero = True
        else:
            assert not seen_zero


TRANSFORM_FLAGS = list(product([False, True], repeat=4))


@pytest.mark.parametrize("seed", range(3))
def test_sparse_smith_takes_the_dense_pivots(seed):
    """S, U, V, U^-1 and V^-1 equal the dense elimination's, for every set
    of requested transforms, normalized or stopped at a diagonal, on
    sparse, dense, rectangular and zero-row matrices."""
    rng = random.Random(seed)
    for _ in range(150):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        density = rng.choice([0.1, 0.3, 0.6, 1.0])
        bound = rng.choice([1, 2, 5, 30])
        entries = [[rng.randint(-bound, bound) if rng.random() < density else 0
                    for _ in range(cols)] for _ in range(rows)]
        if rows and rng.random() < 0.3:
            entries[rng.randrange(rows)] = [0] * cols
        m = IntMatrix(entries)
        for flags, normalize in product(TRANSFORM_FLAGS, (True, False)):
            assert _smith(m, *flags, normalize) == dense_smith(m, *flags, normalize), (entries, flags)


@pytest.mark.parametrize("gamma, moduli", [
    (cyclic(3), (2, 4)), (direct_product(cyclic(2), cyclic(2)), (2,)), (cyclic(4), (6,)),
])
def test_sparse_smith_on_bar_differentials(gamma, moduli):
    """The same on d1 and d2 of the bar complex, the matrices h2_bar
    eliminates."""
    mod = GModule.trivial(gamma, moduli)
    n, k = gamma.order, len(moduli)
    for p, cols in ((1, n * k), (2, n * n * k)):
        m = _dense(_bar_rows(mod, p), cols)
        for flags in [(False, True, False, True, True), (True, True, True, True, True),
                      (False, True, False, True, False), (True, True, True, True, False)]:
            assert _smith(m, *flags) == dense_smith(m, *flags)


LAZY_FLAGS = [(False, False, False, False, True), (False, True, False, True, True),
              (False, True, False, True, False), (True, True, False, False, True)]


@pytest.mark.parametrize("spec, sign", [
    (spec, False) for spec in ("C2", "C3", "C4", "C5", "C6", "S3", "C7", "C8", "C2xC2",
                               "C4xC2", "C2xC4", "C2xC2xC2")
] + [("C2", True), ("C4", True), ("C6", True)])
def test_lazy_rows_take_the_dense_pivots_on_workload_bar_differentials(spec, sign):
    """Without U and U^-1 the elimination computes a row only when its
    pivot scan first reads it.  On d1 and d2 of every h2 workload group of
    order at most 8, with one coordinate, trivial or (for cyclic groups
    of even order) by the sign character, it still equals the dense
    elimination: with no transform, V and V^-1, V and V^-1 stopped at a
    diagonal, and U and V, which read every row from the start."""
    gamma = parse_group(spec)
    mod = GModule(gamma, (3,), [IntMatrix([[(-1) ** g if sign else 1]]) for g in range(gamma.order)])
    n = gamma.order
    for p, cols in ((1, n), (2, n * n)):
        m = _dense(_bar_rows(mod, p), cols)
        for flags in LAZY_FLAGS:
            assert _smith(m, *flags) == dense_smith(m, *flags), (p, flags)


def unimodular(rng, n, steps):
    """A random unimodular n x n matrix, n >= 2: the identity under row
    swaps and row additions with small multipliers."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            q = rng.choice([-2, -1, 1, 2])
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix(rows)


@pytest.mark.parametrize("seed", range(3))
def test_lazy_rows_filled_in_at_the_first_pivot_not_one(seed):
    """On U diag(1, ..., 1, d, ...) V, U and V unimodular, the pivots run
    1 or -1 for a while and then not, so the elimination reads some rows
    lazily and fills in the rest at the first other pivot.  It still
    equals the dense elimination."""
    rng = random.Random(seed)
    partway = 0
    for _ in range(40):
        rows, cols = rng.randint(2, 12), rng.randint(2, 12)
        units = rng.randint(1, min(rows, cols))
        diag = [1] * units + [rng.choice([0, 2, 3, 4, 6, 12]) for _ in range(min(rows, cols) - units)]
        d = IntMatrix([[diag[i] if i == j else 0 for j in range(cols)] for i in range(rows)])
        m = unimodular(rng, rows, 3 * rows) * d * unimodular(rng, cols, 3 * cols)
        # a first pivot 1 or -1, and an invariant factor above 1, which
        # some later pivot must carry
        s = _smith(m)[0]
        partway += any(abs(x) == 1 for row in m._data for x in row) and any(
            s[t, t] > 1 for t in range(min(rows, cols)))
        for flags in LAZY_FLAGS:
            assert _smith(m, *flags) == dense_smith(m, *flags), (m, flags)
    assert partway > 10


@pytest.mark.parametrize("seed", range(3))
def test_diagonal_only_smith_keeps_the_kernel_of_a_full_row_rank_block(seed):
    """On [A | D], D a positive diagonal, of full row rank m, the
    elimination stopped at a diagonal gives the normalized form's columns
    m.. of V and rows m.. of V^-1, the part h2_bar reads: a kernel basis
    of [A | D] and the coordinates in it.  Coprime entries of D leave
    diagonals off the chain, which the normalization must repair."""
    rng = random.Random(seed)
    repaired = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(0, 7)
        a = [[rng.choice([0, 0, 1, -1, rng.randint(-6, 6)]) for _ in range(cols)] for _ in range(rows)]
        d = [rng.choice([1, 2, 3, 4, 5, 6, 8, 9]) for _ in range(rows)]
        m = IntMatrix([row + [d[i] if j == i else 0 for j in range(rows)] for i, row in enumerate(a)])
        _s, _u, v, _u_inv, v_inv = _smith(m, v=True, v_inv=True)
        s_diag, _u, v_diag, _u_inv, v_inv_diag = _smith(m, v=True, v_inv=True, normalize=False)
        n = m.cols
        assert all(s_diag[t, t] for t in range(rows))
        assert submatrix(v_diag, range(n), range(rows, n)) == submatrix(v, range(n), range(rows, n))
        assert submatrix(v_inv_diag, range(rows, n), range(n)) == submatrix(v_inv, range(rows, n), range(n))
        diag = [abs(s_diag[t, t]) for t in range(rows)]
        repaired += any(b % a for a, b in zip(diag, diag[1:]))
    assert repaired > 5


@settings(max_examples=30, deadline=None)
@given(matrices, matrices)
def test_internal_results_match_checked_matrices(a, b):
    """Results built without checks equal the checked matrices of the same
    entries."""
    rows = [list(r) for r in a._data]
    assert a.transpose() == IntMatrix([list(c) for c in zip(*rows)])
    assert (a.transpose().rows, a.transpose().cols) == (a.cols, a.rows)
    if a.cols == b.rows:
        product_ = a * b
        assert product_ == IntMatrix([[sum(x * y for x, y in zip(r, c)) for c in zip(*b._data)]
                                      for r in a._data])
        assert (product_.rows, product_.cols) == (a.rows, b.cols)
    n = a.rows
    assert IntMatrix.identity(n) == IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])
    assert -a == IntMatrix([[-x for x in r] for r in rows])


def test_snf_known_values():
    s, _, _ = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    assert [s[0, 0], s[1, 1]] == [2, 4]
    s, _, _ = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert [s[0, 0], s[1, 1]] == [1, 6]
    # Cartan matrix of A2
    s, _, _ = smith_normal_form(IntMatrix([[2, -1], [-1, 2]]))
    assert [s[0, 0], s[1, 1]] == [1, 3]


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_kernel_is_saturated_and_correct(m):
    k = kernel_basis(m)
    zero = (0,) * m.rows
    for j in range(k.cols):
        col = [k[i, j] for i in range(k.rows)]
        assert m.apply(col) == zero
    # columns are independent over Q: kernel dimension check via rank
    s, _, _ = smith_normal_form(m)
    rank = sum(1 for t in range(min(s.rows, s.cols)) if s[t, t])
    assert k.cols == m.cols - rank


def test_cokernel_examples():
    group, proj = cokernel(IntMatrix([[2, 0], [0, 3]]))
    assert group.invariant_factors == (6,)
    assert group.free_rank == 0
    group, _ = cokernel(IntMatrix([[2, 0], [0, 0]]))
    assert group.invariant_factors == (2,)
    assert group.free_rank == 1
    group, _ = cokernel(IntMatrix([[1, 0], [0, 1]]))
    assert group.is_trivial()


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_cokernel_projection_kills_image(m):
    group, proj = cokernel(m)
    k = len(group.invariant_factors)
    if proj.rows == 0:
        return
    for j in range(m.cols):
        col = [m[i, j] for i in range(m.rows)]
        image = proj.apply(col)
        for t, d in enumerate(group.invariant_factors):
            assert image[t] % d == 0
        for t in range(k, k + group.free_rank):
            assert image[t] == 0


@settings(max_examples=60, deadline=None)
@given(matrices)
@example(_dense([{}] * 3, 0))
@example(_dense([], 3))
def test_cokernel_and_kernel_equal_their_reading_of_the_full_form(m):
    """cokernel asks the elimination for U alone and kernel_basis for V
    alone; each returns what it read off smith_normal_form's U and V."""
    s, u, v = smith_normal_form(m)
    diag = [s[t, t] for t in range(min(m.rows, m.cols))]
    torsion = [t for t, d in enumerate(diag) if d > 1]
    free = [t for t, d in enumerate(diag) if d == 0] + list(range(len(diag), m.rows))
    group = FiniteAbelianGroup(tuple(diag[t] for t in torsion), len(free))
    assert cokernel(m) == (group, submatrix(u, torsion + free, range(m.rows)))
    rank = sum(1 for d in diag if d)
    assert kernel_basis(m) == submatrix(v, range(m.cols), range(rank, m.cols))


def test_solve_integer():
    m = IntMatrix([[2, 0], [0, 3]])
    assert solve_integer(m, [4, 9]) == (2, 3)
    assert solve_integer(m, [1, 0]) is None
    rng = random.Random(3)
    for _ in range(25):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 5)
        x = [rng.randint(-4, 4) for _ in range(a.cols)]
        b = a.apply(x)
        sol = solve_integer(a, b)
        assert sol is not None
        assert a.apply(sol) == tuple(b)
    for _ in range(50):
        # b need not be in the image: solvable iff the normalized form says so
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 6)
        b = [rng.randint(-9, 9) for _ in range(a.rows)]
        s, u, _v = smith_normal_form(a)
        ub = u.apply(b)
        solvable = all(ub[t] % s[t, t] == 0 if t < s.cols and s[t, t] else ub[t] == 0
                       for t in range(a.rows))
        sol = solve_integer(a, b)
        assert (sol is not None) == solvable
        assert sol is None or a.apply(sol) == tuple(b)


def test_invariant_factor_validation():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((3, 2))
    assert str(FiniteAbelianGroup((2, 4), 1)) == "Z/2 x Z/4 x Z"
    assert FiniteAbelianGroup((2, 4)).torsion_order == 8


def test_coinvariants_and_fixed():
    flip = IntMatrix([[0, 1], [1, 0]])
    group, proj = coinvariants(2, [flip])
    assert group.invariant_factors == ()
    assert group.free_rank == 1
    # the flip identifies e1 with e2 in the quotient
    assert proj.apply([1, 0]) == proj.apply([0, 1])
    fixed, embed = fixed_sublattice(2, [flip])
    assert fixed == 1
    col = [embed[i, 0] for i in range(2)]
    assert flip.apply(col) == tuple(col)

    inv = IntMatrix([[-1]])
    group, _ = coinvariants(1, [inv])
    assert group.invariant_factors == (2,)
    fixed, _ = fixed_sublattice(1, [inv])
    assert fixed == 0


def test_coinvariants_and_fixed_take_the_blocks_of_g_minus_i():
    """coinvariants is the cokernel of the g - I side by side, and
    fixed_sublattice the kernel of the g - I stacked, in the order of the
    action matrices, projection and basis included."""
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 4)
        action = []
        for _ in range(rng.randint(1, 3)):
            perm = rng.sample(range(n), n)
            action.append(IntMatrix([[rng.choice([1, -1]) if perm[i] == j else 0 for j in range(n)]
                                     for i in range(n)]))
        blocks = [[[g[i, j] - (i == j) for j in range(n)] for i in range(n)] for g in action]
        side_by_side = IntMatrix([sum((block[i] for block in blocks), []) for i in range(n)])
        stacked = IntMatrix([row for block in blocks for row in block])
        assert coinvariants(n, action) == cokernel(side_by_side)
        basis = kernel_basis(stacked)
        assert fixed_sublattice(n, action) == (basis.cols, basis)


def test_action_determinant_check():
    """An action matrix is square of the lattice's rank with determinant
    1 or -1, as the Smith diagonal decides; the rational determinant is
    the oracle on random matrices."""
    for g in ([[0, 1], [1, 0]], [[1, 1], [0, -1]], [[2, 1], [1, 1]], [[-1, 0], [0, 1]]):
        coinvariants(2, [IntMatrix(g)])
        fixed_sublattice(2, [IntMatrix(g)])
    for g in ([[2]], [[-2]], [[0]], [[1, 2], [2, 4]], [[2, 0], [0, 1]], [[1, 1], [1, -1]], [[0, 0], [0, 0]]):
        for build in (coinvariants, fixed_sublattice):
            with pytest.raises(ValueError, match="not a lattice automorphism"):
                build(len(g), [IntMatrix.identity(len(g)), IntMatrix(g)])
    for rank, g in ((2, [[1, 0]]), (1, [[1, 0]]), (2, [[1], [0]]), (2, [[1]])):
        for build in (coinvariants, fixed_sublattice):
            with pytest.raises(ValueError, match="wrong shape"):
                build(rank, [IntMatrix(g)])
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(1, 4)
        g = random_matrix(rng, n, n, rng.choice([1, 2, 3]))
        if is_unimodular(g):
            coinvariants(n, [g])
        else:
            with pytest.raises(ValueError, match="not a lattice automorphism"):
                coinvariants(n, [g])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.data())
def test_rank_additivity_random_involutions(n, data):
    """fixed rank + moved-span rank = total rank for actions generated by
    a signed permutation."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice([1, -1]) for _ in range(n)]
    g = IntMatrix(
        [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    )
    group, _ = coinvariants(n, [g])
    fixed, _ = fixed_sublattice(n, [g])
    moved_rank = n - group.free_rank
    assert fixed + moved_rank == n
    assert fixed == group.free_rank


def test_int_rank_matches_rational_rank():
    """qlinalg's fraction-free rank of integer matrices against Gaussian
    elimination over Q, on random integer matrices built with a known
    rank."""
    rng = random.Random(5)
    for _ in range(60):
        rows, cols, r = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 4)
        left = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(rows)]
        right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(r)]
        m = [[sum(left[i][t] * right[t][j] for t in range(r)) for j in range(cols)]
             for i in range(rows)]
        want = gauss_rank(m)
        assert qlinalg.rank(m) == want <= r

