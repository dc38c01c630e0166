"""Integer linear algebra: Smith normal form, kernels, cokernels,
coinvariants.  The SNF properties here are the oracle layer everything
else leans on."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galforms.exact_linalg import (
    FiniteAbelianGroup,
    IntMatrix,
    Lattice,
    _smith,
    coinvariants,
    cokernel,
    fixed_sublattice,
    int_rank,
    kernel_basis,
    smith_normal_form,
    solve_integer,
)
from galforms import qlinalg


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
    return m.determinant() in (1, -1)


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


def test_invariant_factor_validation():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((3, 2))
    assert str(FiniteAbelianGroup((2, 4), 1)) == "Z/2 x Z/4 x Z"
    assert FiniteAbelianGroup((2, 4)).torsion_order == 8


def test_coinvariants_and_fixed():
    lattice = Lattice(2)
    flip = IntMatrix([[0, 1], [1, 0]])
    group, proj = coinvariants(lattice, [flip])
    assert group.invariant_factors == ()
    assert group.free_rank == 1
    # the flip identifies e1 with e2 in the quotient
    assert proj.apply([1, 0]) == proj.apply([0, 1])
    fixed, embed = fixed_sublattice(lattice, [flip])
    assert fixed.rank == 1
    col = [embed[i, 0] for i in range(2)]
    assert flip.apply(col) == tuple(col)

    inv = IntMatrix([[-1]])
    group, _ = coinvariants(Lattice(1), [inv])
    assert group.invariant_factors == (2,)
    fixed, _ = fixed_sublattice(Lattice(1), [inv])
    assert fixed.rank == 0


def test_action_determinant_check():
    with pytest.raises(ValueError):
        coinvariants(Lattice(1), [IntMatrix([[2]])])


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
    lattice = Lattice(n)
    group, _ = coinvariants(lattice, [g])
    fixed, _ = fixed_sublattice(lattice, [g])
    moved_rank = n - group.free_rank
    assert fixed.rank + moved_rank == n
    assert fixed.rank == group.free_rank


def test_int_rank_matches_rational_rank():
    """Fraction-free rank against Gaussian elimination over Q, on random
    integer matrices built with a known rank."""
    rng = random.Random(5)
    for _ in range(60):
        rows, cols, r = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 4)
        left = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(rows)]
        right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(r)]
        m = [[sum(left[i][t] * right[t][j] for t in range(r)) for j in range(cols)]
             for i in range(rows)]
        want = qlinalg.rank([[Fraction(x) for x in row] for row in m])
        assert int_rank(m) == want <= r

