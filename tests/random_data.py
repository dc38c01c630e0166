"""Data the tests build: the identity datum and its transports and
conjugates, random valid descent data, the regular module of a crossed
product, the quaternion algebra that presents a component of an
inner-form invariant, root data on another lattice basis, and random
Gamma-modules with a non-trivial action."""

from fractions import Fraction
from itertools import permutations

from galforms import qlinalg
from galforms.cohomology import GModule, GaloisAction, kx_coboundary_of, quadratic_cocycle, trivial_kx_cocycle
from galforms.crossed import CrossedProductAlgebra
from galforms.descent import AModule, SemilinearDatum, _times_blocks, kmat, validate_datum
from galforms.exact_linalg import IntMatrix
from galforms.fields import _scaled_matrix, k_entries, k_matrix, quadratic_field
from galforms.groups import cyclic, direct_product, homomorphisms, symmetric
from galforms.root_datum import BasedRootDatum, RootDatum
from oracles import gauss_mat_inv


def identity_datum(action, dim):
    """The untwisted datum: a_V = coordinate twist alone."""
    eye = kmat(action.field, [[int(i == j) for j in range(dim)] for i in range(dim)])
    return SemilinearDatum(
        action,
        trivial_kx_cocycle(action),
        dim,
        tuple(eye for _ in action.group.elements()),
    )


def transport_datum(datum, primitive):
    """Replace a_V by b(a)*a_V; the result is a datum over the
    coboundary-shifted cocycle zeta * db."""
    action = datum.action
    group = action.group
    new_cocycle = datum.cocycle * kx_coboundary_of(action, primitive)
    matrices = []
    for a in group.elements():
        scalar = action.apply(group.inv(a), primitive[a])
        matrices.append(tuple(tuple(scalar * x for x in row) for row in datum.matrices[a]))
    out = SemilinearDatum(action, new_cocycle, datum.dim, tuple(matrices))
    ok, why = validate_datum(out)
    if not ok:
        raise ValueError(f"transport produced an invalid datum: {why}")
    return out


def conjugate_datum(datum, p):
    """The isomorphic datum P o a_V o P^-1 for an invertible K-matrix P.
    Its M_a = P o a_V o P^-1 o (a-twist) has the k-matrix P' S_a P'^-1 T_a:
    P' is P's k-matrix scaled to integers, and T_a, the a-twist's, is
    block diagonal with the integer matrix of a on K."""
    action = datum.action
    group = action.group
    field = datum.field
    p_k = _scaled_matrix(k_matrix(field, p))[0]
    p_inv = qlinalg.mat_inv(p_k)
    if p_inv is None:
        raise ValueError("conjugating matrix must be invertible")
    inv_k, inv_d = _scaled_matrix(p_inv)
    matrices = []
    for a in group.elements():
        s_a = k_matrix(field, datum.matrices[a], action.elements[group.inv(a)])
        n_a, d_a = _scaled_matrix(s_a)
        g_a = _scaled_matrix(k_matrix(field, [[1]], action.elements[a]))[0]
        m_a = _times_blocks(qlinalg.mat_mul(qlinalg.mat_mul(p_k, n_a), inv_k), g_a)
        matrices.append(k_entries(field, [[Fraction(x, d_a * inv_d) for x in row] for row in m_a]))
    return SemilinearDatum(action, datum.cocycle, datum.dim, tuple(matrices))


def regular_module(algebra):
    """The algebra as a right module over itself."""
    t, den = algebra._products()
    n = algebra.dim
    # column j of R_x is b_j * x, the table row over its denominator
    actions = [[[Fraction(t[j][x][i], den) for j in range(n)] for i in range(n)] for x in range(n)]
    return AModule(algebra, n, actions)


def presented_algebra(invariant, element):
    """The crossed product (d, c) of Q(sqrt(d)) with c the parameter that
    presents the element of pi_1."""
    action = GaloisAction.of(quadratic_field(invariant.field_param))
    return CrossedProductAlgebra(action, quadratic_cocycle(action, invariant.parameters[element]))


def random_datum(action, dim, rand, twisted=True):
    """A valid datum built by construction: start from the untwisted
    identity datum, transport by a random coboundary primitive, and
    conjugate by a random invertible matrix, all with coefficients in
    [-2, 2]."""
    datum = identity_datum(action, dim)
    field = action.field
    if twisted and dim:
        primitive = {}
        for g in action.group.elements():
            while True:
                coords = [
                    Fraction(rand.randint(-2, 2))
                    for _ in range(field.degree)
                ]
                if any(coords):
                    break
            primitive[g] = field.element(coords)
        primitive[action.group.identity] = field.one()
        datum = transport_datum(datum, primitive)
    if dim:
        while True:
            p = [
                [
                    Fraction(rand.randint(-2, 2))
                    for _ in range(dim)
                ]
                for _ in range(dim)
            ]
            if qlinalg.mat_inv(p) is not None:
                break
        datum = conjugate_datum(datum, p)
    return datum


def rebased(brd, basis):
    """brd on the lattice whose basis is the columns of basis, a full-rank
    integer matrix given by rows, inside X and holding every root: each
    root in the coordinates of that basis, each coroot in the dual ones
    (basis^T times it), built by the public constructors."""
    inverse = gauss_mat_inv(basis)
    roots = tuple(tuple(sum(x * y for x, y in zip(row, r)) for row in inverse) for r in brd.datum.roots)
    assert all(x.denominator == 1 for r in roots for x in r)
    roots = tuple(tuple(int(x) for x in r) for r in roots)
    coroots = tuple(IntMatrix(basis).transpose().apply(c) for c in brd.datum.coroots)
    return BasedRootDatum(RootDatum(brd.datum.rank, roots, coroots), brd.simple_indices)


# A GL_4(Z) matrix: on it the outer automorphisms of D4 move the box
# [0, height]^4 of coweights off itself.
MOVE = [[2, 2, -1, -1], [1, -1, 1, 0], [3, -2, 4, 3], [1, 0, 1, 1]]

# The lattice of SO(8) in the simply connected D4's weight coordinates:
# the root lattice and the leaf's weight omega_1, with basis omega_1,
# omega_2, omega_3 + omega_4, alpha_3 (Bourbaki numbering).
SO8 = [[1, 0, 0, 0], [0, 1, 0, -1], [0, 0, 1, 2], [0, 0, 1, 0]]


def random_module(rng):
    """(Z/m)^k, 1 <= k <= 3, on which g acts by chi(g) P(sigma(g)): chi a
    character Gamma -> {1, -1}, sigma a homomorphism Gamma -> S_k and P
    its permutation matrices, drawn until the action is not trivial mod
    m.  Gamma is one of C2, C3, C4, C6, C2 x C2 and S3."""
    c2 = cyclic(2)
    gammas = [c2, cyclic(3), cyclic(4), cyclic(6), direct_product(c2, c2), symmetric(3)]
    while True:
        gamma, k, m = rng.choice(gammas), rng.randint(1, 3), rng.randint(3, 8)
        chi = rng.choice(homomorphisms(gamma, c2))
        sigma = rng.choice(homomorphisms(gamma, symmetric(k)))
        perms = sorted(permutations(range(k)))
        action = [IntMatrix([[(-1) ** chi[g] * (i == perms[sigma[g]][j]) for j in range(k)]
                             for i in range(k)])
                  for g in range(gamma.order)]
        if any(chi) or any(sigma):
            return GModule(gamma, (m,) * k, action)
