"""Data the tests build: the identity datum and its transports and
conjugates, random valid descent data, the regular module of a crossed
product, and the quaternion algebra that presents a component of an
inner-form invariant."""

from fractions import Fraction

from galforms import qlinalg
from galforms.cohomology import GaloisAction, kx_coboundary_of, quadratic_cocycle, trivial_kx_cocycle
from galforms.crossed import CrossedProductAlgebra
from galforms.descent import AModule, SemilinearDatum, _times_blocks, kmat, validate_datum
from galforms.fields import _rationals, k_entries, k_matrix, quadratic_field
from galforms.qlinalg import _scaled_matrix


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
        matrices.append(k_entries(field, [_rationals(row, d_a * inv_d) for row in m_a]))
    return SemilinearDatum(action, datum.cocycle, datum.dim, tuple(matrices))


def regular_module(algebra):
    """The algebra as a right module over itself."""
    t = algebra._products()
    n = algebra.dim
    # column j of R_x is b_j * x
    actions = [[[t[j][x][i] for j in range(n)] for i in range(n)] for x in range(n)]
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
