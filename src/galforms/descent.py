"""Twisted semilinear descent for finite-dimensional K-vector spaces.

A datum on V = K^n assigns to each a in Gamma the map
a_V = (matrix M_a over K) composed with the a^-1-twist on coordinates,
subject to  b_V o a_V = (ab)_V o (multiply by zeta(a,b))  and 1_V = id.
With these conventions e_a |-> a_V makes the k-restriction of V a right
module over the crossed product A_zeta, with K acting by its original
scalar action.

K-matrices are eliminated through their rational k-matrices (block (i, j)
is multiplication by the (i, j) entry): ranks, kernels and inverses all go
through qlinalg on rational input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import gcd

from . import qlinalg
from .cohomology import kx_coboundary_of, trivial_kx_cocycle
from .crossed import CrossedProductAlgebra
from .fields import FieldElement, _mult_matrix, _rationals
from .qlinalg import _integral, _scaled_matrix


# --- K-matrix helpers -----------------------------------------------------

def kmat(field, rows):
    """Freeze a list-of-lists of field elements (or rationals) into a
    tuple-of-tuples of FieldElements."""
    out = []
    for row in rows:
        out.append(
            tuple(
                x if isinstance(x, FieldElement) else field.from_rational(x)
                for x in row
            )
        )
    return tuple(out)


def kmat_identity(field, n):
    return tuple(
        tuple(field.one() if i == j else field.zero() for j in range(n))
        for i in range(n)
    )


def kmat_mul(a, b):
    return tuple(tuple(row) for row in qlinalg.mat_mul([list(r) for r in a], [list(r) for r in b]))


def kmat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def kmat_twist(action, g, a):
    """Apply the Galois automorphism g to every entry."""
    return tuple(tuple(action.apply(g, x) for x in row) for row in a)


def kmat_inv(a):
    """Inverse of a K-matrix, or None if singular: the inverse of its
    rational k-matrix, read back as a K-matrix."""
    if not a:
        return ()
    field = a[0][0].field
    inv = qlinalg.mat_inv(_k_linear_matrix(field, a))
    return None if inv is None else _k_entries(field, inv)


# --- the datum ------------------------------------------------------------

@dataclass(frozen=True)
class SemilinearDatum:
    """V = K^dim with a_V = M_a o (a^-1 coordinate twist)."""

    action: object          # GaloisAction
    cocycle: object         # KxCocycle (normalized)
    dim: int
    matrices: tuple         # per group element, a dim x dim K-matrix

    @property
    def field(self):
        return self.action.field

    def apply(self, a, vec):
        """a_V applied to a K-coordinate vector."""
        ainv = self.action.group.inv(a)
        twisted = [self.action.apply(ainv, x) for x in vec]
        return qlinalg.mat_vec([list(r) for r in self.matrices[a]], twisted)


def make_datum(action, cocycle, matrices):
    mats = tuple(kmat(action.field, m) for m in matrices)
    dim = len(mats[0])
    return SemilinearDatum(action, cocycle, dim, mats)


def identity_datum(action, dim):
    """The untwisted datum: a_V = coordinate twist alone."""
    eye = kmat_identity(action.field, dim)
    return SemilinearDatum(
        action,
        trivial_kx_cocycle(action),
        dim,
        tuple(eye for _ in action.group.elements()),
    )


def validate_datum(datum):
    """Returns (True, None) or (False, violation description with the
    witnessing group element(s)).  A datum is checked once: the verdict
    is kept on it, with the rational k-matrix S_a of every a_V, which
    to_module and fixed_space read through _checked_k_matrices."""
    kept = vars(datum).get("_verdict")
    if kept is None:
        kept = vars(datum)["_verdict"] = _verdict(datum)
    return kept[0] is None, kept[0]


def _verdict(datum):
    """(violation or None, [S_a for a in Gamma] or None)."""
    action = datum.action
    group = action.group
    n = datum.dim
    if len(datum.matrices) != group.order:
        return "one matrix per Galois group element required", None
    for a in group.elements():
        m = datum.matrices[a]
        if len(m) != n or any(len(row) != n for row in m):
            return f"matrix for element {a} is not {n}x{n}", None
    eye = kmat_identity(action.field, n)
    if datum.matrices[group.identity] != eye:
        return f"identity component is not the identity map (witness {group.identity})", None
    if not datum.cocycle.is_normalized():
        return "cocycle is not normalized", None
    # a_V = M_a o (a^-1 twist) is bijective iff M_a is, iff S_a has full rank
    semi = []
    for a in group.elements():
        s_a = _semilinear_k_matrix(datum, a)
        if qlinalg.rank(s_a) != len(s_a):
            return f"component {a} is not bijective", None
        semi.append(s_a)
    for a in group.elements():
        for b in group.elements():
            ab = group.table[a][b]
            lhs = kmat_mul(
                datum.matrices[b],
                kmat_twist(action, group.inv(b), datum.matrices[a]),
            )
            scalar = action.apply(group.inv(ab), datum.cocycle.value(a, b))
            rhs = kmat_scale(scalar, datum.matrices[ab])
            if lhs != rhs:
                return f"twisted composition fails at pair ({a}, {b})", None
    return None, semi


def _checked_k_matrices(datum):
    """The kept S_a of a valid datum; an invalid datum raises."""
    ok, why = validate_datum(datum)
    if not ok:
        raise ValueError(f"invalid datum: {why}")
    return vars(datum)["_verdict"][1]


# --- modules over the crossed product ------------------------------------

class AModule:
    """Right module over a crossed product, by rational action matrices
    (one per algebra k-basis element) on a k-space of dimension dim."""

    def __init__(self, algebra, dim, actions):
        self.algebra = algebra
        self.dim = dim
        self.actions = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in m) for m in actions
        )
        if len(self.actions) != algebra.dim:
            raise ValueError("one action matrix per algebra basis element required")
        for m in self.actions:
            if len(m) != dim or any(len(row) != dim for row in m):
                raise ValueError("action matrix of the wrong shape")
        self._check_axioms()

    def _check_axioms(self):
        """R_1 = I and R_{xg} = R_g R_x for every k-basis x and every
        generator g (theta and the e_a).  This is the all-pairs axiom: the
        y with R_{ay} = R_y R_a for all a form a unital subalgebra, and
        with 1 the g generate A.  Each R_x is N_x / D_x with N_x integral
        and D_x the lcm of its denominators; both sides are compared as
        integer matrices."""
        algebra = self.algebra
        table = algebra._products()
        scaled = [_scaled_matrix(m) for m in self.actions]
        unit, den = scaled[algebra.group.identity * algebra.deg]
        if any(x != den * (i == j) for i, row in enumerate(unit) for j, x in enumerate(row)):
            raise ValueError("unit does not act as the identity")
        columns = [list(zip(*n_x)) for n_x, _ in scaled]
        for x_idx in range(algebra.dim):
            cols_x, d_x = columns[x_idx], scaled[x_idx][1]
            for g in algebra._generators():
                n_g, d_g = scaled[g]
                # right modules: v.(xg) = (v.x).g, so R_{xg} = R_g R_x.
                # b_x b_g = sum_z (C_z / L) b_z; with delta the lcm of the
                # D_z, L delta R_{xg} = sum_z C_z (delta / D_z) N_z
                coeffs, lden = _integral(table[x_idx][g])
                terms = [(c, scaled[z]) for z, c in enumerate(coeffs) if c]
                delta = 1
                for _c, (_n, d_z) in terms:
                    delta = delta * d_z // gcd(delta, d_z)
                terms = [(c * (delta // d_z), n_z) for c, (n_z, d_z) in terms]
                lhs_scale, rhs_scale = d_g * d_x, lden * delta
                for i, row_g in enumerate(n_g):
                    for j, col in enumerate(cols_x):
                        lhs = sum(c * n_z[i][j] for c, n_z in terms)
                        rhs = sum(a * b for a, b in zip(row_g, col))
                        if lhs * lhs_scale != rhs * rhs_scale:
                            raise ValueError(
                                f"module axiom fails on basis pair ({x_idx}, {g})"
                            )

    def __eq__(self, other):
        return (
            isinstance(other, AModule)
            and self.algebra is other.algebra
            and self.dim == other.dim
            and self.actions == other.actions
        )


def regular_module(algebra):
    """The algebra as a right module over itself."""
    t = algebra._products()
    n = algebra.dim
    # column j of R_x is b_j * x
    actions = [[[t[j][x][i] for j in range(n)] for i in range(n)] for x in range(n)]
    return AModule(algebra, n, actions)


# --- the equivalence ------------------------------------------------------

def _semilinear_k_matrix(datum, a):
    """k-matrix of a_V on flattened coordinates: a_V(theta^t e_j) =
    a^-1(theta^t) M_a e_j, so column (j, t) holds the entries of column j
    of M_a times a^-1(theta^t)."""
    field = datum.field
    deg = field.degree
    n = datum.dim
    ainv = datum.action.group.inv(a)
    twists = [datum.action.apply(ainv, power) for power in field.power_basis()]
    rows = [[None] * (n * deg) for _ in range(n * deg)]
    for i, mrow in enumerate(datum.matrices[a]):
        for j, x in enumerate(mrow):
            for t, twist in enumerate(twists):
                for s, c in enumerate((x * twist).coords):
                    rows[i * deg + s][j * deg + t] = c
    return rows


def _k_linear_matrix(field, kmatrix):
    """Rational matrix of the K-linear map v -> M v on flattened
    coordinates: block (i, j) is multiplication by M[i][j]."""
    deg = field.degree
    blocks = [[_mult_matrix(field, x) for x in row] for row in kmatrix]
    return [
        [x for block in brow for x in block[s]]
        for brow in blocks
        for s in range(deg)
    ]


def _k_entries(field, m):
    """The K-matrix of a K-linear rational matrix m, inverse of
    _k_linear_matrix: block (i, j) is multiplication by entry (i, j),
    whose coordinates are that block's first column."""
    deg = field.degree
    return tuple(
        tuple(field.element([m[i + s][j] for s in range(deg)]) for j in range(0, len(m[0]), deg))
        for i in range(0, len(m), deg)
    )


def to_module(datum, algebra=None):
    """The k-restriction of V as a right module over A_zeta: K acts by
    scalars, e_a acts as a_V.  With S_a = N_a / D_a the k-matrix of a_V,
    v . (theta^t e_a) = a_V(theta^t v) has matrix N_a S_t / D_a, with S_t
    block diagonal, each block the integer matrix B_t of multiplication
    by theta^t."""
    semi = _checked_k_matrices(datum)
    if algebra is None:
        algebra = CrossedProductAlgebra(datum.action, datum.cocycle)
    elif algebra.cocycle.values != datum.cocycle.values or algebra.action != datum.action:
        raise ValueError("algebra does not match the datum's twist")
    field = datum.field
    deg = field.degree
    blocks = [list(zip(*_mult_matrix(field, power))) for power in field.power_basis()]
    actions = []
    for m in semi:
        n_a, d_a = _scaled_matrix(m)
        for columns in blocks:
            actions.append([
                _rationals([
                    sum(x * int(y) for x, y in zip(row[j: j + deg], col))
                    for j in range(0, len(row), deg)
                    for col in columns
                ], d_a)
                for row in n_a
            ])
    return AModule(algebra, datum.dim * deg, actions)


def from_module(module):
    """Recover a semilinear datum: K-structure from the K-scalar action,
    a_V from the e_a action.  Returns (datum, basis) where basis columns
    are the chosen K-basis vectors in the module's coordinates; when the
    module came from to_module the basis is the identity and the datum
    roundtrips exactly."""
    algebra = module.algebra
    field = algebra.field
    deg = field.degree
    big = module.dim
    if big % deg:
        raise ValueError("module k-dimension is not a multiple of [K:k]")
    n = big // deg
    cocycle = algebra.cocycle
    if n == 0:
        datum = SemilinearDatum(algebra.action, cocycle, 0, tuple(() for _ in algebra.group.elements()))
        return datum, []
    # rational matrices for the scalar action of the field power basis
    ident = algebra.group.identity
    scalar_mats = [module.actions[ident * deg + t] for t in range(deg)]
    # greedy K-basis from the standard k-basis
    span_cols = []
    chosen = []
    for v_idx in range(big):
        vec = [Fraction(0)] * big
        vec[v_idx] = Fraction(1)
        if span_cols:
            trial = [list(col) for col in span_cols] + [vec]
            mat = [[trial[c][r] for c in range(len(trial))] for r in range(big)]
            if qlinalg.rank(mat) == len(span_cols):
                continue
        chosen.append(v_idx)
        for t in range(deg):
            col = [scalar_mats[t][r][v_idx] for r in range(big)]
            span_cols.append(col)
        if len(chosen) == n:
            break
    if len(chosen) < n:
        raise ValueError("K-scalar action is not free: no K-basis found")
    basis_mat = [[span_cols[c][r] for c in range(big)] for r in range(big)]
    inv = qlinalg.mat_inv(basis_mat)
    if inv is None:
        raise ValueError("K-scalar action is not free: no K-basis found")
    # M_a is R_{e_a} (e_a is basis element a * deg) in the chosen K-basis
    matrices = [
        _k_entries(field, qlinalg.mat_mul(inv, qlinalg.mat_mul(module.actions[a * deg], basis_mat)))
        for a in algebra.group.elements()
    ]
    datum = SemilinearDatum(algebra.action, cocycle, n, tuple(matrices))
    ok, why = validate_datum(datum)
    if not ok:
        raise ValueError(f"module does not come from a valid datum: {why}")
    basis = [[basis_mat[r][c] for r in range(big)] for c in range(big)]
    return datum, basis


def fixed_space(datum):
    """k-basis of {v : a_V(v) = v for all a} for an untwisted datum, in
    flattened k-coordinates: the common kernel of the S_a - I.  By
    Speiser's lemma it has dimension datum.dim and K-spans V."""
    one = datum.field.one()
    if any(x != one for x in datum.cocycle.values.values()):
        raise ValueError("fixed spaces only exist for untwisted data")
    semi = _checked_k_matrices(datum)
    big = datum.dim * datum.field.degree
    if big == 0:
        return []
    rows = []
    for m in semi:
        for i in range(big):
            rows.append([m[i][j] - (i == j) for j in range(big)])
    return qlinalg.kernel(rows)


def transport_datum(datum, primitive):
    """Replace a_V by b(a)*a_V; the result is a datum over the
    coboundary-shifted cocycle zeta * db."""
    action = datum.action
    group = action.group
    new_cocycle = datum.cocycle * kx_coboundary_of(action, primitive)
    matrices = []
    for a in group.elements():
        scalar = action.apply(group.inv(a), primitive[a])
        matrices.append(kmat_scale(scalar, datum.matrices[a]))
    out = SemilinearDatum(action, new_cocycle, datum.dim, tuple(matrices))
    ok, why = validate_datum(out)
    if not ok:
        raise ValueError(f"transport produced an invalid datum: {why}")
    return out


def conjugate_datum(datum, p):
    """The isomorphic datum P o a_V o P^-1 for an invertible K-matrix P."""
    action = datum.action
    group = action.group
    p = kmat(datum.field, p)
    pinv = kmat_inv(p)
    if pinv is None:
        raise ValueError("conjugating matrix must be invertible")
    matrices = []
    for a in group.elements():
        matrices.append(
            kmat_mul(kmat_mul(p, datum.matrices[a]), kmat_twist(action, group.inv(a), pinv))
        )
    return SemilinearDatum(action, datum.cocycle, datum.dim, tuple(matrices))


# --- morphisms ------------------------------------------------------------

def datum_morphisms(src, dst):
    """Q-basis of {F : K-linear, F o a_V = a_V' o F for all a}, as
    K-matrices (dst.dim x src.dim).  These are the morphisms of the
    A_zeta-modules to_module(src) -> to_module(dst), read back through
    their K-entries (they commute with the K-scalars)."""
    m1 = to_module(src)
    m2 = to_module(dst, algebra=m1.algebra)
    return [_k_entries(src.field, g) for g in module_morphisms(m1, m2)]


def module_morphisms(src, dst):
    """Rational basis of {G : G R_x = R'_x G for all algebra x}, i.e.
    right-module homomorphisms src -> dst.  The generators theta and e_a
    suffice: the x with G R_x = R'_x G form a unital subalgebra."""
    if src.algebra is not dst.algebra:
        raise ValueError("modules over different algebras")
    n1, n2 = src.dim, dst.dim
    nun = n2 * n1
    if nun == 0:
        return []
    rows = []
    for x in src.algebra._generators():
        rx, rxp = src.actions[x], dst.actions[x]
        for i in range(n2):
            for j in range(n1):
                row = [Fraction(0)] * nun
                for l in range(n1):
                    row[i * n1 + l] += rx[l][j]
                for l in range(n2):
                    row[l * n1 + j] -= rxp[i][l]
                rows.append(row)
    sols = qlinalg.kernel(rows)
    return [
        [tuple(vec[i * n1 + j] for j in range(n1)) for i in range(n2)]
        for vec in sols
    ]


# --- the dimension-one obstruction ----------------------------------------

def dimension_one_witness(action, cocycle, bound=5):
    """Search exhaustively over a coefficient grid for a single field
    element m making M = [[m]] a valid datum over the given quadratic
    cocycle (the condition is m * sigma(m) = zeta(sigma, sigma)).
    Returns m or None."""
    group = action.group
    if group.order != 2:
        raise ValueError("quadratic extensions only")
    sigma = 1 - group.identity
    target = cocycle.value(sigma, sigma)
    field = action.field
    rng = range(-bound, bound + 1)
    for coords in iproduct(rng, repeat=field.degree):
        if not any(coords):
            continue
        m = field.element(list(coords))
        if m * action.apply(sigma, m) == target:
            return m
    return None
