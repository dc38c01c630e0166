"""Twisted semilinear descent for finite-dimensional K-vector spaces.

A datum on V = K^n assigns to each a in Gamma the map
a_V = (matrix M_a over K) composed with the a^-1-twist on coordinates,
subject to  b_V o a_V = (ab)_V o (multiply by zeta(a,b))  and 1_V = id.
With these conventions e_a |-> a_V makes the k-restriction of V a right
module over the crossed product A_zeta, with K acting by its original
scalar action.

Every check runs on the rational k-matrix S_a = N_a / D_a of a_V
(fields.k_matrix), kept as integers: validity is S_b S_a = S_ab Z, with Z
the k-matrix of multiplication by zeta(a, b).  No matrix of field
elements is multiplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cohomology import trivial_kx_cocycle
from .crossed import CrossedProductAlgebra
from .exact_linalg import kernel, mat_mul, rank, solve
from .fields import _scaled_matrix, k_entries, k_matrix


def kmat(field, rows):
    """Freeze a list-of-lists of field elements (or rationals) into a
    tuple-of-tuples of FieldElements."""
    return tuple(tuple(field.coerce(x) for x in row) for row in rows)


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


def make_datum(action, cocycle, matrices):
    """The datum with these K-matrices M_a, one per group element, with
    entries field elements or rationals; validate_datum checks it."""
    mats = tuple(kmat(action.field, m) for m in matrices)
    dim = len(mats[0])
    return SemilinearDatum(action, cocycle, dim, mats)


def validate_datum(datum):
    """Returns (True, None) or (False, violation description with the
    witnessing group element(s)).  A datum is checked once: the verdict
    is kept on it, with the k-matrix S_a = N_a / D_a of every a_V, which
    to_module and fixed_space read through _checked_k_matrices."""
    kept = vars(datum).get("_verdict")
    if kept is None:
        kept = vars(datum)["_verdict"] = _verdict(datum)
    return kept[0] is None, kept[0]


def _verdict(datum):
    """(violation or None, [(N_a, D_a) for a in Gamma] or None)."""
    action = datum.action
    group = action.group
    n = datum.dim
    if len(datum.matrices) != group.order:
        return "one matrix per Galois group element required", None
    for a in group.elements():
        m = datum.matrices[a]
        if len(m) != n or any(len(row) != n for row in m):
            return f"matrix for element {a} is not {n}x{n}", None
    unit = datum.matrices[group.identity]
    if any(x != int(i == j) for i, row in enumerate(unit) for j, x in enumerate(row)):
        return f"identity component is not the identity map (witness {group.identity})", None
    if not datum.cocycle.is_normalized():
        return "cocycle is not normalized", None
    # a_V = M_a o (a^-1 twist) is bijective iff M_a is, iff S_a has full rank
    scaled = []
    for a in group.elements():
        s_a = k_matrix(action.field, datum.matrices[a], action.elements[group.inv(a)])
        n_a, d_a = _scaled_matrix(s_a)
        if rank(n_a) != len(n_a):
            return f"component {a} is not bijective", None
        scaled.append((n_a, d_a))
    # b_V o a_V = (ab)_V o zeta(a, b) is S_b S_a = S_ab Z, Z block diagonal
    for a in group.elements():
        n_a, d_a = scaled[a]
        for b in group.elements():
            n_b, d_b = scaled[b]
            n_ab, d_ab = scaled[group.table[a][b]]
            block, d_z = _scaled_matrix(k_matrix(action.field, [[datum.cocycle.value(a, b)]]))
            # N_b N_a / (D_b D_a) = N_ab Z' / (D_ab d_z), with Z = Z' / d_z
            lhs = [[x * d_ab * d_z for x in row] for row in mat_mul(n_b, n_a)]
            rhs = [[y * d_b * d_a for y in row] for row in _times_blocks(n_ab, block)]
            if lhs != rhs:
                return f"twisted composition fails at pair ({a}, {b})", None
    return None, scaled


def _times_blocks(n, block):
    """The integer matrix N diag(B, ..., B), for a square integer block B."""
    deg = len(block)
    columns = list(zip(*block))
    return [
        [
            sum(x * y for x, y in zip(row[j: j + deg], col))
            for j in range(0, len(row), deg)
            for col in columns
        ]
        for row in n
    ]


def _checked_k_matrices(datum):
    """The kept (N_a, D_a) of a valid datum; an invalid datum raises."""
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
        table, lden = algebra._products()
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
                terms = [(c, scaled[z]) for z, c in enumerate(table[x_idx][g]) if c]
                delta = lcm(*[d_z for _c, (_n, d_z) in terms])
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


# --- the equivalence ------------------------------------------------------

def to_module(datum, algebra=None):
    """The k-restriction of V as a right module over A_zeta: K acts by
    scalars, e_a acts as a_V.  With S_a = N_a / D_a the k-matrix of a_V,
    v . (theta^t e_a) = a_V(theta^t v) has matrix N_a S_t / D_a, with S_t
    block diagonal, each block the integer matrix B_t of multiplication
    by theta^t."""
    scaled = _checked_k_matrices(datum)
    if algebra is None:
        algebra = CrossedProductAlgebra(datum.action, datum.cocycle)
    elif algebra.cocycle.values != datum.cocycle.values or algebra.action != datum.action:
        raise ValueError("algebra does not match the datum's twist")
    field = datum.field
    blocks = [_scaled_matrix(k_matrix(field, [[power]]))[0] for power in field.power_basis()]
    actions = []
    for n_a, d_a in scaled:
        for block in blocks:
            actions.append([[Fraction(x, d_a) for x in row] for row in _times_blocks(n_a, block)])
    return AModule(algebra, datum.dim * field.degree, actions)


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
    scalar_ints = [_scaled_matrix(m)[0] for m in scalar_mats]
    # greedy K-basis from the standard k-basis: e_v joins it, with its
    # theta^t e_v, unless it lies in the span of the columns so far; the
    # span is tested on the columns of the integer N_t = D_t R_t
    basis, span_ints = [], []
    for v_idx in range(big):
        vec = [int(r == v_idx) for r in range(big)]
        if rank(span_ints + [vec]) == len(span_ints):
            continue
        for t in range(deg):
            col = [scalar_mats[t][r][v_idx] for r in range(big)]
            basis.append(col)
            span_ints.append([scalar_ints[t][r][v_idx] for r in range(big)])
        if len(basis) == big:
            break
    if len(basis) < big:
        raise ValueError("K-scalar action is not free: no K-basis found")
    # M_a is R_{e_a} (basis element a * deg) in the chosen K-basis: with
    # B = N / D and R_{e_a} = N_a / D_a, B^-1 R_{e_a} B is N^-1 N_a N / D_a
    n_basis = _scaled_matrix(list(zip(*basis)))[0]
    matrices = []
    for a in algebra.group.elements():
        n_a, d_a = _scaled_matrix(module.actions[a * deg])
        m_a = solve(n_basis, mat_mul(n_a, n_basis))
        if m_a is None:
            raise ValueError("K-scalar action is not free: no K-basis found")
        matrices.append(k_entries(field, [[x / d_a for x in row] for row in m_a]))
    datum = SemilinearDatum(algebra.action, cocycle, n, tuple(matrices))
    ok, why = validate_datum(datum)
    if not ok:
        raise ValueError(f"module does not come from a valid datum: {why}")
    return datum, basis


def fixed_space(datum):
    """k-basis of {v : a_V(v) = v for all a} for an untwisted datum, in
    flattened k-coordinates: the common kernel of the S_a - I, that is of
    the integer rows of the N_a - D_a I.  By Speiser's lemma it has
    dimension datum.dim and K-spans V."""
    if datum.cocycle != trivial_kx_cocycle(datum.action):
        raise ValueError("fixed spaces only exist for untwisted data")
    rows = []
    for n_a, d_a in _checked_k_matrices(datum):
        for i, row in enumerate(n_a):
            rows.append([x - d_a * (i == j) for j, x in enumerate(row)])
    return kernel(rows)


# --- morphisms ------------------------------------------------------------

def datum_morphisms(src, dst):
    """Q-basis of {F : K-linear, F o a_V = a_V' o F for all a}, as
    K-matrices (dst.dim x src.dim).  These are the morphisms of the
    A_zeta-modules to_module(src) -> to_module(dst), read back through
    their K-entries (they commute with the K-scalars)."""
    m1 = to_module(src)
    m2 = to_module(dst, algebra=m1.algebra)
    return [k_entries(src.field, g) for g in module_morphisms(m1, m2)]


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
    sols = kernel(_scaled_matrix(rows)[0])
    return [
        [tuple(vec[i * n1 + j] for j in range(n1)) for i in range(n2)]
        for vec in sols
    ]

