"""Crossed-product algebras of Galois extensions of Q.

A = sum over a in Gamma of K * e_a with e_a e_b = zeta(a, b) e_{ab} and
the commutation rule e_a * lam = a(lam) * e_a.  (This is the rule forced
by associativity together with the standard cocycle identity; it makes
e_a act as the a^-1-semilinear descent map on right modules.)  The table
of products of k-basis elements is kept as integer rows over one
denominator, and the center and the trace form are read from it with
exact_linalg's integer routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm

from .cohomology import (
    CyclicNormClasses,
    is_two_cocycle_kx,
    kx_coboundary_of,
)
from .exact_linalg import kernel, rank
from .fields import brauer_class_quaternion
from .groups import generators


class CrossedProductAlgebra:
    """K-basis {e_a}, k = Q; k-basis indexed by (a, i) -> a * deg + i,
    standing for (field basis element i) * e_a."""

    def __init__(self, action, cocycle):
        if cocycle.action != action:
            raise ValueError("cocycle must live over the same Galois action")
        for pair, value in sorted(cocycle.values.items()):
            if not value:
                raise ValueError(f"cocycle value must be nonzero at pair {pair}")
        ok, witness = is_two_cocycle_kx(cocycle, report=True)
        if not ok:
            raise ValueError(f"not a 2-cocycle: associativity fails at triple {witness}")
        if not cocycle.is_normalized():
            cocycle = cocycle.normalized()
        self.action = action
        self.cocycle = cocycle
        self.field = action.field
        self.group = action.group
        self.deg = self.field.degree
        self.dim = self.group.order * self.deg
        # Integer rows over one denominator, never AlgebraElements: an element
        # points back at its algebra, a cycle that would keep dead algebras alive.
        self._table = None
        self._center = None

    # --- elements ---------------------------------------------------------

    def element(self, kcoeffs):
        """Element from a sequence of K-coefficients indexed by Gamma."""
        coeffs = tuple(self.field.coerce(c) for c in kcoeffs)
        if len(coeffs) != self.group.order:
            raise ValueError("one K-coefficient per group element required")
        return AlgebraElement(self, coeffs)

    def basis_element(self, a, scalar=1):
        coeffs = [self.field.zero()] * self.group.order
        coeffs[a] = self.field.coerce(scalar)
        return AlgebraElement(self, tuple(coeffs))

    def k_basis(self):
        """k-basis elements in index order (a, i)."""
        powers = self.field.power_basis()
        return [self.basis_element(a, t) for a in self.group.elements() for t in powers]

    def from_k_coords(self, coords):
        if len(coords) != self.dim:
            raise ValueError("dimension mismatch")
        coeffs = []
        for a in self.group.elements():
            block = coords[a * self.deg: (a + 1) * self.deg]
            coeffs.append(self.field.element(block))
        return AlgebraElement(self, tuple(coeffs))

    # --- multiplication ---------------------------------------------------

    def multiply(self, x, y):
        if x.algebra is not self or y.algebra is not self:
            raise ValueError("elements of a different algebra")
        group = self.group
        out = [self.field.zero()] * group.order
        for a in group.elements():
            xa = x.kcoeffs[a]
            if not xa:
                continue
            for b in group.elements():
                yb = y.kcoeffs[b]
                if not yb:
                    continue
                ab = group.table[a][b]
                out[ab] = out[ab] + xa * self.action.apply(a, yb) * self.cocycle.value(a, b)
        return AlgebraElement(self, tuple(out))

    def _products(self):
        """(t, L): t[i][j] is L times the k-coordinates of b_i * b_j, for
        k-basis elements b, and L the lcm of the cocycle's denominators.
        With b_(a,s) = theta^s e_a, b_(a,s) b_(b,t) = theta^s a(theta^t)
        zeta(a, b) e_ab, and a(theta^t) L zeta(a, b) has integer
        coordinates, the Galois matrices being integral: these |Gamma|^2
        deg products are formed once, then multiplied by each power
        theta^s.  Only block ab of the product is nonzero."""
        if self._table is None:
            field, group, deg, dim = self.field, self.group, self.deg, self.dim
            den = lcm(*[zeta.den for zeta in self.cocycle.values.values()])
            powers = [[int(s == t) for s in range(deg)] for t in range(deg)]
            table = [[None] * dim for _ in range(dim)]
            for a in group.elements():
                images = [self.action.apply(a, x).nums for x in field.power_basis()]
                for b in group.elements():
                    start = group.table[a][b] * deg
                    value = self.cocycle.value(a, b)
                    zeta = [c * (den // value.den) for c in value.nums]
                    for t, image in enumerate(images):
                        y = field._mul_ints(image, zeta)
                        for s, power in enumerate(powers):
                            row = [0] * dim
                            row[start: start + deg] = field._mul_ints(power, y) if s else y
                            table[a * deg + s][b * deg + t] = row
            self._table = table, den
        return self._table

    def _generators(self):
        """k-basis indices of theta (sqrt(d) or zeta_n) and of e_g for g in
        a greedy generating set of Gamma (groups.generators).  With 1 they
        generate the algebra: K is Q(theta), and e_a for a = g h ... is a
        K^x-multiple of e_g e_h ..., by the rule e_g e_h = zeta(g, h) e_gh."""
        return [1] + [g * self.deg for g in generators(self.group)]

    # --- structure --------------------------------------------------------

    def center_basis(self):
        """k-basis of the center, as AlgebraElements: the commutant of the
        algebra generators theta and e_g, g in a generating set of Gamma
        (_generators): dim rows of dim integers read off the product table
        per algebra generator, (1 + #generators) dim rows in all, in place
        of |Gamma| dim for theta and every e_a != e_1.  Over Q(zeta_13) the
        greedy set is one element: 288 rows in place of 1,728."""
        if self._center is None:
            t = self._products()[0]
            self._center = kernel([
                [t[g][j][i] - t[j][g][i] for j in range(self.dim)]
                for g in self._generators()
                for i in range(self.dim)
            ])
        return [self.from_k_coords(vec) for vec in self._center]

    def trace_form_gram(self):
        """Gram matrix G / L^2 of (x, y) -> tr(xy) on the k-basis, as
        (G, L^2), G integer rows.  Left multiplication by b_(a,s) sends
        block b to block ab, so only the basis elements of the e_1 block,
        a = 1, have a nonzero trace, L tr(b_k) = sum_i t[k][i][i]."""
        t, den = self._products()
        start = self.group.identity * self.deg
        block = [
            (k, sum(t[k][i][i] for i in range(self.dim)))
            for k in range(start, start + self.deg)
        ]
        return [[sum(tij[k] * tr for k, tr in block) for tij in ti] for ti in t], den * den

    def is_central_simple(self):
        """Center = k and trace form nondegenerate (semisimplicity in
        characteristic 0); for crossed products of field extensions this
        certifies central simplicity.  Both are read from the table of
        basis products."""
        if len(self.center_basis()) != 1:
            return False
        return rank(self.trace_form_gram()[0]) == self.dim

    def is_quaternion(self):
        return self.field.kind == "quadratic" and self.group.order == 2

    def presenting_pair(self):
        """(d, c) with the algebra isomorphic to the quaternion algebra
        (d, c) over Q."""
        if not self.is_quaternion():
            raise ValueError("not a quadratic crossed product")
        sigma = 1 - self.group.identity
        c = self.cocycle.value(sigma, sigma)
        return self.field.param, c.rational_value()

    def is_split_quaternion(self):
        """True iff the Brauer class of (d, c) is trivial; the field
        checked d when it was built, so d is not checked again."""
        d, c = self.presenting_pair()
        return brauer_class_quaternion(d, c).is_trivial()


@dataclass(frozen=True)
class AlgebraElement:
    algebra: CrossedProductAlgebra
    kcoeffs: tuple  # FieldElement per group element

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra.multiply(self, other)
        return AlgebraElement(
            self.algebra,
            tuple(c * other for c in self.kcoeffs),
        )

    def __rmul__(self, other):
        # scalars from K (or Q) commute into the K-coefficients on the left
        return AlgebraElement(
            self.algebra,
            tuple(other * c for c in self.kcoeffs),
        )

    def __add__(self, other):
        return AlgebraElement(
            self.algebra, tuple(a + b for a, b in zip(self.kcoeffs, other.kcoeffs))
        )

    def __sub__(self, other):
        return AlgebraElement(
            self.algebra, tuple(a - b for a, b in zip(self.kcoeffs, other.kcoeffs))
        )

    def __neg__(self):
        return AlgebraElement(self.algebra, tuple(-a for a in self.kcoeffs))

    def __bool__(self):
        return any(self.kcoeffs)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra is other.algebra
            and self.kcoeffs == other.kcoeffs
        )

    def __hash__(self):
        return hash(self.kcoeffs)


@dataclass(frozen=True)
class AlgebraIsomorphism:
    """e_a -> b(a)^-1 e'_a for a coboundary primitive b with
    zeta' = zeta * db."""

    source: CrossedProductAlgebra
    target: CrossedProductAlgebra
    primitive: dict  # Gamma element -> K^x

    def apply(self, x):
        if x.algebra is not self.source:
            raise ValueError("element of a different algebra")
        coeffs = tuple(
            c / self.primitive[a] for a, c in enumerate(x.kcoeffs)
        )
        return AlgebraElement(self.target, coeffs)

    def compose(self, other):
        """self after other: an isomorphism other.source -> self.target."""
        if other.target is not self.source:
            raise ValueError("isomorphisms do not compose")
        primitive = {
            a: other.primitive[a] * self.primitive[a] for a in other.primitive
        }
        return AlgebraIsomorphism(other.source, self.target, primitive)


def coboundary_isomorphism(source, target, primitive):
    """Isomorphism A_zeta -> A_zeta' induced by b with zeta' = zeta * db;
    zeta' = zeta * db is what makes e_a -> b(a)^-1 e'_a multiplicative."""
    if source.action != target.action:
        raise ValueError("algebras over different extensions")
    action = source.action
    db = kx_coboundary_of(action, primitive)
    shifted = source.cocycle * db
    if any(
        shifted.values[key] != target.cocycle.values[key]
        for key in shifted.values
    ):
        raise ValueError("primitive does not connect the two cocycles")
    return AlgebraIsomorphism(source, target, dict(primitive))


def cocycle_sum_class_check(zeta_a, zeta_b, zeta_sum):
    """True iff zeta_a * zeta_b is cohomologous to zeta_sum, decided by
    quadratic norm classes ([A tensor B] = [A+B] at the cocycle level)."""
    classes = CyclicNormClasses(zeta_a.action)
    c1 = classes.class_element(zeta_a * zeta_b)
    c2 = classes.class_element(zeta_sum)
    return classes.same_class(c1, c2)


def find_zero_divisor(algebra, bound=3):
    """Bounded search for a zero divisor in a quaternion crossed product:
    looks for an isotropic vector of the reduced norm form, in integers:
    with c = p/q and N(a, b) = a^2 - d b^2, x0^2 - d x1^2 - c(x2^2 - d x3^2)
    = 0 iff q N(x0, x1) = p N(x2, x3).  The right side is tabulated once,
    value -> pairs (x2, x3) in product order, for the (2B+1)^2 pairs of the
    box [-B, B]; then (x0, x1) walks the box in product order and looks
    q N(x0, x1) up.  That is 2 (2B+1)^2 steps in place of (2B+1)^4, and the
    quadruples come in the product order of [-B, B]^4, so the first
    witness is the one of the full walk."""
    d, c = algebra.presenting_pair()
    p, q = c.numerator, c.denominator
    pairs = list(product(range(-bound, bound + 1), repeat=2))
    right = {}
    for x2, x3 in pairs:
        right.setdefault(p * (x2 * x2 - d * x3 * x3), []).append((x2, x3))
    field = algebra.field
    for x0, x1 in pairs:
        for x2, x3 in right.get(q * (x0 * x0 - d * x1 * x1), ()):
            if not (x0 or x1 or x2 or x3):
                continue
            x = algebra.element([field.element([x0, x1]), field.element([x2, x3])])
            conj = algebra.element([field.element([x0, -x1]), field.element([-x2, -x3])])
            if not algebra.multiply(x, conj):
                return x, conj
    return None
