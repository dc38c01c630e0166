"""Exact arithmetic in quadratic and cyclotomic extensions of Q.

Fields carry explicit Galois groups acting on elements; norms, quadratic
Hilbert symbols over Q with their local formulas, the norm test for
quadratic extensions, and 2-torsion Brauer classes recorded by their
ramified places.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd

from . import qlinalg
from .qlinalg import _integral
from .groups import FiniteGroup

INFINITE_PLACE = "inf"


def _squarefree(d):
    d = abs(d)
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 1
    return True


def _factorize(n):
    n = abs(n)
    factors = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def euler_phi(n):
    result = n
    for p in _factorize(n):
        result = result // p * (p - 1)
    return result


def cyclotomic_polynomial(n):
    """Coefficients of Phi_n, low degree first, as ints: x^n - 1 divided
    exactly by the monic Phi_d of every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            divisor = cyclotomic_polynomial(d)
            k = len(divisor) - 1
            quotient = [0] * (len(poly) - k)
            for i in reversed(range(len(quotient))):
                c = quotient[i] = poly[i + k]
                for j, b in enumerate(divisor):
                    poly[i + j] -= c * b
            assert not any(poly)
            poly = quotient
    return poly


class GaloisField:
    """Q, Q(sqrt(d)), or Q(zeta_n), with the power basis."""

    __slots__ = ("kind", "param", "degree", "_reduction")

    def __init__(self, kind, param=None):
        if kind == "rationals":
            self.kind, self.param, self.degree = kind, None, 1
            self._reduction = None
        elif kind == "quadratic":
            d = int(param)
            if d in (0, 1) or not _squarefree(d):
                raise ValueError("quadratic parameter must be squarefree and != 0, 1")
            self.kind, self.param, self.degree = kind, d, 2
            self._reduction = None
        elif kind == "cyclotomic":
            n = int(param)
            if n < 3:
                raise ValueError("cyclotomic parameter must be >= 3")
            self.kind, self.param = kind, n
            m = euler_phi(n)
            self.degree = m
            phi = cyclotomic_polynomial(n)
            # x^k for m <= k < 2m - 1 on the power basis, as sparse integer
            # rows (i, coefficient): x^m = -(phi[0] + ... + phi[m-1] x^{m-1})
            reduction = []
            row = [-c for c in phi[:m]]
            for _ in range(m - 1):
                reduction.append(tuple((i, c) for i, c in enumerate(row) if c))
                top = row[-1]
                row = [0] + row[:-1]
                if top:
                    row = [r - top * c for r, c in zip(row, phi)]
            self._reduction = tuple(reduction)
        else:
            raise ValueError(f"unknown field kind {kind!r}")

    def __eq__(self, other):
        return (
            isinstance(other, GaloisField)
            and self.kind == other.kind
            and self.param == other.param
        )

    def __hash__(self):
        return hash((self.kind, self.param))

    def __repr__(self):
        if self.kind == "rationals":
            return "Q"
        if self.kind == "quadratic":
            return f"Q(sqrt({self.param}))"
        return f"Q(zeta_{self.param})"

    def element(self, coords):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.degree:
            raise ValueError("coordinate count must equal the degree")
        return FieldElement(self, coords)

    def zero(self):
        return self.element([0] * self.degree)

    def one(self):
        return self.element([1] + [0] * (self.degree - 1))

    def from_rational(self, q):
        return self.element([Fraction(q)] + [0] * (self.degree - 1))

    def power_basis(self):
        """theta^t for t < degree."""
        return [self.element([int(s == t) for s in range(self.degree)]) for t in range(self.degree)]

    def generator(self):
        """sqrt(d) or zeta_n (the identity for Q)."""
        if self.degree == 1:
            return self.one()
        return self.element([0, 1] + [0] * (self.degree - 2))

    def _mul_coords(self, x, y):
        if self.kind == "rationals":
            return (x[0] * y[0],)
        xs, dx = _integral(x)
        ys, dy = _integral(y)
        if self.kind == "quadratic":
            (a0, a1), (b0, b1) = xs, ys
            return _rationals((a0 * b0 + self.param * a1 * b1, a0 * b1 + a1 * b0), dx * dy)
        m = self.degree
        conv = [0] * (2 * m - 1)
        for i, a in enumerate(xs):
            if a:
                for j, b in enumerate(ys):
                    if b:
                        conv[i + j] += a * b
        out = conv[:m]
        for c, red in zip(conv[m:], self._reduction):
            if c:
                for i, r in red:
                    out[i] += c * r
        return _rationals(out, dx * dy)


def _mult_matrix(field, c):
    """Rational matrix of multiplication by c on the power basis."""
    deg = field.degree
    cols = [field._mul_coords(c.coords, tuple(Fraction(s == t) for s in range(deg)))
            for t in range(deg)]
    return [[cols[t][s] for t in range(deg)] for s in range(deg)]


def _rationals(ints, den):
    """Coordinates ints / den as Fractions."""
    if den == 1:
        return tuple(Fraction(v) for v in ints)
    return tuple(Fraction(v, den) for v in ints)


RATIONALS = GaloisField("rationals")


def quadratic_field(d):
    return GaloisField("quadratic", d)


def cyclotomic_field(n):
    return GaloisField("cyclotomic", n)


@dataclass(frozen=True)
class FieldElement:
    field: GaloisField
    coords: tuple

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.from_rational(other)

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, self.field._mul_coords(self.coords, o.coords))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field, self.coords))

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        rhs = [1] + [0] * (self.field.degree - 1)
        return FieldElement(self.field, tuple(qlinalg.solve(_mult_matrix(self.field, self), rhs)))

    def __pow__(self, exponent):
        exponent = int(exponent)
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

    def __repr__(self):
        return f"FieldElement({self.field!r}, {list(self.coords)})"


@dataclass(frozen=True)
class GaloisGroupElement:
    """Field automorphism given by its matrix on the power basis."""

    field: GaloisField
    matrix: tuple  # rows of Fractions
    # the matrix as den and sparse integer rows ((j, entry * den), ...)
    _den: int = dc_field(init=False, repr=False, compare=False)
    _rows: tuple = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = len(self.matrix)
        ints, den = _integral([x for row in self.matrix for x in row])
        rows = tuple(
            tuple((j, v) for j, v in enumerate(ints[i * m: (i + 1) * m]) if v)
            for i in range(m)
        )
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_rows", rows)

    def apply(self, x):
        if x.field is not self.field and x.field != self.field:
            raise ValueError("element of a different field")
        xs, dx = _integral(x.coords)
        coords = [sum(v * xs[j] for j, v in row) for row in self._rows]
        return FieldElement(self.field, _rationals(coords, self._den * dx))

    def __call__(self, x):
        return self.apply(x)


def _automorphism_from_generator_image(field, image):
    """Matrix of the automorphism sending the power-basis generator to
    the given element (columns = images of basis powers)."""
    m = field.degree
    cols = [field.one().coords]
    current = field.one()
    for _ in range(1, m):
        current = current * image
        cols.append(current.coords)
    return tuple(
        tuple(cols[j][i] for j in range(m)) for i in range(m)
    )


def galois_group(field):
    """(group, elements) for Gal(K/Q); abelian, order = degree."""
    if field.kind == "rationals":
        raise ValueError("galois_group requires a proper extension")
    if field.kind == "quadratic":
        elems = [
            GaloisGroupElement(field, _automorphism_from_generator_image(field, field.generator())),
            GaloisGroupElement(field, _automorphism_from_generator_image(field, -field.generator())),
        ]
        table = [[0, 1], [1, 0]]
        return FiniteGroup(table, check=False), elems
    n = field.param
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    zeta = field.generator()
    elems = [
        GaloisGroupElement(field, _automorphism_from_generator_image(field, zeta ** u))
        for u in units
    ]
    index = {u: i for i, u in enumerate(units)}
    table = [[index[(u * v) % n] for v in units] for u in units]
    return FiniteGroup(table, check=False), elems


def norm(field, x):
    """Product of all Galois conjugates; a rational number."""
    if field.kind == "rationals":
        return Fraction(x.coords[0])
    _group, elems = galois_group(field)
    product = field.one()
    for g in elems:
        product = product * g.apply(x)
    return product.rational_value()


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _legendre(a, p):
    a %= p
    if a == 0:
        raise ValueError("legendre symbol of multiple of p")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _as_integer_pair(q):
    """Represent a nonzero rational as an integer with the same square
    class (multiply by the square of the denominator)."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("nonzero rational required")
    return q.numerator * q.denominator


def hilbert_symbol(a, b, place):
    """Quadratic Hilbert symbol (a, b)_v over Q: +1 iff z^2 = a x^2 + b y^2
    has a nontrivial solution over the completion at the place (a prime p
    or the infinite place 'inf')."""
    a = _as_integer_pair(a)
    b = _as_integer_pair(b)
    if place in (INFINITE_PLACE, "oo", "infinity"):
        return -1 if (a < 0 and b < 0) else 1
    p = int(place)
    if p < 2:
        raise ValueError(f"bad place {place!r}")
    alpha, u = _valuation(a, p)
    beta, w = _valuation(b, p)
    if p != 2:
        eps = (p - 1) // 2
        sign = -1 if (alpha * beta * eps) % 2 else 1
        if beta % 2:
            sign *= _legendre(u, p)
        if alpha % 2:
            sign *= _legendre(w, p)
        return sign
    # p = 2: epsilon(u) = (u-1)/2, omega(u) = (u^2-1)/8 mod 2
    e_u = ((u - 1) // 2) % 2
    e_w = ((w - 1) // 2) % 2
    o_u = ((u * u - 1) // 8) % 2
    o_w = ((w * w - 1) // 8) % 2
    exponent = e_u * e_w + alpha * o_w + beta * o_u
    return -1 if exponent % 2 else 1


def relevant_places(*rationals):
    """2, the primes dividing any argument (numerator or denominator),
    and the infinite place."""
    primes = {2}
    for q in rationals:
        q = Fraction(q)
        for n in (q.numerator, q.denominator):
            primes.update(_factorize(n))
    return sorted(primes) + [INFINITE_PLACE]


def is_norm_quadratic(d, c):
    """True iff c is a norm from Q(sqrt(d)): all local symbols (d, c)_v
    are +1 at the places dividing 2 d c and at infinity."""
    d = int(d)
    if d in (0, 1) or not _squarefree(d):
        raise ValueError("d must be squarefree and != 0, 1")
    c = Fraction(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    return all(hilbert_symbol(d, c, v) == 1 for v in relevant_places(d, c))


@dataclass(frozen=True)
class BrauerClass:
    """2-torsion Brauer class over Q, recorded by the finite set of
    places with local invariant 1/2."""

    ramified_places: frozenset

    def __post_init__(self):
        object.__setattr__(self, "ramified_places", frozenset(self.ramified_places))
        if len(self.ramified_places) % 2:
            raise ValueError("ramified set must have even cardinality (reciprocity)")

    def __add__(self, other):
        return BrauerClass(self.ramified_places ^ other.ramified_places)

    def is_trivial(self):
        return not self.ramified_places

    def sorted_places(self):
        finite = sorted(p for p in self.ramified_places if p != INFINITE_PLACE)
        return finite + ([INFINITE_PLACE] if INFINITE_PLACE in self.ramified_places else [])


def brauer_class_quaternion(d, c):
    """Class of the quaternion algebra (d, c) over Q."""
    d = int(d)
    c = Fraction(c)
    if c == 0 or d == 0:
        raise ValueError("nonzero arguments required")
    ramified = {
        v for v in relevant_places(d, c) if hilbert_symbol(d, c, v) == -1
    }
    return BrauerClass(frozenset(ramified))
