"""Exact arithmetic in quadratic and cyclotomic extensions of Q.

An element is integer numerators over one denominator on the power
basis, in lowest terms: Fractions are built only where elements are
read in (element, from_rational) and out (coords, rational_value).
K is a k-vector space on its power basis in one place: k_matrix is the
rational matrix of every K-linear and semilinear map, and k_entries
reads a K-linear one back.  Fields carry explicit Galois groups acting
on elements by integer matrices; norms and inverses, quadratic Hilbert
symbols over Q with their local formulas, the norm test for quadratic
extensions, and 2-torsion Brauer classes recorded by their ramified
places.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .groups import FiniteGroup

INFINITE_PLACE = "inf"


# Largest |n| that _factorize takes: it divides n by every f up to
# sqrt|n|, which takes about 0.16 s at the cap.
TRIAL_DIVISION_CAP = 10**12


def _squarefree(d):
    return all(e == 1 for e in _factorize(d).values())


def _factorize(n):
    n = abs(n)
    if n > TRIAL_DIVISION_CAP:
        raise ValueError(f"{n} is above the trial-division cap of {TRIAL_DIVISION_CAP}")
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
    """Q(sqrt(d)) or Q(zeta_n), with the power basis."""

    __slots__ = ("kind", "param", "degree", "_reduction", "_galois")

    def __init__(self, kind, param=None):
        self._galois = None  # (group, elements), kept by galois_group
        if kind == "quadratic":
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
        if self.kind == "quadratic":
            return f"Q(sqrt({self.param}))"
        return f"Q(zeta_{self.param})"

    def element(self, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.degree:
            raise ValueError("coordinate count must equal the degree")
        # lowest terms: over the lcm of the denominators, no prime divides all
        den = lcm(*[c.denominator for c in coords])
        return FieldElement(self, tuple(c.numerator * (den // c.denominator) for c in coords), den)

    def zero(self):
        return FieldElement(self, (0,) * self.degree, 1)

    def one(self):
        return FieldElement(self, (1,) + (0,) * (self.degree - 1), 1)

    def from_rational(self, q):
        q = Fraction(q)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def coerce(self, x):
        """x if it is an element of this field, else the rational x."""
        if isinstance(x, FieldElement):
            if x.field is not self and x.field != self:
                raise ValueError("elements of different fields")
            return x
        return self.from_rational(x)

    def power_basis(self):
        """theta^t for t < degree."""
        deg = self.degree
        return [FieldElement(self, tuple(int(s == t) for s in range(deg)), 1) for t in range(deg)]

    def generator(self):
        """sqrt(d) or zeta_n."""
        return self.power_basis()[1]

    def _mul_ints(self, xs, ys):
        """Coordinates of the product of elements with integer coordinates."""
        if self.kind == "quadratic":
            (a0, a1), (b0, b1) = xs, ys
            return a0 * b0 + self.param * a1 * b1, a0 * b1 + a1 * b0
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
        return out


def k_matrix(field, m, twist=None):
    """Rational matrix of v -> m twist(v) on K^n, for a matrix m of field
    elements or rationals and a field automorphism twist (None: the
    identity), on flattened power-basis coordinates: column t of block
    (i, j) holds the coordinates of m[i][j] twist(theta^t)."""
    basis = field.power_basis()
    if twist is not None:
        basis = [twist(b) for b in basis]
    rows = []
    for mrow in m:
        blocks = [[(b * x).coords for b in basis] for x in mrow]
        rows += [[col[s] for cols in blocks for col in cols] for s in range(field.degree)]
    return rows


def k_entries(field, m):
    """The K-matrix of a K-linear rational matrix m, inverse to k_matrix
    without a twist: block (i, j) is multiplication by entry (i, j),
    whose coordinates are that block's first column."""
    deg = field.degree
    return tuple(
        tuple(field.element([m[i + s][j] for s in range(deg)]) for j in range(0, len(m[0]), deg))
        for i in range(0, len(m), deg)
    )


def _scaled_matrix(m):
    """(N, D) with m = N / D: D the lcm of m's denominators, N integral."""
    den = lcm(*[x.denominator for row in m for x in row])
    return [[x.numerator * (den // x.denominator) for x in row] for row in m], den


def quadratic_field(d):
    return GaloisField("quadratic", d)


def cyclotomic_field(n):
    return GaloisField("cyclotomic", n)


def _lowest(field, nums, den):
    """The element nums / den, den != 0, in lowest terms over a den >= 1."""
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    if g == 1:
        return FieldElement(field, tuple(nums), den)
    return FieldElement(field, tuple(v // g for v in nums), den // g)


@dataclass(frozen=True)
class FieldElement:
    """nums / den on the power basis: integer numerators over one
    denominator den >= 1 with gcd(den, *nums) = 1, zero as ((0, ...), 1),
    so that equal elements have equal nums and den."""

    field: GaloisField
    nums: tuple
    den: int

    @property
    def coords(self):
        """The coordinates as Fractions."""
        return tuple(Fraction(v, self.den) for v in self.nums)

    def __add__(self, other):
        o = self.field.coerce(other)
        den = lcm(self.den, o.den)
        s, t = den // self.den, den // o.den
        return _lowest(self.field, [a * s + b * t for a, b in zip(self.nums, o.nums)], den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self.field.coerce(other)

    def __rsub__(self, other):
        return self.field.coerce(other) - self

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.nums), self.den)

    def __mul__(self, other):
        o = self.field.coerce(other)
        return _lowest(self.field, self.field._mul_ints(self.nums, o.nums), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self.field.coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.field.coerce(other) * self.inverse()

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.field, self.nums, self.den))

    def inverse(self):
        """The product of the other Galois conjugates divided by the norm."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        _group, elems = galois_group(self.field)
        others = elems[1].apply(self)
        for g in elems[2:]:
            others = others * g.apply(self)
        n = self * others  # the norm, n.nums[0] / n.den
        return _lowest(self.field, [c * n.den for c in others.nums], others.den * n.nums[0])

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
        return not any(self.nums[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def __repr__(self):
        return f"FieldElement({self.field!r}, {list(self.coords)})"


@dataclass(frozen=True)
class GaloisGroupElement:
    """Field automorphism by its integer matrix on the power basis, as
    sparse rows ((j, entry), ...): column j holds the coordinates of the
    image of theta^j."""

    field: GaloisField
    rows: tuple

    def apply(self, x):
        if x.field is not self.field and x.field != self.field:
            raise ValueError("element of a different field")
        # the matrix and its inverse are integral, so the image keeps the
        # content of x.nums: still in lowest terms over x.den
        xs = x.nums
        nums = tuple(sum(v * xs[j] for j, v in row) for row in self.rows)
        return FieldElement(self.field, nums, x.den)

    def __call__(self, x):
        return self.apply(x)


def galois_group(field):
    """(group, elements) for Gal(K/Q), the identity first; abelian, order
    = degree.  Built once per field and kept on it."""
    if field._galois is not None:
        return field._galois
    if field.kind == "quadratic":
        images = [field.generator(), -field.generator()]
        table = [[0, 1], [1, 0]]
    else:
        n = field.param
        units = [u for u in range(1, n) if gcd(u, n) == 1]
        images = [field.generator() ** u for u in units]
        index = {u: i for i, u in enumerate(units)}
        table = [[index[(u * v) % n] for v in units] for u in units]
    elems = []
    for image in images:
        powers = [field.one()]
        for _ in range(1, field.degree):
            powers.append(powers[-1] * image)
        rows = tuple(
            tuple((j, p.nums[i]) for j, p in enumerate(powers) if p.nums[i])
            for i in range(field.degree)
        )
        elems.append(GaloisGroupElement(field, rows))
    field._galois = (FiniteGroup(table, check=False), tuple(elems))
    return field._galois


def norm(field, x):
    """Product of all Galois conjugates; a rational number."""
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
    if place != INFINITE_PLACE:
        place = int(place)
        if _factorize(place) != {place: 1}:
            raise ValueError(f"place {place} is not a prime")
    return _local_symbol(a, b, place)


def _local_symbol(a, b, p):
    """(a, b)_p for nonzero integers a, b and a checked place p."""
    if p == INFINITE_PLACE:
        return -1 if (a < 0 and b < 0) else 1
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
    primes, factored = {2}, set()
    for q in rationals:
        q = Fraction(q)
        for n in (abs(q.numerator), q.denominator):
            if n not in factored:
                factored.add(n)
                primes.update(_factorize(n))
    return sorted(primes) + [INFINITE_PLACE]


def is_norm_quadratic(d, c):
    """True iff c is a norm from Q(sqrt(d)): all local symbols (d, c)_v
    are +1 at the places dividing 2 d c and at infinity."""
    d = int(d)
    if d in (0, 1) or not _squarefree(d):
        raise ValueError("d must be squarefree and != 0, 1")
    if Fraction(c) == 0:
        raise ValueError("c must be nonzero")
    return brauer_class_quaternion(d, c).is_trivial()


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
    d = Fraction(d)
    c = Fraction(c)
    if c == 0 or d == 0:
        raise ValueError("nonzero arguments required")
    a, b = _as_integer_pair(d), _as_integer_pair(c)
    ramified = {v for v in relevant_places(d, c) if _local_symbol(a, b, v) == -1}
    return BrauerClass(frozenset(ramified))
