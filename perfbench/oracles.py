"""Reference answers the benchmark computes without importing galforms.

Every check here uses a different route from the library: known tables
for root systems, closed formulas for H^2 of abelian groups, small
brute-force enumerations over generator images, Hilbert symbols from
Jacobi symbols computed by quadratic reciprocity, and exact arithmetic in
quadratic and cyclotomic fields written out from the minimal polynomials.

Group elements follow the CLI's documented index order: C<n> by residue,
a product G x H by index g * |H| + h, and S<n> by lexicographically
sorted permutation tuples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import gcd

# --- root systems: known tables -------------------------------------------

def root_count(family, n):
    """|Phi| for the irreducible type family_n."""
    return {
        "A": n * (n + 1),
        "B": 2 * n * n,
        "C": 2 * n * n,
        "D": 2 * n * (n - 1),
        "E": {6: 72, 7: 126, 8: 240}.get(n),
        "F": 48,
        "G": 12,
    }[family]


def pi1_factors(family, n, isogeny):
    """Invariant factors of pi_1: trivial for simply connected, the
    centre of the simply connected group for adjoint."""
    if isogeny != "adjoint":
        return []
    if family == "A":
        return [n + 1]
    if family in "BC":
        return [2]
    if family == "D":
        return [4] if n % 2 else [2, 2]
    if family == "E":
        return {6: [3], 7: [2], 8: []}[n]
    return []


def cartan_det(family, n):
    """det of the Cartan matrix = order of the centre of the simply
    connected group."""
    out = 1
    for d in pi1_factors(family, n, "adjoint"):
        out *= d
    return out


def out_order(family, n):
    """|Out| = order of the Dynkin diagram automorphism group."""
    if family == "A":
        return 1 if n == 1 else 2
    if family == "D":
        return 6 if n == 4 else 2
    if family == "E" and n == 6:
        return 2
    return 1


def cartan(family, n):
    """Cartan matrix a_ij = <alpha_i^vee, alpha_j>, Bourbaki numbering
    (0-based), written out per family."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j], a[j][i] = aij, aji

    if family in "ABC":
        for i in range(n - 1):
            bond(i, i + 1)
        if family == "B":
            bond(n - 1, n - 2, -2, -1)   # alpha_n short
        if family == "C":
            bond(n - 2, n - 1, -2, -1)   # alpha_n long
    elif family == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif family == "E":
        for i, j in [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][: n - 2]:
            bond(i, j)
        bond(1, 3)
    elif family == "F":
        bond(0, 1)
        bond(2, 1, -2, -1)
        bond(2, 3)
    elif family == "G":
        bond(1, 0, -3, -1)
    return a


def diagram_symmetries(family, n, image_order):
    """A subgroup of diagram automorphisms of the given order, as node
    permutations; any subgroup of that order gives the same counts."""
    ident = tuple(range(n))
    if image_order == 1:
        return [ident]
    if family == "A":
        flip = tuple(n - 1 - i for i in range(n))
    elif family == "D" and n == 4:
        rot = (3, 1, 0, 2)          # 0 -> 3 -> 2 -> 0 on the legs
        rot2 = tuple(rot[rot[i]] for i in range(4))
        swap = (0, 1, 3, 2)
        if image_order == 2:
            return [ident, swap]
        if image_order == 3:
            return [ident, rot, rot2]
        return [ident, rot, rot2, swap,
                tuple(swap[rot[i]] for i in range(4)),
                tuple(swap[rot2[i]] for i in range(4))]
    elif family == "D":
        flip = tuple(range(n - 2)) + (n - 1, n - 2)
    elif family == "E" and n == 6:
        flip = (5, 1, 4, 3, 2, 0)
    else:
        raise ValueError(f"{family}{n} has no diagram symmetry of order {image_order}")
    return [ident, flip]


def coinvariant_reference(family, n, isogeny, image_order, height):
    """(node orbits, dominant coweights in the box, orbits on them) for a
    diagram-automorphism group of the given order acting on X^vee.

    X^vee has the simple coroots (simply connected) or the fundamental
    coweights (adjoint) as a basis, which the diagram group permutes, so
    the coinvariants are free on the node orbits."""
    perms = diagram_symmetries(family, n, image_order)
    nodes = {min(p[i] for p in perms) for i in range(n)}
    a = cartan(family, n)
    points = []
    for x in product(range(height + 1), repeat=n):
        if isogeny == "adjoint" or all(
            sum(a[i][j] * x[i] for i in range(n)) >= 0 for j in range(n)
        ):
            points.append(x)
    seen = set()
    orbits = 0
    for x in points:
        if x in seen:
            continue
        orbits += 1
        for p in perms:
            y = [0] * n
            for i in range(n):
                y[p[i]] = x[i]
            seen.add(tuple(y))
    return len(nodes), len(points), orbits


def int_det(rows):
    """Determinant of a square integer matrix by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return int(det)


# --- finite groups as lists of permutations ---------------------------------

def _compose(p, q):
    """p after q."""
    return tuple(p[i] for i in q)


def _inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_group(spec):
    """Elements of the group named by a spec (C<n>, S<n>, products with
    'x'), as permutations on disjoint blocks, in CLI index order."""
    factors = []
    for part in spec.split("x"):
        n = int(part[1:])
        if part[0] == "C":
            factors.append([tuple((i + k) % n for i in range(n)) for k in range(n)])
        else:
            factors.append(sorted(permutations(range(n))))
    elements = [()]
    for fac in factors:
        elements = [a + tuple(len(a) + x for x in b) for a in elements for b in fac]
    return elements


def gamma_presentation(spec):
    """(number of generators, relation check on their images) for the
    source groups used: S3 = <s, t | s^2, t^3, s t s^-1 = t^-1>, and
    products of cyclic groups, one generator of order n_i per factor,
    all commuting."""
    if spec == "S3":
        def relations(images, mul, inv, one):
            hs, ht = images
            return (mul(hs, hs) == one and mul(ht, mul(ht, ht)) == one
                    and mul(hs, mul(ht, inv(hs))) == inv(ht))

        return 2, relations
    orders = [int(p[1:]) for p in spec.split("x")]

    def relations(images, mul, inv, one):
        for h, o in zip(images, orders):
            x = one
            for _ in range(o):
                x = mul(x, h)
            if x != one:
                return False
        return all(mul(a, b) == mul(b, a) for a in images for b in images)

    return len(orders), relations


def hom_classes(gamma_spec, target):
    """(|Hom(Gamma, H)|, number of H-conjugacy classes of homomorphisms),
    H given as a list of permutations, by enumerating generator images."""
    ngens, relations = gamma_presentation(gamma_spec)
    one = tuple(range(len(target[0])))
    homs = set()
    for images in product(target, repeat=ngens):
        if relations(images, _compose, _inverse, one):
            homs.add(images)
    classes = 0
    seen = set()
    for h in sorted(homs):
        if h in seen:
            continue
        classes += 1
        for c in target:
            ci = _inverse(c)
            seen.add(tuple(_compose(c, _compose(x, ci)) for x in h))
    return len(homs), classes


def out_group(family, n):
    """Out as a permutation group of its own order."""
    order = out_order(family, n)
    return perm_group({1: "C1", 2: "C2", 6: "S3"}[order])


# --- abelian group invariants ---------------------------------------------

def _prime_powers(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    if n > 1:
        out.append(n)
    return out


def elementary_divisors(orders):
    """Sorted prime-power decomposition of a product of cyclic groups."""
    out = []
    for d in orders:
        out.extend(_prime_powers(d))
    return sorted(out)


def h2_reference(gamma_spec, moduli, inverting):
    """Cyclic orders of H^2(Gamma, M) for M = sum of Z/m, by closed formula.

    Trivial action on an abelian Gamma = sum Z/n_i:
        sum_i Z/(n_i, m) + sum_{i<j} Z/(n_i, n_j, m);
    trivial action on S3: Z/(2, m); a cyclic Gamma of even order whose
    generator acts by -1: Z/(2, m) (Tate: M^Gamma / N M with N = 0)."""
    out = []
    for m in moduli:
        if inverting or gamma_spec == "S3":
            out.append(gcd(2, m))
            continue
        ns = [int(p[1:]) for p in gamma_spec.split("x")]
        out += [gcd(n, m) for n in ns]
        out += [gcd(gcd(ns[i], ns[j]), m)
                for i in range(len(ns)) for j in range(i + 1, len(ns))]
    return [d for d in out if d > 1]


def group_table(spec):
    elements = perm_group(spec)
    index = {e: i for i, e in enumerate(elements)}
    return [[index[_compose(a, b)] for b in elements] for a in elements]


def is_normalized_two_cocycle(spec, moduli, signs, rep):
    """rep: list of [a, b, values]; signs[g] = +1/-1 action of g."""
    table = group_table(spec)
    n = len(table)
    z = {(a, b): vals for a, b, vals in rep}
    if len(z) != n * n:
        return False
    for k, m in enumerate(moduli):
        if any(z[(0, x)][k] % m or z[(x, 0)][k] % m for x in range(n)):
            return False
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    v = (signs[a] * z[(b, c)][k] - z[(table[a][b], c)][k]
                         + z[(a, table[b][c])][k] - z[(a, b)][k])
                    if v % m:
                        return False
    return True


# --- Hilbert symbols by reciprocity ----------------------------------------

def jacobi(a, n):
    """Jacobi symbol (a/n), n odd positive, by quadratic reciprocity."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _square_class(q):
    q = Fraction(q)
    return q.numerator * q.denominator


def _split_p(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def hilbert(a, b, place):
    """(a, b)_v over Q."""
    a, b = _square_class(a), _square_class(b)
    if place == "inf":
        return -1 if a < 0 and b < 0 else 1
    p = place
    alpha, u = _split_p(a, p)
    beta, v = _split_p(b, p)
    if p == 2:
        e = lambda x: ((x - 1) // 2) % 2
        w = lambda x: ((x * x - 1) // 8) % 2
        return -1 if (e(u) * e(v) + alpha * w(v) + beta * w(u)) % 2 else 1
    sign = -1 if (alpha * beta * ((p - 1) // 2)) % 2 else 1
    if beta % 2:
        sign *= jacobi(u, p)
    if alpha % 2:
        sign *= jacobi(v, p)
    return sign


def small_primes(n):
    """Prime divisors of |n| by trial division (small inputs only)."""
    n = abs(n)
    out = set()
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def ramified_places(a, b, primes):
    """Sorted places where (a, b) ramifies; primes must contain every
    prime dividing a numerator or denominator of a or b."""
    places = sorted(set(primes) | {2})
    out = [p for p in places if hilbert(a, b, p) == -1]
    if hilbert(a, b, "inf") == -1:
        out.append("inf")
    return out


def is_prime(n):
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def small_norm_solution(d, c, bound):
    """True iff x0^2 - d x1^2 - c x2^2 + d c x3^2 = 0 has a nonzero
    solution with every |x_i| <= bound (integers d, c)."""
    squares = [x * x for x in range(bound + 1)]
    for x2, x3 in product(range(bound + 1), repeat=2):
        rest = c * squares[x2] - d * c * squares[x3]
        for x1 in range(bound + 1):
            t = rest + d * squares[x1]
            if t >= 0 and t in squares[: bound + 1] and (x1 or x2 or x3 or t):
                return True
    return False


# --- exact number fields ----------------------------------------------------

CYCLOTOMIC_POLY = {          # Phi_n, low degree first, monic
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
}


class Field:
    """Q(sqrt(d)) or Q(zeta_n) on the power basis; elements are tuples of
    Fractions.  Galois elements are indexed like the library's: identity
    then sigma for quadratic fields, units mod n in increasing order for
    cyclotomic ones."""

    def __init__(self, kind, param):
        self.kind, self.param = kind, param
        if kind == "quadratic":
            self.deg = 2
            self.units = [1, -1]
        else:
            poly = CYCLOTOMIC_POLY[param]
            self.deg = len(poly) - 1
            self.units = [u for u in range(1, param) if gcd(u, param) == 1]
            self._powers = []     # zeta^k in coordinates, k < 2 * n
            cur = [Fraction(1)] + [Fraction(0)] * (self.deg - 1)
            for _ in range(2 * param):
                self._powers.append(tuple(cur))
                top = cur[-1]
                cur = [Fraction(0)] + cur[:-1]
                for i in range(self.deg):
                    cur[i] -= top * poly[i]

    def elt(self, coords):
        return tuple(Fraction(c) for c in coords)

    def scalar(self, q):
        return (Fraction(q),) + (Fraction(0),) * (self.deg - 1)

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(a - b for a, b in zip(x, y))

    def mul(self, x, y):
        if self.kind == "quadratic":
            d = self.param
            return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])
        out = [Fraction(0)] * self.deg
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    if b:
                        ab = a * b
                        for k, c in enumerate(self._powers[i + j]):
                            if c:
                                out[k] += ab * c
        return tuple(out)

    def act(self, g, x):
        """Galois element with index g applied to x."""
        u = self.units[g]
        if self.kind == "quadratic":
            return (x[0], u * x[1])
        out = [Fraction(0)] * self.deg
        for i, a in enumerate(x):
            if a:
                for k, c in enumerate(self._powers[(i * u) % self.param]):
                    out[k] += a * c
        return tuple(out)

    def norm(self, x):
        out = self.one()
        for g in range(len(self.units)):
            out = self.mul(out, self.act(g, x))
        return out[0]

    def inv(self, x):
        """x^-1 = (product of the other conjugates) / N(x)."""
        out = self.one()
        for g in range(1, len(self.units)):
            out = self.mul(out, self.act(g, x))
        n = self.norm(x)
        return tuple(c / n for c in out)

    def group_mul(self, g, h):
        if self.kind == "quadratic":
            return g ^ h
        return self.units.index((self.units[g] * self.units[h]) % self.param)

    def group_inv(self, g):
        return next(h for h in range(len(self.units)) if self.group_mul(g, h) == 0)

    # --- matrices over the field ---

    def mat_mul(self, a, b):
        n, k, m = len(a), len(b), len(b[0])
        out = []
        for i in range(n):
            row = []
            for j in range(m):
                s = self.zero()
                for t in range(k):
                    s = self.add(s, self.mul(a[i][t], b[t][j]))
                row.append(s)
            out.append(row)
        return out

    def mat_act(self, g, a):
        return [[self.act(g, x) for x in row] for row in a]

    def mat_vec(self, a, v):
        return [self.mul_sum(row, v) for row in a]

    def mul_sum(self, row, v):
        s = self.zero()
        for x, y in zip(row, v):
            s = self.add(s, self.mul(x, y))
        return s


def unipotent_inverse(field, a, lower):
    """Inverse of a unit lower or upper triangular matrix."""
    n = len(a)
    inv = [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]
    order = range(n) if lower else range(n - 1, -1, -1)
    for j in range(n):
        for i in order:
            if i == j:
                continue
            if (lower and i < j) or (not lower and i > j):
                continue
            s = field.zero()
            ks = range(j, i) if lower else range(i + 1, j + 1)
            for k in ks:
                s = field.add(s, field.mul(a[i][k], inv[k][j]))
            inv[i][j] = field.sub(field.zero(), s)
    return inv


def rational_rank(rows):
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def quaternion_product(d, c, x, y):
    """(p + q e)(r + s e) in the quaternion algebra with e^2 = c and
    e lam = sigma(lam) e over Q(sqrt(d)); each argument a pair of
    coordinate pairs."""
    f = Field("quadratic", d)
    (p, q), (r, s) = x, y
    first = f.add(f.mul(p, r), f.mul(f.mul(q, f.act(1, s)), f.scalar(c)))
    second = f.add(f.mul(p, s), f.mul(q, f.act(1, r)))
    return first, second
