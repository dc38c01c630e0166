"""Number fields, Galois groups, Hilbert symbols, Brauer classes.

The local-solvability oracle decides (a,b)_p by brute force modulo a
sufficiently high prime power (Hensel bound), independently of the
closed-form symbol formulas.
"""

import random
from fractions import Fraction

import pytest

from galforms.fields import (
    INFINITE_PLACE,
    BrauerClass,
    brauer_class_quaternion,
    cyclotomic_field,
    cyclotomic_polynomial,
    euler_phi,
    galois_group,
    hilbert_symbol,
    is_norm_quadratic,
    norm,
    quadratic_field,
    relevant_places,
    RATIONALS,
)
from galforms.groups import FiniteGroup


# --- field arithmetic -----------------------------------------------------

def test_quadratic_arithmetic():
    k = quadratic_field(-1)
    i = k.generator()
    assert i * i == k.from_rational(-1)
    assert (1 + i) * (1 - i) == k.from_rational(2)
    x = k.element([Fraction(1, 2), Fraction(3)])
    assert x * x.inverse() == k.one()
    assert (x ** 3) == x * x * x


def test_cyclotomic_arithmetic():
    for n in (3, 4, 5, 8, 12):
        k = cyclotomic_field(n)
        assert k.degree == euler_phi(n)
        z = k.generator()
        assert z ** n == k.one()
        assert all(z ** j != k.one() for j in range(1, n))
        x = z + k.from_rational(2)
        assert x * x.inverse() == k.one()


def dense_product(field, x, y):
    """x * y by Fraction convolution and reduction by the powers of the
    generator, every product Fraction by Fraction."""
    m = field.degree
    conv = [Fraction(0)] * (2 * m - 1)
    for i, a in enumerate(x.coords):
        for j, b in enumerate(y.coords):
            conv[i + j] += a * b
    if field.kind == "quadratic":
        return (conv[0] + field.param * conv[2], conv[1])
    phi = [Fraction(c) for c in cyclotomic_polynomial(field.param)]
    for k in range(2 * m - 2, m - 1, -1):
        top, conv[k] = conv[k], Fraction(0)
        for i in range(m):
            conv[k - m + i] -= top * phi[i]
    return tuple(conv[:m])


def random_element(rng, field):
    return field.element(
        [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7])) for _ in range(field.degree)]
    )


@pytest.mark.parametrize(
    "field",
    [quadratic_field(-1), quadratic_field(-15), quadratic_field(10), cyclotomic_field(3),
     cyclotomic_field(5), cyclotomic_field(7), cyclotomic_field(8), cyclotomic_field(9),
     cyclotomic_field(12), cyclotomic_field(15)],
    ids=repr,
)
def test_sparse_kernels_match_dense_fraction_formulas(field):
    """The integer kernels (products, Galois action) agree with the dense
    Fraction formulas, zero coordinates and denominators included."""
    rng = random.Random(f"kernels-{field!r}")
    _group, elems = galois_group(field)
    samples = [random_element(rng, field) for _ in range(12)]
    samples += [field.zero(), field.one(), field.generator()]
    for x in samples:
        for y in samples[:6]:
            product = x * y
            assert product.coords == dense_product(field, x, y)
            assert all(type(c) is Fraction for c in product.coords)
        for g in elems:
            image = g.apply(x)
            assert image.coords == tuple(
                sum((row[j] * x.coords[j] for j in range(field.degree)), Fraction(0))
                for row in g.matrix
            )
            assert all(type(c) is Fraction for c in image.coords)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(5) == [1, 1, 1, 1, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_nonsquare_required():
    with pytest.raises(ValueError):
        quadratic_field(4)
    with pytest.raises(ValueError):
        quadratic_field(0)


# --- Galois groups --------------------------------------------------------

def test_quadratic_galois_group():
    k = quadratic_field(2)
    group, elems = galois_group(k)
    assert group.order == 2
    conj = elems[1]
    r2 = k.generator()
    assert conj(r2) == -r2
    assert conj(conj(r2)) == r2


def test_cyclotomic_galois_group():
    for n, order in ((3, 2), (4, 2), (5, 4), (8, 4), (12, 4)):
        k = cyclotomic_field(n)
        group, elems = galois_group(k)
        assert group.order == order
        z = k.generator()
        # each element sends zeta to a power of zeta and is an automorphism
        for g, el in enumerate(elems):
            img = el(z)
            assert img ** n == k.one()
            x = z + k.from_rational(3)
            y = z * z - k.from_rational(1)
            assert el(x * y) == el(x) * el(y)
            assert el(x + y) == el(x) + el(y)
        # group law matches composition
        for a in group.elements():
            for b in group.elements():
                ab = group.table[a][b]
                assert elems[a](elems[b](z)) == elems[ab](z)


def test_cyclotomic_galois_tables_are_groups():
    """galois_group builds the table of (Z/n)^x unchecked; the checked
    FiniteGroup constructor accepts every one of them."""
    for n in range(3, 31):
        group, _ = galois_group(cyclotomic_field(n))
        assert FiniteGroup(group.table).order == euler_phi(n), n


def test_norm():
    k = quadratic_field(-1)
    x = k.element([3, 4])
    assert norm(k, x) == Fraction(25)
    k2 = quadratic_field(2)
    assert norm(k2, k2.element([2, 1])) == Fraction(2)
    z5 = cyclotomic_field(5)
    assert norm(z5, z5.generator()) == Fraction(1)
    assert norm(z5, z5.generator() - z5.one()) == Fraction(5)


# --- Hilbert symbols ------------------------------------------------------

def _vp(n, p):
    n = abs(n)
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def _squarefree_part(n):
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        while n % d == 0:
            out *= d
            n //= d
        d += 1
    return sign * out * n


def local_solvable_oracle(a, b, p):
    """Brute force: does z^2 = a x^2 + b y^2 have a primitive solution
    modulo p^m for m past the Hensel bound?  a, b nonzero integers.
    Square factors are stripped first (the symbol only depends on square
    classes), keeping the modulus small."""
    a = _squarefree_part(a)
    b = _squarefree_part(b)
    m = _vp(4 * a * b, p) + (3 if p == 2 else 1)
    mod = p ** m
    squares = {}
    for z in range(mod):
        squares.setdefault(z * z % mod, []).append(z)
    for x in range(mod):
        for y in range(mod):
            t = (a * x * x + b * y * y) % mod
            if t not in squares:
                continue
            for z in squares[t]:
                if x % p or y % p or z % p:
                    return True
    return False


def test_hilbert_known_values():
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, INFINITE_PLACE) == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(-1, -1, 5) == 1
    assert hilbert_symbol(2, 2, 2) == 1
    assert hilbert_symbol(-1, 3, 3) == -1
    assert hilbert_symbol(-1, 3, 2) == -1
    assert hilbert_symbol(2, 3, 3) == -1
    assert hilbert_symbol(5, 2, 5) == -1
    assert hilbert_symbol(1, 7, 7) == 1


def test_hilbert_against_local_oracle():
    rng = random.Random(12)
    pairs = set()
    while len(pairs) < 30:
        a = rng.randint(-15, 15)
        b = rng.randint(-15, 15)
        if a and b:
            pairs.add((a, b))
    for a, b in sorted(pairs):
        for p in (2, 3, 5, 7):
            got = hilbert_symbol(a, b, p)
            want = 1 if local_solvable_oracle(a, b, p) else -1
            assert got == want, (a, b, p)
        want_inf = -1 if (a < 0 and b < 0) else 1
        assert hilbert_symbol(a, b, INFINITE_PLACE) == want_inf


def test_hilbert_bilinearity_and_symmetry():
    rng = random.Random(5)
    for _ in range(100):
        a = rng.choice([x for x in range(-20, 21) if x])
        b = rng.choice([x for x in range(-20, 21) if x])
        c = rng.choice([x for x in range(-20, 21) if x])
        for p in (2, 3, 5, INFINITE_PLACE):
            assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
            assert (
                hilbert_symbol(a * c, b, p)
                == hilbert_symbol(a, b, p) * hilbert_symbol(c, b, p)
            )
            # squares are trivial
            assert hilbert_symbol(a * a, b, p) == 1


def test_product_formula():
    rng = random.Random(99)
    for _ in range(200):
        a = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 9))
        b = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 9))
        places = relevant_places(a, b)
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)


def test_is_norm_quadratic():
    assert not is_norm_quadratic(-1, -1)
    assert is_norm_quadratic(-1, 2)       # 2 = 1^2 + 1^2
    assert is_norm_quadratic(-1, 5)       # 5 = 1 + 4
    assert not is_norm_quadratic(-1, 3)
    assert is_norm_quadratic(2, 2)        # 2 = 4 - 2
    assert is_norm_quadratic(2, -1)       # -1 = 1 - 2
    assert not is_norm_quadratic(3, -1)
    assert is_norm_quadratic(5, -1)       # -1 = 4 - 5
    assert is_norm_quadratic(-3, Fraction(1, 4))


def test_is_norm_agrees_with_explicit_norms():
    rng = random.Random(31)
    for d in (-1, 2, -3, 5, -7):
        k = quadratic_field(d)
        for _ in range(20):
            x = k.element([Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6))])
            if not x:
                continue
            assert is_norm_quadratic(d, norm(k, x)), (d, x)


# --- Brauer classes -------------------------------------------------------

def test_brauer_class_even_and_arithmetic():
    h = brauer_class_quaternion(-1, -1)
    assert h.sorted_places() == [2, INFINITE_PLACE]
    assert not h.is_trivial()
    assert (h + h).is_trivial()
    split = brauer_class_quaternion(2, 2)
    assert split.is_trivial()
    with pytest.raises(ValueError):
        BrauerClass(frozenset([2]))  # odd number of ramified places


def test_brauer_class_matches_symbols():
    rng = random.Random(8)
    for _ in range(50):
        d = rng.choice([x for x in range(-15, 16) if x])
        c = rng.choice([x for x in range(-15, 16) if x])
        if int(Fraction(d).numerator) in (0,):
            continue
        try:
            cls = brauer_class_quaternion(d, c)
        except ValueError:
            # d a perfect square: the "extension" is split, skip
            continue
        for v in relevant_places(Fraction(d), Fraction(c)):
            expected = hilbert_symbol(d, c, v)
            assert (v in cls.ramified_places) == (expected == -1), (d, c, v)


def test_tensor_is_symmetric_difference():
    a = brauer_class_quaternion(-1, -1)
    b = brauer_class_quaternion(-1, 3)
    c = a + b
    assert c.ramified_places == a.ramified_places.symmetric_difference(b.ramified_places)


def test_rationals_field():
    assert RATIONALS.degree == 1
    with pytest.raises(ValueError):
        galois_group(RATIONALS)
