"""Crossed-product algebras: construction, rejection of invalid tables,
central simplicity, splitting, coboundary isomorphisms."""

import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from galforms import qlinalg
from galforms.cohomology import (
    GaloisAction,
    KxCocycle,
    is_two_cocycle_kx,
    kx_coboundary_of,
    quadratic_cocycle,
    trivial_kx_cocycle,
)
from galforms.crossed import (
    CrossedProductAlgebra,
    coboundary_isomorphism,
    cocycle_sum_class_check,
    find_zero_divisor,
)
from galforms.fields import cyclotomic_field, is_norm_quadratic, quadratic_field
from oracles import algebra_one, center_all_elements, is_two_cocycle_kx_by_elements


SQUAREFREE_D = [d for d in range(-30, 31) if d not in (0, 1) and all(d % (p * p) for p in (2, 3, 5))]


def quaternion_algebra(d, c):
    action = GaloisAction.of(quadratic_field(d))
    return CrossedProductAlgebra(action, quadratic_cocycle(action, c))


# --- construction ---------------------------------------------------------

def test_hamilton_relations():
    h = quaternion_algebra(-1, -1)
    i = h.basis_element(h.group.identity, h.field.generator())
    e = h.basis_element(1 - h.group.identity)
    one = algebra_one(h)
    assert i * i == -one
    assert e * e == -one
    assert e * i == -(i * e)
    assert (one + e) * (one + e) == e * Fraction(2)
    assert h.dim == 4
    assert h.is_quaternion()
    assert h.presenting_pair() == (-1, Fraction(-1))


def test_split_algebra_has_zero_divisor():
    a = quaternion_algebra(2, 2)
    assert a.is_split_quaternion()
    found = find_zero_divisor(a)
    assert found is not None
    x, y = found
    assert x and y and not (x * y)


def test_division_algebra_has_no_small_zero_divisor():
    h = quaternion_algebra(-1, -1)
    assert not h.is_split_quaternion()
    assert find_zero_divisor(h, bound=4) is None


def test_matrix_algebra_center_and_trace():
    a = quaternion_algebra(2, 1)  # split: c = 1 is a norm
    assert a.is_central_simple()
    assert a.is_split_quaternion()
    one = a.group.identity * a.deg
    gram, den = a.trace_form_gram()
    assert gram[one][one] == 4 * den


def test_cyclotomic_crossed_product():
    action = GaloisAction.of(cyclotomic_field(5))
    a = CrossedProductAlgebra(action, trivial_kx_cocycle(action))
    assert a.dim == 16
    assert len(a.center_basis()) == 1
    # e_g * lam = g(lam) * e_g
    z = a.field.generator()
    g = next(
        x
        for x in a.group.elements()
        if a.group.element_order(x) == a.group.order
    )
    lhs = a.basis_element(g) * a.basis_element(a.group.identity, z)
    rhs = a.basis_element(g, action.apply(g, z))
    assert lhs == rhs


# --- random valid / invalid tables ----------------------------------------

def random_primitive(rng, field, group):
    b = {group.identity: field.one()}
    for g in group.elements():
        if g == group.identity:
            continue
        x = field.zero()
        while not x:
            x = field.element(
                [Fraction(rng.randint(-2, 2)) for _ in range(field.degree)]
            )
        b[g] = x
    return b


def test_random_valid_tables_accepted():
    rng = random.Random(17)
    fields = [quadratic_field(-1), quadratic_field(2), cyclotomic_field(3)]
    count = 0
    while count < 50:
        field = rng.choice(fields)
        action = GaloisAction.of(field)
        base = quadratic_cocycle(action, rng.choice([1, -1, 2, 3, -2]))
        b = random_primitive(rng, field, action.group)
        zeta = base * kx_coboundary_of(action, b)
        alg = CrossedProductAlgebra(action, zeta)
        assert alg.dim == 4
        assert alg.is_central_simple()
        count += 1


def test_random_invalid_tables_rejected_with_witness():
    rng = random.Random(23)
    field = quadratic_field(-1)
    action = GaloisAction.of(field)
    count = 0
    while count < 50:
        base = quadratic_cocycle(action, rng.choice([1, -1, 2, 3, -2]))
        b = random_primitive(rng, field, action.group)
        zeta = base * kx_coboundary_of(action, b)
        # perturb one entry so the cocycle identity fails
        values = dict(zeta.values)
        key = rng.choice(list(values))
        scale = field.element(
            [Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 3))]
        )
        values[key] = values[key] * scale + field.from_rational(
            rng.choice([1, 2, 5])
        )
        bad = KxCocycle(action, values)
        if is_two_cocycle_kx(bad):
            continue  # extremely unlikely; perturbation landed on a cocycle
        with pytest.raises(ValueError) as err:
            CrossedProductAlgebra(action, bad)
        assert "triple" in str(err.value)
        count += 1


def test_split_matches_norm_condition():
    rng = random.Random(4)
    seen = set()
    while len(seen) < 40:
        d = rng.choice(SQUAREFREE_D)
        c = rng.randint(-30, 30)
        if not c:
            continue
        if (d, c) in seen:
            continue
        seen.add((d, c))
        a = quaternion_algebra(d, c)
        assert a.is_central_simple(), (d, c)
        split = a.is_split_quaternion()
        assert split == is_norm_quadratic(d, c)
        witness = find_zero_divisor(a, bound=6)
        if witness is not None:
            assert split, (d, c)


def test_the_split_test_factors_d_once(monkeypatch):
    """The field checked that d is squarefree when it was built, so the
    split test factors d, c and their denominator once each;
    999999999989 is a prime just below the cap."""
    import galforms.fields as fields

    a = quaternion_algebra(999999999989, 3)
    calls = []

    def counted(n, factorize=fields._factorize):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(fields, "_factorize", counted)
    a.is_split_quaternion()
    monkeypatch.undo()
    assert sorted(calls) == [1, 3, 999999999989]


# --- isomorphisms ---------------------------------------------------------

def test_coboundary_isomorphism_basic():
    field = quadratic_field(-1)
    action = GaloisAction.of(field)
    src = CrossedProductAlgebra(action, quadratic_cocycle(action, -1))
    b = {action.group.identity: field.one(), 1 - action.group.identity: field.from_rational(2)}
    tgt = CrossedProductAlgebra(action, src.cocycle * kx_coboundary_of(action, b))
    assert tgt.presenting_pair() == (-1, Fraction(-4))
    iso = coboundary_isomorphism(src, tgt, b)
    assert iso.apply(algebra_one(src)) == algebra_one(tgt)
    x = src.element([field.element([1, 2]), field.element([3, -1])])
    y = src.element([field.element([0, 1]), field.element([1, 1])])
    assert iso.apply(x * y) == iso.apply(x) * iso.apply(y)


def test_coboundary_isomorphism_rejects_wrong_primitive():
    field = quadratic_field(-1)
    action = GaloisAction.of(field)
    src = CrossedProductAlgebra(action, quadratic_cocycle(action, -1))
    tgt = CrossedProductAlgebra(action, quadratic_cocycle(action, -4))
    bad = {action.group.identity: field.one(), 1 - action.group.identity: field.from_rational(3)}
    with pytest.raises(ValueError):
        coboundary_isomorphism(src, tgt, bad)


def test_isomorphism_chain_composes_coherently():
    rng = random.Random(41)
    field = quadratic_field(2)
    action = GaloisAction.of(field)
    for _ in range(5):
        a0 = CrossedProductAlgebra(action, quadratic_cocycle(action, -1))
        chain = [a0]
        isos = []
        for _ in range(3):
            b = random_primitive(rng, field, action.group)
            src = chain[-1]
            tgt = CrossedProductAlgebra(
                action, src.cocycle * kx_coboundary_of(action, b)
            )
            isos.append(coboundary_isomorphism(src, tgt, b))
            chain.append(tgt)
        total = isos[0]
        for step in isos[1:]:
            total = step.compose(total)
        x = a0.element([field.element([1, 1]), field.element([2, -1])])
        via_steps = x
        for step in isos:
            via_steps = step.apply(via_steps)
        assert total.apply(x) == via_steps
        # all algebras in the chain share one Brauer class
        for alg in chain[1:]:
            assert cocycle_sum_class_check(
                a0.cocycle, trivial_kx_cocycle(action), alg.cocycle
            )


def test_cocycle_sum_class_check_examples():
    action = GaloisAction.of(quadratic_field(-1))
    minus = quadratic_cocycle(action, -1)
    three = quadratic_cocycle(action, 3)
    # (-1)*(3) = -3 ~ -3; and (-1)*(-1) = 1 ~ trivial
    assert cocycle_sum_class_check(minus, three, quadratic_cocycle(action, -3))
    assert cocycle_sum_class_check(minus, minus, trivial_kx_cocycle(action))
    assert not cocycle_sum_class_check(minus, trivial_kx_cocycle(action), three)


# --- the product table against the dim^3 definitions ----------------------
#
# Reference definitions from fresh products: the center from commutators
# with every k-basis element, the trace from the left-multiplication matrix.

def k_coords(x):
    """k-coordinates of an algebra element, in the order of k_basis."""
    out = []
    for c in x.kcoeffs:
        out.extend(c.coords)
    return out


def left_multiplication_matrix(alg, x):
    """k-matrix of y -> x*y on the k-basis (columns = images)."""
    cols = [k_coords(alg.multiply(x, b)) for b in alg.k_basis()]
    return [[cols[j][i] for j in range(alg.dim)] for i in range(alg.dim)]


def center_reference(alg):
    basis = alg.k_basis()
    rows = []
    for b in basis:
        lb = left_multiplication_matrix(alg, b)
        rb_cols = [k_coords(alg.multiply(c, b)) for c in basis]
        for i in range(alg.dim):
            rows.append([lb[i][j] - rb_cols[j][i] for j in range(alg.dim)])
    return qlinalg.kernel(rows)


def trace_reference(alg, x):
    mat = left_multiplication_matrix(alg, x)
    return sum(mat[i][i] for i in range(alg.dim))


def trace_form_reference(alg):
    basis = alg.k_basis()
    return [[trace_reference(alg, alg.multiply(bi, bj)) for bj in basis] for bi in basis]


def cyclic_cocycle(action, c):
    """zeta(g^i, g^j) = c if i + j >= m else 1, for a generator g of a
    cyclic Gamma of order m; the trivial cocycle when Gamma is not cyclic."""
    group = action.group
    m = group.order
    g = next((x for x in group.elements() if group.element_order(x) == m), None)
    if g is None:
        return trivial_kx_cocycle(action)
    exps, x = {}, group.identity
    for e in range(m):
        exps[x] = e
        x = group.table[x][g]
    values = {
        (a, b): action.field.from_rational(c if exps[a] + exps[b] >= m else 1)
        for a in group.elements()
        for b in group.elements()
    }
    return KxCocycle(action, values)


def random_algebra(rng, field, c=None):
    """The crossed product of cyclic_cocycle(c), c random if not given,
    times the coboundary of a random primitive."""
    action = GaloisAction.of(field)
    base = cyclic_cocycle(action, rng.choice([-3, -1, 2, 5, Fraction(3, 2)]) if c is None else c)
    b = random_primitive(rng, field, action.group)
    return CrossedProductAlgebra(action, base * kx_coboundary_of(action, b))


@pytest.mark.parametrize(
    "field, count",
    [(quadratic_field(-1), 2), (quadratic_field(5), 2), (cyclotomic_field(3), 2),
     (cyclotomic_field(4), 2), (cyclotomic_field(5), 1), (cyclotomic_field(8), 1)],
    ids=repr,
)
def test_structure_matches_reference_definitions(field, count):
    rng = random.Random(f"structure-{field!r}")
    for _ in range(count):
        alg = random_algebra(rng, field)
        assert [k_coords(z) for z in alg.center_basis()] == center_reference(alg)
        gram, den = alg.trace_form_gram()
        assert [[Fraction(x, den) for x in row] for row in gram] == trace_form_reference(alg)
        assert alg.is_central_simple()


def products_reference(alg):
    """The table by its definition: multiply every pair of k-basis
    elements."""
    basis = alg.k_basis()
    return [[k_coords(alg.multiply(x, y)) for y in basis] for x in basis]


@pytest.mark.parametrize(
    "field",
    [quadratic_field(-1), quadratic_field(7), cyclotomic_field(3), cyclotomic_field(4),
     cyclotomic_field(5), cyclotomic_field(8), cyclotomic_field(12)],
    ids=repr,
)
def test_products_match_multiplication(field):
    """b_(a,s) b_(b,t) = theta^s a(theta^t) zeta(a, b) e_ab against
    multiply() over the k-basis, on random cohomologous cocycles (n = 12
    has the non-cyclic group C2 x C2): each integer row of the table over
    its denominator L is the product, and L is the lcm of the cocycle's
    denominators, above 1 for one of the two cocycles at least (the
    second has c = 5/97 when Gamma is cyclic)."""
    rng = random.Random(f"products-{field!r}")
    dens = []
    for c in (None, Fraction(5, 97)):
        alg = random_algebra(rng, field, c)
        table, den = alg._products()
        assert [[[Fraction(x, den) for x in row] for row in ti] for ti in table] == products_reference(alg)
        assert all(type(x) is int for ti in table for row in ti for x in row)
        assert den == lcm(*[x.denominator for zeta in alg.cocycle.values.values() for x in zeta.coords])
        dens.append(den)
    assert max(dens) > 1, dens


def test_normalized_cocycles_stay_cocycles():
    rng = random.Random(29)
    for field in (quadratic_field(-1), quadratic_field(3), cyclotomic_field(5), cyclotomic_field(8)):
        action = GaloisAction.of(field)
        for _ in range(3):
            base = cyclic_cocycle(action, rng.choice([-1, 2, Fraction(-5, 3)]))
            b = random_primitive(rng, field, action.group)
            b[action.group.identity] = field.from_rational(rng.choice([2, -3, Fraction(1, 2)]))
            zeta = base * kx_coboundary_of(action, b)
            assert is_two_cocycle_kx(zeta)
            assert not zeta.is_normalized()
            normal = zeta.normalized()
            assert normal.is_normalized()
            assert is_two_cocycle_kx(normal)


# --- the zero-divisor search against a Fraction reference -----------------

def find_zero_divisor_reference(algebra, bound):
    """The walk of the whole box [-B, B]^4 in product order, the reduced
    norm N(x0, x1) - c N(x2, x3), N(a, b) = a^2 - d b^2, taken over Q."""
    d, c = algebra.presenting_pair()
    rng = range(-bound, bound + 1)
    for x0, x1, x2, x3 in product(rng, repeat=4):
        if not (x0 or x1 or x2 or x3):
            continue
        if x0 * x0 - d * x1 * x1 == c * (x2 * x2 - d * x3 * x3):
            x = algebra.element(
                [algebra.field.element([x0, x1]), algebra.field.element([x2, x3])]
            )
            conj = algebra.element(
                [algebra.field.element([x0, -x1]), algebra.field.element([-x2, -x3])]
            )
            if x and conj and not algebra.multiply(x, conj):
                return x, conj
    return None


@pytest.mark.parametrize(
    "d, c",
    [(2, Fraction(1, 2)), (-1, Fraction(3, 2)), (-1, Fraction(5, 2)), (2, 2), (3, Fraction(-2, 3)), (-1, -1),
     (2, 97), (14, -3303), (5, 4931), (-7, Fraction(2, 3))],
)
def test_zero_divisor_search_matches_fraction_reference(d, c):
    """(2, 97), (14, -3303) and (5, 4931) are split with no zero divisor
    in the box at B = 6, and (-7, 2/3) has a denominator."""
    alg = quaternion_algebra(d, c)
    for bound in (3, 4, 6):
        assert find_zero_divisor(alg, bound) == find_zero_divisor_reference(alg, bound)


@st.composite
def norm_form_cases(draw):
    """(d, c, B): d squarefree in [-30, 30], c = +-p/q with p <= 10^4 and
    q <= 50, B in 1..6.  Half the draws take q = s^2 and +-p = x^2 - d y^2
    for x, y <= 6, so that (x, y, s, 0) is a witness once B >= x, y, s."""
    d = draw(st.sampled_from(SQUAREFREE_D))
    if draw(st.booleans()):
        c = draw(st.sampled_from([1, -1])) * Fraction(draw(st.integers(1, 10**4)), draw(st.integers(1, 50)))
    else:
        x, y, s = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(1, 7))
        assume(x or y)
        c = Fraction(x * x - d * y * y, s * s)
    return d, c, draw(st.integers(1, 6))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(norm_form_cases())
def test_zero_divisor_search_matches_the_full_walk(case):
    d, c, bound = case
    alg = quaternion_algebra(d, c)
    assert find_zero_divisor(alg, bound) == find_zero_divisor_reference(alg, bound)


# --- the structural forms against the enumerations they replace -----------

def corrupted(rng, cocycle):
    """The cocycle with one value, at a random pair, replaced: scaled by a
    random element, shifted by a rational, or set to zero."""
    field = cocycle.action.field
    values = dict(cocycle.values)
    key = rng.choice(sorted(values))
    how = rng.randrange(3)
    if how == 0:
        values[key] = values[key] * random_primitive(rng, field, cocycle.action.group)[1]
    elif how == 1:
        values[key] = values[key] + rng.choice([1, -2, Fraction(1, 3)])
    else:
        values[key] = field.zero()
    return KxCocycle(cocycle.action, values)


@pytest.mark.parametrize(
    "field",
    [quadratic_field(-1), quadratic_field(5), cyclotomic_field(5), cyclotomic_field(8), cyclotomic_field(12)],
    ids=repr,
)
def test_cocycle_identity_on_integer_rows_matches_field_elements(field):
    """is_two_cocycle_kx against the FieldElement form, on coboundary
    twists of cyclic_cocycle, normalized or not, each as it is and with
    one value corrupted: the same verdict and the same first failing
    triple."""
    rng = random.Random(f"cocycle-identity-{field!r}")
    action = GaloisAction.of(field)
    failures = set()
    for _ in range(12):
        b = random_primitive(rng, field, action.group)
        b[action.group.identity] = field.from_rational(rng.choice([1, -3, Fraction(1, 2)]))
        zeta = cyclic_cocycle(action, rng.choice([-1, 2, Fraction(-5, 3)])) * kx_coboundary_of(action, b)
        assert is_two_cocycle_kx(zeta, report=True) == (True, None)
        bad = corrupted(rng, zeta)
        found = is_two_cocycle_kx(bad, report=True)
        assert found == is_two_cocycle_kx_by_elements(bad, report=True)
        assert is_two_cocycle_kx(bad) == found[0]
        failures.add(found[1])
    assert len(failures - {None}) > 3, failures


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 12])
def test_center_from_generators_matches_every_element(n):
    """center_basis, the commutant of theta and of e_g for g in a
    generating set of Gamma, against the commutant of every e_a: the same
    kernel basis, hence the same center dimension and the same
    central_simple, for constant and coboundary-twisted cocycles.  Gamma
    is not cyclic for n = 8 and n = 12."""
    field = cyclotomic_field(n)
    action = GaloisAction.of(field)
    group = action.group
    assert (n in (8, 12)) == all(group.element_order(g) < group.order for g in group.elements())
    rng = random.Random(f"center-{n}")
    cocycles = [
        KxCocycle(action, {key: field.from_rational(c) for key in trivial_kx_cocycle(action).values})
        for c in (1, -2, Fraction(3, 5))
    ] + [
        cyclic_cocycle(action, c) * kx_coboundary_of(action, random_primitive(rng, field, action.group))
        for c in (-1, Fraction(5, 3))
    ]
    for zeta in cocycles:
        alg = CrossedProductAlgebra(action, zeta)
        reference = center_all_elements(alg)
        assert [k_coords(z) for z in alg.center_basis()] == reference
        assert len(reference) == 1 and alg.is_central_simple()
