"""End-to-end acceptance gate.

Each test prints one `CRITERION n: PASS` / `FAIL` line on the real
terminal (bypassing capture) so the overall verdict is a quick scan.
All checks are exact; oracles are independent of the code under test
(full enumeration, closed-form tables, brute-force searches).
"""

import math
import random
from fractions import Fraction
from itertools import permutations, product as iproduct

from galforms.classify import (
    build_inner_invariant,
    classify_quasisplit,
    quasisplit_cocharacter_data,
)
from galforms.cohomology import (
    CentralExtension,
    GGroup,
    GModule,
    GaloisAction,
    KxCocycle,
    boundary_map,
    family_to_transport,
    h2_bar,
    hom_module,
    is_module_coboundary,
    is_module_cocycle,
    is_one_cocycle,
    is_two_cocycle_kx,
    kx_coboundary_of,
    module_coboundary,
    one_cocycles,
    quadratic_cocycle,
    transport_to_family,
    trivial_kx_cocycle,
)
from galforms.crossed import (
    CrossedProductAlgebra,
    coboundary_isomorphism,
    cocycle_sum_class_check,
    find_zero_divisor,
)
from galforms.descent import (
    datum_morphisms,
    fixed_space,
    from_module,
    module_morphisms,
    to_module,
)
from galforms.exact_linalg import IntMatrix, smith_normal_form
from galforms.fields import (
    INFINITE_PLACE,
    brauer_class_quaternion,
    cyclotomic_field,
    hilbert_symbol,
    k_matrix,
    quadratic_field,
    relevant_places,
)
from galforms.groups import cyclic, direct_product, homomorphisms, symmetric
from galforms.root_datum import (
    build_root_datum,
    cartan_matrix,
    dual,
    fundamental_group,
    outer_automorphisms,
)
from galforms import qlinalg
from oracles import h2_enumerate
from random_data import presented_algebra, random_datum

ALL_LABELS = (
    ["A%d" % n for n in range(1, 9)]
    + ["B%d" % n for n in range(2, 9)]
    + ["C%d" % n for n in range(2, 9)]
    + ["D%d" % n for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def criterion(n):
    """Wrap a zero-argument check so it reports one line per criterion."""

    def deco(fn):
        def wrapper(capsys):
            try:
                fn()
            except BaseException:
                with capsys.disabled():
                    print(f"CRITERION {n}: FAIL")
                raise
            with capsys.disabled():
                print(f"CRITERION {n}: PASS")

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    return deco


# --- 1: duality is an involution ------------------------------------------

@criterion(1)
def test_criterion_01_duality_involution():
    for label in ALL_LABELS:
        for iso in ("simply_connected", "adjoint"):
            brd = build_root_datum(label, iso)
            assert dual(dual(brd)) == brd, (label, iso)
    for rank in (0, 1, 2):
        brd = build_root_datum(f"T{rank}")
        assert dual(dual(brd)) == brd


# --- 2: fundamental-group table vs Cartan SNF oracle ----------------------

@criterion(2)
def test_criterion_02_pi1_table():
    known = {"A1": (2,), "A2": (3,), "D4": (2, 2), "E6": (3,)}
    for label in ALL_LABELS:
        fam, n = label[0], int(label[1:])
        sc = fundamental_group(build_root_datum(label, "simply_connected"))
        assert sc.is_trivial(), label
        ad = fundamental_group(build_root_datum(label, "adjoint"))
        s, _, _ = smith_normal_form(IntMatrix(cartan_matrix(fam, n)))
        expected = tuple(
            s[t, t] for t in range(n) if s[t, t] > 1
        )
        assert ad.invariant_factors == expected, label
        assert ad.free_rank == 0
        if label in known:
            assert ad.invariant_factors == known[label]


# --- 3: outer automorphism orders vs permutation oracle -------------------

@criterion(3)
def test_criterion_03_outer_orders():
    expected = {"A1": 1, "A2": 2, "D4": 6, "E6": 2}
    for label, order in expected.items():
        fam, n = label[0], int(label[1:])
        group, _ = outer_automorphisms(build_root_datum(label))
        assert group.order == order, label
        c = cartan_matrix(fam, n)
        oracle = sum(
            1
            for perm in permutations(range(n))
            if all(
                c[perm[i]][perm[j]] == c[i][j]
                for i in range(n)
                for j in range(n)
            )
        )
        assert oracle == order, label


# --- 4: second cohomology vs gcd table and full enumeration ---------------

@criterion(4)
def test_criterion_04_h2_tables():
    for n in range(2, 7):
        for m in range(2, 7):
            group, _ = h2_bar(GModule.trivial(cyclic(n), (m,)))
            assert group.torsion_order == math.gcd(n, m), (n, m)
            assert group.free_rank == 0
    small = [cyclic(2), cyclic(3), cyclic(4), direct_product(cyclic(2), cyclic(2))]
    moduli_opts = [(2,), (3,), (4,), (2, 2)]
    for gam in small:
        for moduli in moduli_opts:
            mod = GModule.trivial(gam, moduli)
            group, reps = h2_bar(mod)
            assert group.torsion_order == h2_enumerate(mod), (gam.order, moduli)
            for rep in reps:
                assert is_module_cocycle(mod, rep)


# --- 5: transport between Hom(P, M)-cocycles and cocycle families ---------

def _hom_count(p_moduli, h_factors):
    out = 1
    for p in p_moduli:
        for d in h_factors:
            out *= math.gcd(p, d)
    return out


@criterion(5)
def test_criterion_05_transport_bijection():
    rng = random.Random(55)
    gammas = [cyclic(2), cyclic(3), cyclic(4), direct_product(cyclic(2), cyclic(2))]
    options = [(2,), (3,), (4,), (2, 2)]
    for gam in gammas:
        for p_moduli in options:
            for m_moduli in options:
                m = GModule.trivial(gam, m_moduli)
                hm, to_hom, from_hom = hom_module(gam, p_moduli, m)
                hgroup, hreps = h2_bar(hm)
                mgroup, _ = h2_bar(m)
                # class-level bijection: H^2 valued in Hom(P, M) has
                # exactly one class per homomorphism P -> H^2(Gamma, M)
                assert hgroup.torsion_order == _hom_count(
                    p_moduli, mgroup.invariant_factors
                ), (gam.order, p_moduli, m_moduli)
                # table-level bijection: roundtrip representative tables
                # and random coboundary shifts exactly
                zero_table = {
                    (a, b): hm.zero()
                    for a in range(gam.order)
                    for b in range(gam.order)
                }
                tables = [zero_table] + list(hreps)
                f = {
                    g: tuple(rng.randrange(max(d, 1)) for d in hm.moduli)
                    for g in gam.elements()
                }
                shifted = module_coboundary(hm, f)
                tables.append(
                    {k: hm.add(tables[-1][k], shifted[k]) for k in shifted}
                )
                for tab in tables:
                    fam = transport_to_family(hm, to_hom, p_moduli, m, tab)
                    for mtab in fam.values():
                        assert is_module_cocycle(m, mtab)
                    back = family_to_transport(hm, from_hom, p_moduli, m, fam)
                    assert back == tab
                # descent to classes: a coboundary shift of the table
                # shifts every member of the family by a coboundary
                base = tables[-2]
                moved = tables[-1]
                fam0 = transport_to_family(hm, to_hom, p_moduli, m, base)
                fam1 = transport_to_family(hm, to_hom, p_moduli, m, moved)
                for alpha in fam0:
                    diff = {
                        k: m.sub(fam1[alpha][k], fam0[alpha][k])
                        for k in fam0[alpha]
                    }
                    assert is_module_coboundary(m, diff) is not None


# --- 6: boundary map vs exhaustive lift search ----------------------------

@criterion(6)
def test_criterion_06_boundary_exactness():
    gam = cyclic(2)
    ext = CentralExtension(
        z=GGroup.trivial_action(gam, cyclic(2)),
        b=GGroup.trivial_action(gam, cyclic(4)),
        c=GGroup.trivial_action(gam, cyclic(2)),
        inclusion=(0, 2),
        projection=(0, 1, 0, 1),
    )
    zmod = GModule.trivial(gam, (2,))
    cocycles = one_cocycles(ext.c)
    assert len(cocycles) == 2
    for f in cocycles:
        table = boundary_map(ext, f)
        trivial = (
            is_module_coboundary(zmod, {k: (v,) for k, v in table.items()})
            is not None
        )
        lifts = False
        fibers = [
            [x for x in range(4) if ext.projection[x] == f[a]]
            for a in gam.elements()
        ]
        for choice in iproduct(*fibers):
            if is_one_cocycle(ext.b, tuple(choice)):
                lifts = True
                break
        assert trivial == lifts, f
    # the nontrivial cocycle really fails to lift
    nontrivial = next(f for f in cocycles if any(f))
    table = boundary_map(ext, nontrivial)
    assert is_module_coboundary(zmod, {k: (v,) for k, v in table.items()}) is None


# --- 7: crossed-product constructor dichotomy -----------------------------

def _random_nonzero(rng, field, bound=2):
    while True:
        x = field.element(
            [Fraction(rng.randint(-bound, bound)) for _ in range(field.degree)]
        )
        if x:
            return x


@criterion(7)
def test_criterion_07_crossed_product_dichotomy():
    rng = random.Random(77)
    fields = [quadratic_field(-1), quadratic_field(2), quadratic_field(-3)]
    accepted = 0
    while accepted < 50:
        field = rng.choice(fields)
        action = GaloisAction.of(field)
        base = quadratic_cocycle(action, rng.choice([1, -1, 2, 3, -2, 5]))
        b = {g: _random_nonzero(rng, field) for g in action.group.elements()}
        b[action.group.identity] = field.one()
        zeta = base * kx_coboundary_of(action, b)
        algebra = CrossedProductAlgebra(action, zeta)
        assert algebra.is_central_simple()
        accepted += 1
    rejected = 0
    while rejected < 50:
        field = rng.choice(fields)
        action = GaloisAction.of(field)
        base = quadratic_cocycle(action, rng.choice([1, -1, 2, 3, -2, 5]))
        b = {g: _random_nonzero(rng, field) for g in action.group.elements()}
        b[action.group.identity] = field.one()
        values = dict((base * kx_coboundary_of(action, b)).values)
        key = rng.choice(list(values))
        values[key] = values[key] * _random_nonzero(rng, field) + field.from_rational(
            rng.choice([1, 2, 3])
        )
        bad = KxCocycle(action, values)
        if not bad.values[key] or is_two_cocycle_kx(bad):
            continue
        try:
            CrossedProductAlgebra(action, bad)
        except ValueError as exc:
            assert "triple" in str(exc)
            rejected += 1
        else:
            raise AssertionError("invalid table accepted")


# --- 8: quaternion arithmetic and the product formula ---------------------

@criterion(8)
def test_criterion_08_quaternion_arithmetic():
    gauss = GaloisAction.of(quadratic_field(-1))
    hamilton = CrossedProductAlgebra(gauss, quadratic_cocycle(gauss, -1))
    assert not hamilton.is_split_quaternion()
    assert brauer_class_quaternion(-1, -1).sorted_places() == [2, INFINITE_PLACE]
    assert find_zero_divisor(hamilton, bound=4) is None

    trivial = CrossedProductAlgebra(gauss, trivial_kx_cocycle(gauss))
    assert trivial.is_split_quaternion()
    x, y = find_zero_divisor(trivial, bound=3)
    assert x and y and not (x * y)

    root2 = GaloisAction.of(quadratic_field(2))
    two_two = CrossedProductAlgebra(root2, quadratic_cocycle(root2, 2))
    assert two_two.is_split_quaternion()
    x, y = find_zero_divisor(two_two, bound=3)
    assert not (x * y)

    rng = random.Random(88)
    for _ in range(200):
        a = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 9))
        b = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 9))
        prod = 1
        for v in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)


# --- 9: descent data <-> modules ------------------------------------------

@criterion(9)
def test_criterion_09_descent_equivalence():
    rng = random.Random(99)
    quadratics = [quadratic_field(-1), quadratic_field(2), quadratic_field(-3)]
    cases = []
    for _ in range(46):
        field = rng.choice(quadratics)
        cases.append((field, rng.randint(1, 4)))
    zeta5 = cyclotomic_field(5)
    for _ in range(4):
        cases.append((zeta5, rng.randint(1, 2)))
    for field, dim in cases:
        action = GaloisAction.of(field)
        datum = random_datum(action, dim, rng, twisted=(field.degree == 2))
        module = to_module(datum)
        assert module.dim == dim * field.degree
        back, basis = from_module(module)
        assert back.matrices == datum.matrices
        assert back.cocycle.values == datum.cocycle.values
        big = dim * field.degree
        for c, col in enumerate(basis):
            assert list(col) == [Fraction(r == c) for r in range(big)]
    # morphism spaces correspond on 20 random pairs over a shared twist
    for trial in range(20):
        field = quadratics[trial % 3]
        action = GaloisAction.of(field)
        dim1, dim2 = rng.randint(1, 2), rng.randint(1, 2)
        d1 = random_datum(action, dim1, rng, twisted=False)
        d2 = random_datum(action, dim2, rng, twisted=False)
        dm = datum_morphisms(d1, d2)
        m1 = to_module(d1)
        m2 = to_module(d2, algebra=m1.algebra)
        mm = module_morphisms(m1, m2)
        assert len(mm) == len(dm)
        for f in dm:
            g = k_matrix(d1.field, f)
            for rx, rxp in zip(m1.actions, m2.actions):
                assert qlinalg.mat_mul(g, rx) == qlinalg.mat_mul(rxp, g)
    # untwisted fixed spaces have full rational dimension
    for field in quadratics + [zeta5]:
        action = GaloisAction.of(field)
        for dim in (1, 2):
            datum = random_datum(action, dim, rng, twisted=False)
            assert len(fixed_space(datum)) == dim


# --- 10: coboundary isomorphisms compose coherently -----------------------

@criterion(10)
def test_criterion_10_isomorphism_coherence():
    rng = random.Random(10)
    for field in (quadratic_field(-1), quadratic_field(2)):
        action = GaloisAction.of(field)
        for _ in range(4):
            start = CrossedProductAlgebra(
                action, quadratic_cocycle(action, rng.choice([-1, 2, 3]))
            )
            chain = [start]
            isos = []
            for _ in range(3):
                b = {g: _random_nonzero(rng, field) for g in action.group.elements()}
                b[action.group.identity] = field.one()
                src = chain[-1]
                tgt = CrossedProductAlgebra(
                    action, src.cocycle * kx_coboundary_of(action, b)
                )
                isos.append(coboundary_isomorphism(src, tgt, b))
                chain.append(tgt)
            composite = isos[2].compose(isos[1]).compose(isos[0])
            right_first = isos[2].compose(isos[1].compose(isos[0]))
            for x in start.k_basis():
                stepped = x
                for step in isos:
                    stepped = step.apply(stepped)
                assert composite.apply(x) == stepped
                assert right_first.apply(x) == stepped


# --- 11: quasi-split classification counts --------------------------------

@criterion(11)
def test_criterion_11_quasisplit_counts():
    expected = [
        (cyclic(2), cyclic(2), 2),
        (cyclic(3), symmetric(3), 2),
        (symmetric(3), symmetric(3), 3),
    ]
    for gamma, out, count in expected:
        forms = classify_quasisplit(gamma, out)
        assert len(forms) == count
        # oracle: brute-force Hom enumeration + conjugation partition
        homs = set(homomorphisms(gamma, out))
        classes = 0
        while homs:
            h = next(iter(homs))
            orbit = {
                tuple(out.conjugate(c, x) for x in h) for c in out.elements()
            }
            homs -= orbit
            classes += 1
        assert classes == count


# --- 12: cocharacter coinvariants -----------------------------------------

@criterion(12)
def test_criterion_12_coinvariants():
    a2 = build_root_datum("A2", "adjoint")
    out_group, _ = outer_automorphisms(a2)
    flip = next(
        f for f in classify_quasisplit(cyclic(2), out_group) if any(f.rho)
    )
    data = quasisplit_cocharacter_data(a2, flip)
    assert data.coinvariants.free_rank == 1
    assert data.coinvariants.invariant_factors == ()

    d4 = build_root_datum("D4", "adjoint")
    out_d4, elements = outer_automorphisms(d4)
    tri = next(
        f
        for f in classify_quasisplit(cyclic(3), out_d4)
        if any(f.rho)
    )
    data = quasisplit_cocharacter_data(d4, tri, height=2)
    assert data.coinvariants.free_rank == 2
    assert data.coinvariants.invariant_factors == ()
    # enumeration oracle: the triality matrix permutes three fundamental
    # coweights; the moved sublattice is spanned by their differences and
    # the projection must kill exactly those
    mat = elements[tri.rho[1]].cochar_matrix
    units = [tuple(int(i == j) for i in range(4)) for j in range(4)]
    moved = [u for u in units if tuple(mat.apply(u)) != u]
    fixed = [u for u in units if tuple(mat.apply(u)) == u]
    assert len(moved) == 3 and len(fixed) == 1
    for u in moved:
        v = mat.apply(u)
        assert data.projection.apply(u) == data.projection.apply(v)
    # rank additivity for every form
    for label, gamma in (("D4", symmetric(3)), ("A3", cyclic(2)), ("E6", cyclic(2))):
        brd = build_root_datum(label, "adjoint")
        out_group, _ = outer_automorphisms(brd)
        for form in classify_quasisplit(gamma, out_group):
            d = quasisplit_cocharacter_data(brd, form, height=1)
            assert d.fixed_rank + d.moved_rank == brd.datum.rank


# --- 13: inner-form invariant ---------------------------------------------

@criterion(13)
def test_criterion_13_inner_invariant():
    brd = build_root_datum("A1", "adjoint")
    inv = build_inner_invariant(brd, -1, [-1])
    assert inv.pi1.invariant_factors == (2,)
    elements = inv.elements()
    for x in elements:
        for y in elements:
            s = tuple((a + b) % 2 for a, b in zip(x, y))
            assert cocycle_sum_class_check(
                presented_algebra(inv, x).cocycle,
                presented_algebra(inv, y).cocycle,
                presented_algebra(inv, s).cocycle,
            ), (x, y)
            assert inv.mu[x] + inv.mu[y] == inv.mu[s]
    # order-violating assignments are rejected
    odd = build_root_datum("A2", "adjoint")
    try:
        build_inner_invariant(odd, -1, [-1])
    except ValueError as exc:
        assert "order violation" in str(exc)
    else:
        raise AssertionError("order-violating assignment accepted")
