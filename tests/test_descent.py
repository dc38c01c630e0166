"""Semilinear descent data, module equivalence, fixed spaces, and the
quaternionic obstruction."""

import random
from fractions import Fraction

import pytest

from galforms.cohomology import (
    GaloisAction,
    quadratic_cocycle,
    trivial_kx_cocycle,
)
from galforms.crossed import CrossedProductAlgebra
from galforms.descent import (
    AModule,
    conjugate_datum,
    datum_morphisms,
    dimension_one_witness,
    fixed_space,
    from_module,
    identity_datum,
    kmat,
    kmat_inv,
    make_datum,
    module_morphisms,
    regular_module,
    to_module,
    transport_datum,
    validate_datum,
)
from galforms.fields import cyclotomic_field, k_matrix, quadratic_field
from galforms import qlinalg
from oracles import datum_morphisms_by_rows, module_morphisms_all_basis
from random_data import random_datum


def gaussian_action():
    return GaloisAction.of(quadratic_field(-1))


# --- validation -----------------------------------------------------------

def test_identity_datum_valid():
    for field in (quadratic_field(-1), cyclotomic_field(5)):
        action = GaloisAction.of(field)
        datum = identity_datum(action, 3)
        ok, why = validate_datum(datum)
        assert ok, why


def test_twisted_composition_failure_reported():
    action = gaussian_action()
    # identity matrices cannot realize the nontrivial cocycle in dim 1
    datum = make_datum(action, quadratic_cocycle(action, -1), [[[1]], [[1]]])
    ok, why = validate_datum(datum)
    assert not ok
    assert "twisted composition fails at pair (1, 1)" in why


def test_identity_component_check():
    action = gaussian_action()
    datum = make_datum(action, trivial_kx_cocycle(action), [[[2]], [[1]]])
    ok, why = validate_datum(datum)
    assert not ok and "identity" in why


def test_singular_component_rejected():
    action = gaussian_action()
    datum = make_datum(
        action,
        trivial_kx_cocycle(action),
        [[[1, 0], [0, 1]], [[1, 1], [1, 1]]],
    )
    ok, why = validate_datum(datum)
    assert not ok and "bijective" in why


def test_bijectivity_verdict_matches_inversion_over_k():
    """The bijectivity test takes the rank of the flattened rational
    matrix; it must agree with Gaussian elimination over K, also for
    matrices that are singular over K with irrational entries."""
    rng = random.Random(3)
    for field in (quadratic_field(-7), cyclotomic_field(5), cyclotomic_field(8)):
        action = GaloisAction.of(field)
        eye = [[1, 0], [0, 1]]
        for _ in range(6):
            x = field.element([rng.randint(-2, 2) for _ in range(field.degree)])
            y = field.element([rng.randint(-2, 2) for _ in range(field.degree)])
            lam = field.element([rng.randint(-2, 2) for _ in range(field.degree)])
            singular = rng.random() < 0.5
            second = [lam * x, lam * y] if singular else [lam * x + field.one(), lam * y]
            m = [[x, y], second]
            datum = make_datum(action, trivial_kx_cocycle(action), [eye] + [m] * (action.group.order - 1))
            ok, why = validate_datum(datum)
            invertible = kmat_inv(kmat(field, m)) is not None
            assert (why != "component 1 is not bijective") == invertible, (field, m)


def test_to_module_matches_the_definitions():
    """Action matrices of to_module against their definition: the
    k-matrix of a_V from datum.apply on k-basis vectors, times the
    k-matrix of multiplication by theta^t, in Fractions."""
    rng = random.Random(13)
    for field, dim, twisted in ((quadratic_field(-1), 2, True), (quadratic_field(3), 3, False),
                                (cyclotomic_field(5), 2, False), (cyclotomic_field(8), 1, False)):
        datum = random_datum(GaloisAction.of(field), dim, rng, twisted=twisted)
        deg = field.degree
        big = dim * deg
        basis = [field.element([int(s == t) for s in range(deg)]) for t in range(deg)]

        def k_matrix(images):
            cols = [[c for x in image for c in x.coords] for image in images]
            return [[cols[j][i] for j in range(big)] for i in range(big)]

        unit_vectors = [[basis[t] if k == j else field.zero() for k in range(dim)]
                        for j in range(dim) for t in range(deg)]
        want = []
        for a in datum.action.group.elements():
            semi = k_matrix([datum.apply(a, v) for v in unit_vectors])
            for lam in basis:
                scalar = k_matrix([[lam * x for x in v] for v in unit_vectors])
                want.append(tuple(tuple(row) for row in qlinalg.mat_mul(semi, scalar)))
        assert list(to_module(datum).actions) == want


def test_conjugation_by_i_is_valid():
    action = gaussian_action()
    i = action.field.generator()
    datum = make_datum(action, trivial_kx_cocycle(action), [[[1]], [[i]]])
    ok, why = validate_datum(datum)
    assert ok, why


def test_a_datum_is_checked_once(monkeypatch):
    """validate_datum keeps its verdict and the k-matrices S_a on the
    datum: after it returns True, to_module and fixed_space multiply no
    K-matrices, and S_a (the k_matrix with a twist) is built once per
    group element."""
    from galforms import descent

    for field in (quadratic_field(-1), cyclotomic_field(5)):
        action = GaloisAction.of(field)
        datum = random_datum(action, 2, random.Random(5), twisted=False)
        calls = {"kmat_mul": 0, "semi": 0}

        def counted_kmat_mul(*args, fn=descent.kmat_mul):
            calls["kmat_mul"] += 1
            return fn(*args)

        def counted_k_matrix(*args, fn=descent.k_matrix):
            calls["semi"] += len(args) == 3 and args[2] is not None
            return fn(*args)

        monkeypatch.setattr(descent, "kmat_mul", counted_kmat_mul)
        monkeypatch.setattr(descent, "k_matrix", counted_k_matrix)
        assert validate_datum(datum) == (True, None)
        checked = calls["kmat_mul"]
        assert checked == action.group.order ** 2
        to_module(datum)
        assert len(fixed_space(datum)) == 2
        assert validate_datum(datum) == (True, None)
        assert calls == {"kmat_mul": checked, "semi": action.group.order}
        monkeypatch.undo()


def test_invalid_datum_is_refused_by_to_module_and_fixed_space():
    action = gaussian_action()
    twisted = make_datum(action, quadratic_cocycle(action, -1), [[[1]], [[1]]])
    with pytest.raises(ValueError, match=r"^invalid datum: twisted composition fails at pair \(1, 1\)$"):
        to_module(twisted)
    singular = make_datum(action, trivial_kx_cocycle(action), [[[1, 0], [0, 1]], [[1, 1], [1, 1]]])
    for build in (to_module, fixed_space):
        with pytest.raises(ValueError, match=r"^invalid datum: component 1 is not bijective$"):
            build(singular)


# --- fixed spaces ---------------------------------------------------------

def test_fixed_space_of_identity_datum():
    action = gaussian_action()
    basis = fixed_space(identity_datum(action, 2))
    assert len(basis) == 2
    # the standard real vectors are fixed
    assert [Fraction(1), Fraction(0), Fraction(0), Fraction(0)] in [
        list(v) for v in basis
    ] or basis  # basis may be echelonized; dimension is the contract


def test_fixed_space_of_i_twist():
    action = gaussian_action()
    i = action.field.generator()
    datum = make_datum(action, trivial_kx_cocycle(action), [[[1]], [[i]]])
    basis = fixed_space(datum)
    assert len(basis) == 1
    (v,) = basis
    # v = x + i y fixed under i * conj means y = x: proportional to 1 + i
    assert v[0] == v[1] != 0


def test_fixed_space_requires_untwisted():
    action = gaussian_action()
    i = action.field.generator()
    datum = make_datum(action, quadratic_cocycle(action, -1), [[[1]], [[i]]])
    # datum is invalid for that cocycle anyway; use a valid twisted one
    valid = random_datum(action, 2, random.Random(0), twisted=True)
    one = action.field.one()
    if any(x != one for x in valid.cocycle.values.values()):
        with pytest.raises(ValueError):
            fixed_space(valid)


# --- module roundtrips ----------------------------------------------------

ROUNDTRIP_FIELDS = [
    (quadratic_field(-1), 3),
    (quadratic_field(2), 3),
    (quadratic_field(-3), 3),
    (cyclotomic_field(5), 2),
]


def test_roundtrip_random_data():
    rng = random.Random(7)
    for field, maxdim in ROUNDTRIP_FIELDS:
        action = GaloisAction.of(field)
        for trial in range(3):
            dim = rng.randint(1, maxdim)
            datum = random_datum(action, dim, rng, twisted=(field.degree == 2))
            module = to_module(datum)
            back, basis = from_module(module)
            assert back.matrices == datum.matrices
            assert back.cocycle.values == datum.cocycle.values
            # basis columns are the standard basis: exact roundtrip
            big = dim * field.degree
            for c, col in enumerate(basis):
                assert list(col) == [Fraction(r == c) for r in range(big)]


def test_regular_module_of_quaternions():
    action = gaussian_action()
    alg = CrossedProductAlgebra(action, quadratic_cocycle(action, -1))
    module = regular_module(alg)
    assert module.dim == 4
    datum, _ = from_module(module)
    assert datum.dim == 2
    ok, why = validate_datum(datum)
    assert ok, why


def perturbation_cases():
    rng = random.Random(11)
    hamilton = CrossedProductAlgebra(gaussian_action(), quadratic_cocycle(gaussian_action(), -1))
    zeta3 = GaloisAction.of(cyclotomic_field(3))
    zeta5 = GaloisAction.of(cyclotomic_field(5))
    yield "regular Q(i), c=-1", regular_module(hamilton)
    yield "regular Q(zeta_3)", regular_module(CrossedProductAlgebra(zeta3, trivial_kx_cocycle(zeta3)))
    yield "to_module Q(i) dim 2 twisted", to_module(random_datum(gaussian_action(), 2, rng))
    yield "to_module Q(zeta_5) dim 1", to_module(random_datum(zeta5, 1, rng, twisted=False))
    # rational entries with denominators, so the integer checks scale
    quaternion = GaloisAction.of(quadratic_field(2))
    yield "regular Q(sqrt 2), c=3/2", regular_module(
        CrossedProductAlgebra(quaternion, quadratic_cocycle(quaternion, Fraction(3, 2)))
    )
    yield "to_module Q(zeta_5) dim 2, conjugated by det 6", to_module(
        conjugate_datum(random_datum(zeta5, 2, rng, twisted=False), [[2, 1], [0, 3]])
    )


PERTURBATION_CASES = list(perturbation_cases())


@pytest.mark.parametrize(
    "module", [m for _, m in PERTURBATION_CASES], ids=[label for label, _ in PERTURBATION_CASES]
)
def test_module_axioms_reject_every_perturbed_action(module):
    """The axioms are checked on generators only; a change to the action
    of any basis element, generator or not, is still caught."""
    AModule(module.algebra, module.dim, module.actions)
    for z in range(module.algebra.dim):
        actions = [[list(row) for row in m] for m in module.actions]
        actions[z][z % module.dim][0] += 1
        with pytest.raises(ValueError):
            AModule(module.algebra, module.dim, actions)


def test_dimension_one_obstruction():
    action = gaussian_action()
    # Hamilton twist: no m with m * conj(m) = -1 (norms are sums of squares)
    assert dimension_one_witness(action, quadratic_cocycle(action, -1)) is None
    # split twist: m = 1 + i has norm 2
    m = dimension_one_witness(action, quadratic_cocycle(action, 2))
    assert m is not None
    sigma = 1 - action.group.identity
    assert m * action.apply(sigma, m) == action.field.from_rational(2)


# --- transport and conjugation --------------------------------------------

def test_transport_changes_cocycle_by_coboundary():
    action = gaussian_action()
    field = action.field
    datum = identity_datum(action, 2)
    b = {action.group.identity: field.one(), 1 - action.group.identity: field.element([1, 1])}
    moved = transport_datum(datum, b)
    sigma = 1 - action.group.identity
    # d b (sigma, sigma) = (1+i)(1-i) = 2
    assert moved.cocycle.value(sigma, sigma) == field.from_rational(2)
    ok, why = validate_datum(moved)
    assert ok, why


def test_conjugation_preserves_validity_and_morphisms():
    action = gaussian_action()
    rng = random.Random(13)
    datum = random_datum(action, 2, rng)
    i = action.field.generator()
    p = [[action.field.one(), i], [action.field.zero(), action.field.one()]]
    conj = conjugate_datum(datum, p)
    ok, why = validate_datum(conj)
    assert ok, why
    morphs = datum_morphisms(datum, conj)
    assert morphs  # the conjugation itself is a morphism, so nonzero space


def test_conjugate_by_singular_rejected():
    action = gaussian_action()
    datum = identity_datum(action, 2)
    z = action.field.zero()
    with pytest.raises(ValueError):
        conjugate_datum(datum, [[z, z], [z, z]])


# --- morphism correspondence ----------------------------------------------

def test_morphism_spaces_correspond():
    rng = random.Random(19)
    action = gaussian_action()
    for trial in range(4):
        d1 = random_datum(action, 2, rng, twisted=False)
        d2 = random_datum(action, 2, rng, twisted=False)
        dm = datum_morphisms(d1, d2)
        m1 = to_module(d1)
        m2 = to_module(d2, algebra=m1.algebra)
        mm = module_morphisms(m1, m2)
        # a module morphism commutes with the K-scalars and with every
        # e_a, so the two solution spaces coincide over the rationals
        assert len(mm) == len(dm)
        for f in dm:
            g = k_matrix(d1.field, f)
            # g commutes with every algebra action
            for rx, rxp in zip(m1.actions, m2.actions):
                from galforms import qlinalg

                assert qlinalg.mat_mul(g, rx) == qlinalg.mat_mul(rxp, g)


def _data_over_one_twist(action, dims, twisted, rng):
    """Random data of the given dimensions sharing one cocycle: transport
    identity data by one primitive, then conjugate each by its own random
    invertible K-matrix, so that the morphisms have irrational entries."""
    field = action.field

    def element():
        coords = [rng.randint(-2, 2) for _ in range(field.degree)]
        return field.element(coords) if any(coords) else field.one()

    primitive = {g: element() for g in action.group.elements()}
    primitive[action.group.identity] = field.one()
    data = []
    for dim in dims:
        datum = identity_datum(action, dim)
        if twisted:
            datum = transport_datum(datum, primitive)
        while True:
            p = kmat(field, [[element() for _ in range(dim)] for _ in range(dim)])
            if kmat_inv(p) is not None:
                break
        data.append(conjugate_datum(datum, p))
    return data


def _flat(kmatrix):
    return [c for row in kmatrix for x in row for c in x.coords]


@pytest.mark.parametrize("field, maxdim", ROUNDTRIP_FIELDS, ids=["Q(i)", "Q(sqrt2)", "Q(sqrt-3)", "Q(zeta5)"])
@pytest.mark.parametrize("twisted", [False, True], ids=["untwisted", "twisted"])
def test_morphisms_through_the_module_equivalence(field, maxdim, twisted):
    """datum_morphisms spans the same Q-space as the hand-built system on
    F's coordinates; each F it returns intertwines the two modules'
    actions of every algebra basis element; and module_morphisms, which
    imposes the generators only, returns what the all-basis system does."""
    rng = random.Random(41 + maxdim)
    action = GaloisAction.of(field)
    pairs = [(n, n) for n in range(1, maxdim + 1)]
    pairs += [(n, n % maxdim + 1) for n in range(1, maxdim + 1)]
    for dims in pairs:
        src, dst = _data_over_one_twist(action, dims, twisted, rng)
        got = datum_morphisms(src, dst)
        want = datum_morphisms_by_rows(src, dst)
        assert len(got) == len(want) > 0, dims
        assert qlinalg.rank([_flat(f) for f in got]) == len(got), dims
        assert qlinalg.rank([_flat(f) for f in got + want]) == len(want), dims
        m1 = to_module(src)
        m2 = to_module(dst, algebra=m1.algebra)
        for f in got:
            g = k_matrix(src.field, f)
            for rx, rxp in zip(m1.actions, m2.actions):
                assert qlinalg.mat_mul(g, rx) == qlinalg.mat_mul(rxp, g), dims
        assert module_morphisms(m1, m2) == module_morphisms_all_basis(m1, m2), dims


def test_endomorphisms_of_twisted_line():
    action = gaussian_action()
    rng = random.Random(29)
    datum = random_datum(action, 1, rng, twisted=True)
    endos = datum_morphisms(datum, datum)
    assert len(endos) == 1  # rational scalars only
    module = to_module(datum)
    assert len(module_morphisms(module, module)) == 1


def test_morphisms_require_matching_twist():
    action = gaussian_action()
    d1 = identity_datum(action, 1)
    d2 = random_datum(action, 1, random.Random(3), twisted=True)
    if d1.cocycle.values != d2.cocycle.values:
        with pytest.raises(ValueError):
            datum_morphisms(d1, d2)
