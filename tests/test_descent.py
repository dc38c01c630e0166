"""Semilinear descent data, module equivalence, fixed spaces, and the
quaternionic obstruction."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from galforms.cohomology import (
    GaloisAction,
    quadratic_cocycle,
    trivial_kx_cocycle,
)
from galforms.crossed import CrossedProductAlgebra, find_zero_divisor
from galforms.descent import (
    AModule,
    datum_morphisms,
    fixed_space,
    from_module,
    kmat,
    make_datum,
    module_morphisms,
    to_module,
    validate_datum,
)
from galforms.cli import (
    parse_cocycle,
    parse_field,
    parse_field_element,
    read_cocycle,
    read_field,
    read_field_element,
)
from galforms.fields import cyclotomic_field, k_entries, k_matrix, quadratic_field
from galforms import qlinalg
from oracles import datum_morphisms_by_rows, datum_violation, module_morphisms_all_basis
from random_data import conjugate_datum, identity_datum, random_datum, regular_module, transport_datum


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
            invertible = qlinalg.rank(k_matrix(field, m)) == 2 * field.degree
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
    """validate_datum keeps its verdict and the integer k-matrices
    (N_a, D_a) on the datum: across validate_datum, to_module,
    fixed_space and validate_datum again, S_a (the k_matrix with a twist)
    is built, and its rank taken, once per group element."""
    from galforms import descent

    for field in (quadratic_field(-1), cyclotomic_field(5)):
        action = GaloisAction.of(field)
        datum = random_datum(action, 2, random.Random(5), twisted=False)
        calls = {"semi": 0, "rank": 0}

        def counted_k_matrix(*args, fn=descent.k_matrix):
            calls["semi"] += len(args) == 3 and args[2] is not None
            return fn(*args)

        def counted_rank(*args, fn=qlinalg.rank):
            calls["rank"] += 1
            return fn(*args)

        monkeypatch.setattr(descent, "k_matrix", counted_k_matrix)
        monkeypatch.setattr(qlinalg, "rank", counted_rank)
        assert validate_datum(datum) == (True, None)
        to_module(datum)
        assert len(fixed_space(datum)) == 2
        assert validate_datum(datum) == (True, None)
        assert calls == {"semi": action.group.order, "rank": action.group.order}
        monkeypatch.undo()


def _random_element(field, rng):
    return field.element([rng.randint(-2, 2) for _ in range(field.degree)])


def _corrupted(datum, rng):
    """The datum with one non-identity component changed: doubled, one
    entry moved by 1, or given a row dependent on the first (singular)."""
    field, n = datum.field, datum.dim
    a = rng.choice([g for g in datum.action.group.elements() if g != datum.action.group.identity])
    m = [list(row) for row in datum.matrices[a]]
    kind = rng.choice(["double", "entry", "singular"])
    if kind == "double":
        m = [[2 * x for x in row] for row in m]
    elif kind == "entry":
        m[rng.randrange(n)][rng.randrange(n)] += 1
    elif n > 1:
        lam = _random_element(field, rng)
        m[-1] = [lam * x for x in m[0]]
    else:
        m = [[field.zero()]]
    matrices = list(datum.matrices)
    matrices[a] = kmat(field, m)
    return make_datum(datum.action, datum.cocycle, matrices)


SWEEP_FIELDS = [quadratic_field(-1), quadratic_field(2), quadratic_field(-7), quadratic_field(13),
                cyclotomic_field(5), cyclotomic_field(8), cyclotomic_field(12)]


def test_verdict_matches_the_k_matrix_oracle_on_corrupted_data():
    """validate_datum, which checks S_b S_a = S_ab Z on integer
    k-matrices, gives the violation, first failing pair included, that
    the K-matrix check of tests/oracles.py gives, on valid data conjugated
    by irrational K-matrices and on one corruption of each."""
    rng = random.Random(2024)
    seen = set()
    corrupted = 0
    for field in SWEEP_FIELDS:
        action = GaloisAction.of(field)
        for twisted in (False, True):
            for dim in (1, 2, 3) if field.degree == 2 else (1, 2):
                (datum,) = _data_over_one_twist(action, [dim], twisted, rng)
                assert datum_violation(datum) is None
                assert validate_datum(datum) == (True, None)
                bad = _corrupted(datum, rng)
                want = datum_violation(bad)
                assert validate_datum(bad) == (want is None, want), (field, dim)
                seen.add(want and want.split()[0])
                corrupted += 1
    assert corrupted >= 30
    assert {"twisted", "component"} <= seen


GOLDEN_DESCEND = [
    case for case in json.loads((Path(__file__).parent / "data" / "crossed_golden.json").read_text())
    if case["argv"] == ["descend"]
]


@pytest.mark.parametrize("case", GOLDEN_DESCEND, ids=[c["name"] for c in GOLDEN_DESCEND])
def test_verdict_matches_the_k_matrix_oracle_on_goldens(case):
    job = case["job"]
    field = parse_field(read_field(job["field"]))
    action = GaloisAction.of(field)
    cocycle = parse_cocycle(action, read_cocycle(job["cocycle"]))
    matrices = [
        kmat(field, [[parse_field_element(field, read_field_element(x)) for x in row] for row in m])
        for m in job["matrices"]
    ]
    datum = make_datum(action, cocycle, matrices)
    want = datum_violation(datum)
    assert want == json.loads(case["stdout"])["violation"]
    assert validate_datum(datum) == (want is None, want)


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
    """[[m]] is a valid datum over the quadratic cocycle c iff
    m * sigma(m) = c.  A zero divisor u + v e_sigma of the crossed product
    has N(u) = c N(v), so m = u / v."""
    action = gaussian_action()
    # Hamilton twist: no m with m * conj(m) = -1 (norms are sums of squares)
    assert find_zero_divisor(CrossedProductAlgebra(action, quadratic_cocycle(action, -1)), 6) is None
    found = {}
    for d, c in ((-1, 2), (3, -2), (5, -1), (-7, 2)):
        action = GaloisAction.of(quadratic_field(d))
        cocycle = quadratic_cocycle(action, c)
        sigma = 1 - action.group.identity
        coeffs = find_zero_divisor(CrossedProductAlgebra(action, cocycle), 6)[0].kcoeffs
        m = found[d, c] = coeffs[action.group.identity] / coeffs[sigma]
        assert m * action.apply(sigma, m) == action.field.from_rational(c), (d, c)
        assert validate_datum(make_datum(action, cocycle, [[[1]], [[m]]])) == (True, None)
    # no m with both coordinates in [-5, 5] has norm 2 in Q(sqrt(-7))
    assert found[-7, 2] == quadratic_field(-7).element([Fraction(11, 8), Fraction(1, 8)])


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


@pytest.mark.parametrize("field", [quadratic_field(-5), cyclotomic_field(5)], ids=repr)
def test_conjugating_by_p_then_its_inverse_returns_the_datum(field):
    """conjugate_datum by an invertible P gives a valid datum, and then
    by P^-1 (the K-entries of the inverse k-matrix) the datum back, also
    when the entries are irrational; a singular P is refused, also when
    its rows are dependent over K only."""
    rng = random.Random(7)
    action = GaloisAction.of(field)
    inverted = 0
    for _ in range(30):
        n = rng.randint(1, 3 if field.degree == 2 else 2)
        datum = random_datum(action, n, rng)
        p = kmat(field, [[_random_element(field, rng) for _ in range(n)] for _ in range(n)])
        inv = qlinalg.mat_inv(k_matrix(field, p))
        if inv is not None:
            inverted += 1
            moved = conjugate_datum(datum, p)
            assert validate_datum(moved) == (True, None)
            assert conjugate_datum(moved, k_entries(field, inv)).matrices == datum.matrices
            lam = _random_element(field, rng)
            p = p[:-1] + (tuple(lam * x for x in p[0]),) if n > 1 else ((field.zero(),),)
        with pytest.raises(ValueError, match="^conjugating matrix must be invertible$"):
            conjugate_datum(datum, p)
    assert inverted >= 20


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
            if qlinalg.rank(k_matrix(field, p)) == dim * field.degree:
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
