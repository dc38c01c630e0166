"""Group cohomology: H^1 by enumeration, H^2 via the bar resolution
with a full-enumeration oracle, Hom-module transport, K^x-valued
cocycles, and the boundary map of a central extension."""

import copy
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import permutations, product as iproduct

import pytest

from galforms import cohomology
from galforms.cli import parse_group
from galforms.cohomology import (
    CentralExtension,
    CyclicNormClasses,
    GGroup,
    GModule,
    GaloisAction,
    boundary_map,
    family_to_transport,
    h1_nonabelian,
    h2_bar,
    hom_module,
    is_module_coboundary,
    is_module_cocycle,
    is_one_cocycle,
    is_two_cocycle_kx,
    _bar_rows,
    kx_coboundary_of,
    module_coboundary,
    normalize_module_cocycle,
    one_cocycles,
    quadratic_cocycle,
    transport_to_family,
    trivial_kx_cocycle,
)
from galforms.descent import make_datum
from galforms.exact_linalg import IntMatrix, _mul, _sparse_smith
from galforms.fields import cyclotomic_field, quadratic_field
from galforms import groups
from galforms.groups import FiniteGroup, cyclic, direct_product, homomorphisms, symmetric
from oracles import (
    bar_rows,
    boundary_with_lifts,
    cohomologous_module_cocycles,
    enumerate_cocycles,
    h2_enumerate,
    kx_is_coboundary,
    maps_by_product,
    module_elements,
    normalize_by_coboundary,
    one_cocycles_brute,
)
from random_data import random_module


# --- H^1 ------------------------------------------------------------------

def test_h1_trivial_action():
    gam = cyclic(2)
    gg = GGroup.trivial_action(gam, cyclic(4))
    # H^1(Z/2, Z/4 trivial) = Hom = Z/2
    assert len(h1_nonabelian(gg)) == 2


def test_h1_inversion_action():
    gam = cyclic(2)
    # sigma inverts Z/3: cocycles f(sigma) = m, condition m + sigma(m) = 0,
    # i.e. m - m = 0: all 3 values; twisted conjugation merges them
    gg = GGroup(gam, cyclic(3), ((0, 1, 2), (0, 2, 1)))
    cocycles = one_cocycles(gg)
    assert len(cocycles) == 3
    classes = h1_nonabelian(gg)
    # H^1(Z/2, Z/3 inversion) is trivial (|H^1| = 1 by Tate periodicity)
    assert len(classes) == 1


def test_trivial_action_checks_nothing(monkeypatch):
    """The trivial action is the Gamma-group the constructor builds from
    identity permutations, with none of the constructor's checks run."""
    gamma, coeff = symmetric(3), direct_product(cyclic(2), cyclic(2))
    checked = GGroup(gamma, coeff, [range(4)] * 6)
    with monkeypatch.context() as patch:
        patch.setattr(GGroup, "__init__", lambda *args: pytest.fail("action checked"))
        ggroup = GGroup.trivial_action(gamma, coeff)
    assert vars(ggroup) == vars(checked)
    assert h1_nonabelian(ggroup) == h1_nonabelian(checked)


@pytest.mark.parametrize("action, message", [
    (((0, 1, 2),), "one permutation per Gamma element"),
    (((0, 1, 2), (0, 1, 1)), "action of 1 is not a permutation"),
    (((0, 1, 2), (1, 0, 2)), "action of 1 is not an automorphism"),
    (((0, 2, 1), (0, 2, 1)), "action is not a group homomorphism"),
], ids=["length", "permutation", "automorphism", "homomorphism"])
def test_ggroup_refuses_a_bad_action(action, message):
    """The constructor, the trust boundary of a Gamma-group that is not
    trivial, still checks every action it is given."""
    with pytest.raises(ValueError, match=message):
        GGroup(cyclic(2), cyclic(3), action)


def test_s3_coefficients_h1():
    from galforms.groups import symmetric

    gam = cyclic(2)
    gg = GGroup.trivial_action(gam, symmetric(3))
    # classes = conjugacy classes of involutions + trivial: {e}, {transpositions}
    assert len(h1_nonabelian(gg)) == 2


def _automorphisms(a):
    """Aut(A) as a FiniteGroup, with its elements as permutations of A."""
    n = a.order
    auts = sorted(
        p for p in permutations(range(n))
        if all(p[a.table[x][y]] == a.table[p[x]][p[y]] for x in range(n) for y in range(n))
    )
    index = {p: i for i, p in enumerate(auts)}
    table = [[index[tuple(p[q[x]] for x in range(n))] for q in auts] for p in auts]
    return FiniteGroup(table, check=False), auts


def _h1_classes(ggroup, cocycles):
    """The classes h1_nonabelian forms, from a given list of cocycles."""
    gamma, coeff = ggroup.gamma, ggroup.coeff
    base = (coeff.identity,) * gamma.order
    classes, seen = [], set()
    for z in [base] + cocycles:
        if z not in seen:
            cls = sorted({
                tuple(coeff.table[coeff.table[coeff.inverse[c]][z[s]]][ggroup.act(s, c)]
                      for s in range(gamma.order))
                for c in range(coeff.order)
            })
            seen.update(cls)
            classes.append(cls)
    return classes


H1_COEFFICIENTS = ["C1", "C2", "C3", "C4", "C5", "C6", "C2xC2", "S3", "C3xC2"]


@pytest.mark.parametrize("gamma_spec", ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C2xC2",
                                        "C2xC4", "C4xC2", "C2xC2xC2", "S3", "C3xC2"])
def test_one_cocycles_match_brute_force(gamma_spec):
    """Cocycles from generator images, and the classes built on them, equal
    an exhaustive search, for every action of Gamma on every A of order at
    most 6; the walk over generator images gives the maps that extending
    every tuple of them gives, with and without the action."""
    gamma = parse_group(gamma_spec)
    actions = 0
    for coeff_spec in H1_COEFFICIENTS:
        coeff = parse_group(coeff_spec)
        assert homomorphisms(gamma, coeff) == maps_by_product(gamma, coeff), coeff_spec
        aut, perms = _automorphisms(coeff)
        for rho in homomorphisms(gamma, aut):
            ggroup = GGroup(gamma, coeff, [perms[x] for x in rho])
            brute = one_cocycles_brute(ggroup)
            assert one_cocycles(ggroup) == brute, (coeff_spec, rho)
            assert maps_by_product(gamma, coeff, ggroup.action) == brute, (coeff_spec, rho)
            assert h1_nonabelian(ggroup) == _h1_classes(ggroup, brute), (coeff_spec, rho)
            actions += 1
    assert actions >= len(H1_COEFFICIENTS)


def test_one_cocycles_budget(monkeypatch):
    """The budget counts the |A|^#gens maps tried: C2^3 needs three
    generators."""
    ggroup = GGroup.trivial_action(parse_group("C2xC2xC2"), symmetric(3))
    monkeypatch.setattr(groups, "ENUMERATION_BUDGET", 6**3 - 1)
    with pytest.raises(ValueError, match=r"enumeration budget exceeded: 6\^3 candidates above the budget of 215$"):
        one_cocycles(ggroup)
    monkeypatch.setattr(groups, "ENUMERATION_BUDGET", 6**3)
    assert one_cocycles(ggroup) == one_cocycles_brute(ggroup)


def test_one_cocycles_of_a_large_cyclic_group(monkeypatch):
    """C12 on S3 tries 6 maps, far inside the budget, though |A|^(|Gamma|-1)
    is 6^11; every action agrees with the exhaustive search."""
    gamma, coeff = cyclic(12), symmetric(3)
    aut, perms = _automorphisms(coeff)
    monkeypatch.setattr(groups, "ENUMERATION_BUDGET", 6)
    for rho in homomorphisms(gamma, aut):
        ggroup = GGroup(gamma, coeff, [perms[x] for x in rho])
        brute = one_cocycles_brute(ggroup)
        assert one_cocycles(ggroup) == brute, rho
        assert h1_nonabelian(ggroup) == _h1_classes(ggroup, brute), rho
    assert len(h1_nonabelian(GGroup.trivial_action(gamma, coeff))) == 3


@pytest.mark.parametrize("gamma, moduli, action", [
    (cyclic(3), (2, 4), None),
    (direct_product(cyclic(2), cyclic(2)), (6,), None),
    (cyclic(4), (5,), [[[1]], [[2]], [[4]], [[3]]]),
    (cyclic(2), (4, 2), [[[1, 0], [0, 1]], [[1, 2], [0, 1]]]),
])
def test_bar_rows_form_a_complex(gamma, moduli, action):
    """d1 is the coboundary of 1-cochains and d2 d1 = 0, mod the moduli."""
    mod = (GModule.trivial(gamma, moduli) if action is None
           else GModule(gamma, moduli, [IntMatrix(m) for m in action]))
    n, k = gamma.order, mod.rank
    d1, d2 = _bar_rows(mod, 1), _bar_rows(mod, 2)
    assert len(d1) == n * n * k and len(d2) == n ** 3 * k
    d2d1 = _mul(d2, _mul(d1, [{j: 1} for j in range(n * k)]))
    assert all(x % moduli[i % k] == 0 for i, row in enumerate(d2d1) for x in row.values())
    rng = random.Random(1)
    for _ in range(5):
        f = {g: tuple(rng.randrange(d) for d in moduli) for g in range(n)}
        flat = [x for g in range(n) for x in f[g]]
        image = [sum(x * flat[j] for j, x in row.items()) for row in d1]
        table = module_coboundary(mod, f)
        for a in range(n):
            for b in range(n):
                base = (a * n + b) * k
                assert mod.reduce(image[base: base + k]) == table[(a, b)]


# every spec of order at most 8, products of factors of order >= 2
BAR_FACTORS = {f"C{n}": n for n in range(2, 9)} | {"S2": 2, "S3": 6}
SMALL_SPECS = ["C1", "S1"] + [
    "x".join(parts)
    for r in (1, 2, 3)
    for parts in iproduct(BAR_FACTORS, repeat=r)
    if math.prod(BAR_FACTORS[f] for f in parts) <= 8
]


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_bar_rows_are_the_tuple_slicing_rows(spec):
    """d1 and d2 by index arithmetic are the rows, in order, that slicing
    tuples of group elements gives, under the trivial action and under a
    sign character, on one coordinate and on two."""
    gamma = parse_group(spec)
    sign = homomorphisms(gamma, cyclic(2))[-1]
    for moduli in ((3,), (2, 4)):
        k = len(moduli)
        signed = [IntMatrix.identity(k) if sign[g] == 0 else -IntMatrix.identity(k)
                  for g in range(gamma.order)]
        for mod in (GModule.trivial(gamma, moduli), GModule(gamma, moduli, signed)):
            for p in (1, 2):
                assert _bar_rows(mod, p) == bar_rows(mod, p), (spec, moduli, p)


# --- H^2 ------------------------------------------------------------------

def test_h2_gcd_table():
    for n in range(2, 7):
        for m in range(2, 7):
            mod = GModule.trivial(cyclic(n), (m,))
            group, reps = h2_bar(mod)
            assert group.free_rank == 0
            assert group.torsion_order == math.gcd(n, m), (n, m)
            for rep in reps:
                assert is_module_cocycle(mod, rep)
                assert not is_module_coboundary(mod, rep) or group.is_trivial()


def test_h2_bar_equals_enumeration():
    cases = [
        (cyclic(2), (2,), None),
        (cyclic(2), (4,), None),
        (cyclic(2), (3,), None),
        (cyclic(3), (3,), None),
        (cyclic(4), (2,), None),
        (cyclic(4), (4,), None),
        (cyclic(2), (2, 2), None),
        (direct_product(cyclic(2), cyclic(2)), (2,), None),
        (direct_product(cyclic(2), cyclic(2)), (4,), None),
        (cyclic(2), (4,), [IntMatrix([[1]]), IntMatrix([[-1]])]),
        (cyclic(2), (3,), [IntMatrix([[1]]), IntMatrix([[-1]])]),
        (cyclic(4), (5,), [IntMatrix([[1]]), IntMatrix([[2]]),
                           IntMatrix([[4]]), IntMatrix([[3]])]),
    ]
    for gam, moduli, action in cases:
        if action is None:
            mod = GModule.trivial(gam, moduli)
        else:
            mod = GModule(gam, moduli, tuple(action))
        group, reps = h2_bar(mod)
        assert group.torsion_order == h2_enumerate(mod), (moduli,)
        # representatives are pairwise non-cohomologous
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not cohomologous_module_cocycles(mod, reps[i], reps[j])


def test_h2_tate_cyclic():
    """For cyclic Gamma, |H^2| = |M^Gamma| / |N M| (Tate)."""
    cases = [
        (cyclic(2), (4,), [IntMatrix([[1]]), IntMatrix([[-1]])]),
        (cyclic(3), (9,), None),
        (cyclic(4), (8,), None),
        (cyclic(4), (5,), [IntMatrix([[1]]), IntMatrix([[2]]),
                           IntMatrix([[4]]), IntMatrix([[3]])]),
    ]
    for gam, moduli, action in cases:
        mod = (
            GModule.trivial(gam, moduli)
            if action is None
            else GModule(gam, moduli, tuple(action))
        )
        group, _ = h2_bar(mod)
        fixed = [
            x
            for x in module_elements(mod)
            if all(mod.act(g, x) == x for g in gam.elements())
        ]
        norms = set()
        for x in module_elements(mod):
            acc = mod.zero()
            for g in gam.elements():
                acc = mod.add(acc, mod.act(g, x))
            norms.add(acc)
        assert group.torsion_order == len(fixed) // len(norms)


# One-modulus modules whose (Gamma, action) the `cohomology` benchmark
# workload asks about with several moduli: each modulus is its own key of
# h2_bar's memo.
MEMO_CASES = {
    "C6 trivial": lambda m: GModule.trivial(cyclic(6), (m,)),
    "C6 sign": lambda m: GModule(cyclic(6), (m,), [IntMatrix([[(-1) ** g]]) for g in range(6)]),
    "C4xC2 trivial": lambda m: GModule.trivial(direct_product(cyclic(4), cyclic(2)), (m,)),
}


def _key(module):
    return module.gamma, module.moduli, module.action


def _h2_answer(module):
    """h2_bar's answer, with each representative's entries in order."""
    group, reps = h2_bar(module)
    return group, [list(rep.items()) for rep in reps]


@pytest.mark.parametrize("name", MEMO_CASES)
def test_h2_bar_with_a_warm_memo_equals_a_cold_computation(name, h2_misses):
    """Moduli 2, 3, 4 and 6 in turn, each computed once after the ones
    before it were kept and then read from the memo, give what an empty
    memo gives."""
    cold = {}
    for m in (2, 3, 4, 6):
        cohomology._H2_MEMO.clear()
        cold[m] = _h2_answer(MEMO_CASES[name](m))
    cohomology._H2_MEMO.clear()
    del h2_misses[:]
    for sweep in ("computed", "kept"):
        for m in (2, 3, 4, 6):
            assert _h2_answer(MEMO_CASES[name](m)) == cold[m], (name, sweep, m)
    assert [module.moduli for module in h2_misses] == [(2,), (3,), (4,), (6,)]


def test_h2_bar_leaves_the_memo_entry_unchanged(h2_misses):
    module = MEMO_CASES["C4xC2 trivial"](4)
    h2_bar(module)
    entry = cohomology._H2_MEMO[_key(module)]
    before = copy.deepcopy(entry)
    h2_bar(module)
    assert cohomology._H2_MEMO[_key(module)] is entry
    assert entry == before
    assert len(h2_misses) == 1


def test_h2_bar_eliminates_d2_once_per_miss(monkeypatch, h2_misses):
    """Counted at the elimination itself: d2 of C6 on Z/m has 216 rows
    and 36 columns, and each miss eliminates it, whatever modulus or
    action the memo holds; the elimination of the coordinates of the
    generators has 36 rows.  A hit eliminates nothing."""
    shapes = []

    def counting(s, ncols, **kwargs):
        shapes.append((len(s), ncols))
        return _sparse_smith(s, ncols, **kwargs)

    monkeypatch.setattr(cohomology, "_sparse_smith", counting)
    runs = []
    for name, m in (("C6 trivial", 2), ("C6 trivial", 4), ("C6 trivial", 2), ("C6 sign", 4),
                    ("C6 trivial", 4), ("C6 sign", 4)):
        h2_bar(MEMO_CASES[name](m))
        runs.append(shapes.count((216, 36)))
    assert runs == [1, 2, 2, 3, 3, 3]
    assert len(shapes) == 2 * 3 and len(h2_misses) == 3


def _c2_on_z2(a):
    """C2 on Z/2, the generator acting by the odd integer a: one module,
    with a key of its own for each a."""
    return GModule(cyclic(2), (2,), [IntMatrix([[1]]), IntMatrix([[a]])])


def test_answer_memo_is_bounded(h2_misses):
    """h2_bar's memo keeps at most its bound of modules: eight more
    actions of C2 on Z/2 than the bound are all misses, and then the
    newest is answered from the memo while the oldest, evicted, is
    computed again."""
    bound = cohomology.H2_MEMO_ENTRIES
    assert bound == 128
    modules = [_c2_on_z2(a) for a in range(1, 2 * bound + 17, 2)]
    for module in modules:
        group, _ = h2_bar(module)
        assert group.invariant_factors == (2,)
        assert len(cohomology._H2_MEMO) <= bound
    assert list(cohomology._H2_MEMO) == [_key(module) for module in modules[8:]]
    assert h2_misses == modules
    h2_bar(modules[-1])
    h2_bar(modules[0])
    assert h2_misses == modules + [modules[0]]


def test_a_hit_protects_its_entry_from_the_next_eviction(h2_misses):
    """With the memo full, a hit on the oldest entry makes it the newest,
    so the next miss evicts the second oldest instead."""
    bound = cohomology.H2_MEMO_ENTRIES
    modules = [_c2_on_z2(a) for a in range(1, 2 * bound + 3, 2)]
    for module in modules[:bound]:
        h2_bar(module)
    h2_bar(modules[0])
    h2_bar(modules[bound])
    assert _key(modules[0]) in cohomology._H2_MEMO and _key(modules[1]) not in cohomology._H2_MEMO
    assert list(cohomology._H2_MEMO)[-2:] == [_key(modules[0]), _key(modules[bound])]
    h2_bar(modules[0])
    h2_bar(modules[1])
    assert h2_misses == modules[:bound + 1] + [modules[1]]


def test_a_caller_cannot_change_a_memo_entry(h2_misses):
    """Mutating a returned representative and the returned list leaves
    the next answer, read from h2_bar's memo, what an empty memo gives."""
    module = MEMO_CASES["C4xC2 trivial"](4)
    cold = _h2_answer(module)
    group, reps = h2_bar(module)
    assert group == cold[0] and len(reps) >= 2
    reps[0][(1, 1)] = (3,)
    reps[-1].clear()
    reps.append({(0, 0): (1,)})
    del reps[1]
    assert _h2_answer(module) == cold
    assert len(h2_misses) == 1


def test_the_memo_holds_under_threads(h2_misses):
    """Four threads, switching every microsecond, each ask for more
    modules than the memo keeps: every answer is right, no thread
    raises, and the memo ends within its bound."""
    modules = [_c2_on_z2(a) for a in range(1, 2 * cohomology.H2_MEMO_ENTRIES + 65, 2)]

    def work(order):
        for module in order:
            group, reps = h2_bar(module)
            assert group.invariant_factors == (2,) and len(reps) == 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(work, modules[i:] + modules[:i]) for i in (0, 40, 80, 120)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert len(cohomology._H2_MEMO) == cohomology.H2_MEMO_ENTRIES


def test_normalize_module_cocycle_is_the_coboundary_shift():
    """Subtracting a c from each entry (a, b) gives, entry for entry and in
    the same order, what subtracting the coboundary of the constant map
    at c gives, on random modules with a non-trivial action."""
    rng = random.Random(28)
    for _ in range(40):
        module = random_module(rng)
        n = module.gamma.order
        table = {(a, b): tuple(rng.randrange(d) for d in module.moduli) for a in range(n) for b in range(n)}
        want = normalize_by_coboundary(module, table)
        assert list(normalize_module_cocycle(module, table).items()) == list(want.items())


def test_module_validation():
    with pytest.raises(ValueError):
        # -1 is not an automorphism structure respecting order... 2 acts
        # non-invertibly mod 4
        GModule(cyclic(2), (4,), (IntMatrix([[1]]), IntMatrix([[2]])))


def test_trivial_module_checks_only_its_moduli(monkeypatch):
    """The trivial action needs none of the |Gamma|^2 products and
    congruences the constructor checks; it is the module the constructor
    builds from identity matrices, and a modulus below 1 is refused."""
    gamma, moduli = symmetric(3), (2, 3)
    checked = GModule(gamma, moduli, [IntMatrix.identity(2)] * 6)
    with monkeypatch.context() as patch:
        patch.setattr(GModule, "_congruent", lambda *args: pytest.fail("action checked"))
        module = GModule.trivial(gamma, list(moduli))
        for bad in ((2, 0), (-3,)):
            with pytest.raises(ValueError, match="moduli must be positive"):
                GModule.trivial(gamma, bad)
    assert vars(module) == vars(checked)
    assert h2_bar(module) == h2_bar(checked)


# --- Hom(P, M) transport --------------------------------------------------

def test_hom_module_structure():
    gam = cyclic(2)
    m = GModule.trivial(gam, (4,))
    hm, to_hom, from_hom = hom_module(gam, (2,), m)
    assert hm.moduli == (2,)
    # to_hom sends coordinate 1 to the homomorphism 1 -> 2 in Z/4
    table = to_hom((1,))
    assert table[(1,)] == (2,)
    assert from_hom(table) == (1,)


def test_hom_module_from_z1_roundtrips():
    """Hom(Z/1, M) is zero: its one homomorphism sends 0 to 0, and
    from_hom reads it back without looking up a generator of Z/1."""
    gam = cyclic(2)
    m = GModule(gam, (4, 6), (IntMatrix.identity(2), IntMatrix([[3, 0], [0, 5]])))
    hm, to_hom, from_hom = hom_module(gam, (1,), m)
    assert hm.moduli == (1, 1)
    table = to_hom((0, 0))
    assert table == {(0,): (0, 0)}
    assert from_hom(table) == (0, 0)
    hm, to_hom, from_hom = hom_module(gam, (1, 2), m)
    assert hm.moduli == (1, 1, 2, 2)
    for coords in ((0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)):
        assert from_hom(to_hom(coords)) == coords


@pytest.mark.parametrize("p_moduli", [(0,), (2, 0), (-3,)])
def test_hom_module_refuses_a_modulus_below_one(p_moduli):
    with pytest.raises(ValueError, match="P moduli must be positive"):
        hom_module(cyclic(2), p_moduli, GModule.trivial(cyclic(2), (4,)))


def test_transport_bijection_on_tables():
    gam = cyclic(2)
    m = GModule.trivial(gam, (4,))
    hm, to_hom, from_hom = hom_module(gam, (2,), m)
    tables = enumerate_cocycles(hm)
    seen = set()
    for tab in tables:
        fam = transport_to_family(hm, to_hom, (2,), m, tab)
        for alpha, mtab in fam.items():
            assert is_module_cocycle(m, mtab), alpha
        # additivity in alpha
        for a1 in fam:
            for a2 in fam:
                s = tuple((x + y) % p for x, y, p in zip(a1, a2, (2,)))
                for key in mtab:
                    assert m.add(fam[a1][key], fam[a2][key]) == fam[s][key]
        back = family_to_transport(hm, from_hom, (2,), m, fam)
        assert back == tab
        seen.add(tuple(sorted((k, tuple(v)) for k, v in fam[(1,)].items())))
    assert len(seen) == len(tables)  # injective, hence bijective onto image


# --- K^x cocycles ---------------------------------------------------------

def test_quadratic_cocycle_and_coboundary():
    k = quadratic_field(-1)
    action = GaloisAction.of(k)
    z = quadratic_cocycle(action, -1)
    assert is_two_cocycle_kx(z)
    b = {0: k.one(), 1: k.from_rational(3)}
    db = kx_coboundary_of(action, b)
    assert is_two_cocycle_kx(db)
    assert is_two_cocycle_kx(z * db)
    # db(sigma, sigma) = b(sigma) * sigma(b(sigma)) = 9
    sigma = 1 - action.group.identity
    assert db.value(sigma, sigma) == k.from_rational(9)
    found = kx_is_coboundary(db, [k.from_rational(q) for q in (1, 2, 3, -3)])
    assert found is not None


def test_quadratic_cocycle_refuses_an_irrational_value():
    """zeta(s, s) must be fixed by conjugation; the check reads the
    value's coordinates, not the full cocycle identity."""
    for k in (quadratic_field(-1), quadratic_field(5), cyclotomic_field(3)):
        action = GaloisAction.of(k)
        for c in (k.generator(), k.element([2, 1]), k.element([0, Fraction(-1, 3)])):
            with pytest.raises(ValueError, match=r"^value does not define a cocycle \(must be fixed by conjugation\)$"):
                quadratic_cocycle(action, c)
        z = quadratic_cocycle(action, k.element([Fraction(-7, 2), 0]))
        assert is_two_cocycle_kx(z)


def test_kx_cocycles_compare_their_tables():
    """Two cocycles are equal when their tables are, with equal hashes,
    and so are two data that differ only in the cocycle."""
    action = GaloisAction.of(quadratic_field(-1))
    assert quadratic_cocycle(action, -1) != quadratic_cocycle(action, 2)
    z, same = quadratic_cocycle(action, -1), quadratic_cocycle(action, -1)
    assert z == same and hash(z) == hash(same)
    assert z != trivial_kx_cocycle(action)
    i = action.field.generator()
    untwisted = make_datum(action, trivial_kx_cocycle(action), [[[1]], [[i]]])
    assert untwisted != make_datum(action, quadratic_cocycle(action, -1), [[[1]], [[i]]])
    assert untwisted == make_datum(action, trivial_kx_cocycle(action), [[[1]], [[i]]])


def test_invalid_cocycle_detected():
    k = cyclotomic_field(5)
    action = GaloisAction.of(k)
    z = trivial_kx_cocycle(action)
    values = dict(z.values)
    values[(1, 1)] = k.generator()  # breaks the cocycle identity
    bad = type(z)(action, values)
    ok, witness = is_two_cocycle_kx(bad, report=True)
    assert not ok and witness is not None


def test_cyclic_norm_classes():
    k = quadratic_field(-1)
    action = GaloisAction.of(k)
    classes = CyclicNormClasses(action)

    def is_trivial(cocycle):
        return classes.is_trivial_element(classes.class_element(cocycle))

    assert is_trivial(trivial_kx_cocycle(action))
    assert not is_trivial(quadratic_cocycle(action, -1))
    assert is_trivial(quadratic_cocycle(action, 2))
    # coboundaries are trivial
    b = {0: k.one(), 1: k.element([1, 1])}
    assert is_trivial(kx_coboundary_of(action, b))


def test_norm_class_of_zeta5_coboundary():
    k = cyclotomic_field(5)
    action = GaloisAction.of(k)
    rng = random.Random(2)
    b = {g: k.element([Fraction(rng.randint(-2, 2)) for _ in range(4)])
         for g in action.group.elements()}
    for g in b:
        if not b[g]:
            b[g] = k.one()
    db = kx_coboundary_of(action, b)
    assert is_two_cocycle_kx(db)
    classes = CyclicNormClasses(action)
    c = classes.class_element(db.normalized())
    # class element of a coboundary is a norm; here we can only check it
    # is a well-defined nonzero rational
    assert c != 0


# --- boundary map ---------------------------------------------------------

def _mod4_extension():
    gam = cyclic(2)
    z = GGroup.trivial_action(gam, cyclic(2))
    b = GGroup.trivial_action(gam, cyclic(4))
    c = GGroup.trivial_action(gam, cyclic(2))
    return CentralExtension(
        z=z, b=b, c=c, inclusion=(0, 2), projection=(0, 1, 0, 1)
    )


def test_boundary_lifting_criterion():
    ext = _mod4_extension()
    gam = ext.z.gamma
    zmod = GModule.trivial(gam, (2,))
    for f in one_cocycles(ext.c):
        table = boundary_map(ext, f)
        trivial = is_module_coboundary(zmod, {k: (v,) for k, v in table.items()}) is not None
        # exhaustive lift search: does f lift to a 1-cocycle in B?
        lifts_found = False
        candidates = [
            [x for x in range(4) if ext.projection[x] == f[a]]
            for a in gam.elements()
        ]
        for choice in iproduct(*candidates):
            if is_one_cocycle(ext.b, tuple(choice)):
                lifts_found = True
                break
        assert trivial == lifts_found, f


def test_boundary_class_independent_of_lift():
    """boundary_map lifts each c(a) to the first element of its fiber;
    every other choice of lifts, the identity's included, gives a
    cohomologous cocycle."""
    ext = _mod4_extension()
    gam = ext.z.gamma
    zmod = GModule.trivial(gam, (2,))
    for f in one_cocycles(ext.c):
        t0 = boundary_map(ext, f)
        fibers = [[x for x in range(4) if ext.projection[x] == f[a]] for a in gam.elements()]
        choices = list(iproduct(*fibers))
        assert len(choices) == 4
        for lifts in choices:
            t1 = boundary_with_lifts(ext, f, lifts)
            diff = {k: ((t0[k] - t1[k]) % 2,) for k in t0}
            assert is_module_coboundary(zmod, diff) is not None, (f, lifts)


def test_boundary_rejects_non_cocycle():
    ext = _mod4_extension()
    with pytest.raises(ValueError):
        boundary_map(ext, (1, 0))  # f(identity) != identity
