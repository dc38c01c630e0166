"""Root data, duality, fundamental groups, outer automorphisms."""

from itertools import permutations

import pytest

from galforms.exact_linalg import IntMatrix, smith_normal_form
from galforms.root_datum import (
    BasedRootDatum,
    RootDatum,
    _cartan_permutations,
    _closure,
    build_root_datum,
    cartan_matrix,
    dual,
    fundamental_group,
    outer_automorphisms,
    pairing,
)

ALL_LABELS = (
    ["A%d" % n for n in range(1, 9)]
    + ["B%d" % n for n in range(2, 9)]
    + ["C%d" % n for n in range(2, 9)]
    + ["D%d" % n for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

SMALL_LABELS = ["A1", "A2", "A3", "B2", "C3", "D4", "G2", "F4"]


def test_cartan_matrices_are_cartan():
    for label in ALL_LABELS:
        fam, n = label[0], int(label[1:])
        c = cartan_matrix(fam, n)
        for i in range(n):
            assert c[i][i] == 2
            for j in range(n):
                if i != j:
                    assert c[i][j] <= 0
                    assert (c[i][j] == 0) == (c[j][i] == 0)


def test_root_counts():
    expected = {
        "A1": 2, "A2": 6, "A3": 12, "B2": 8, "C3": 18,
        "D4": 24, "G2": 12, "F4": 48, "E6": 72,
    }
    for label, count in expected.items():
        for iso in ("simply_connected", "adjoint"):
            brd = build_root_datum(label, iso)
            assert len(brd.datum.roots) == count, label


def test_pairing_normalization():
    for label in SMALL_LABELS:
        brd = build_root_datum(label)
        for a, av in zip(brd.datum.roots, brd.datum.coroots):
            assert pairing(a, av) == 2


def test_duality_involution_all_types():
    for label in ALL_LABELS:
        for iso in ("simply_connected", "adjoint"):
            brd = build_root_datum(label, iso)
            assert dual(dual(brd)) == brd, (label, iso)
    for rank in (0, 1, 3):
        brd = build_root_datum(f"T{rank}")
        assert dual(dual(brd)) == brd


def test_built_and_dual_data_pass_the_public_constructors():
    """build_root_datum and dual skip the constructors' checks; the data
    they make pass them."""
    for label in SMALL_LABELS + ["B5", "D6", "E6"]:
        for iso in ("simply_connected", "adjoint"):
            for brd in (build_root_datum(label, iso), dual(build_root_datum(label, iso))):
                d = brd.datum
                checked = BasedRootDatum(RootDatum(d.rank, d.roots, d.coroots), brd.simple_indices)
                assert checked == brd, (label, iso)


def test_closure_coordinates():
    """Each root is the combination of the simple roots, and each coroot
    of the simple coroots, with the coordinates the closure carries."""
    for label in SMALL_LABELS + ["E8"]:
        for iso in ("simply_connected", "adjoint"):
            brd = build_root_datum(label, iso)
            simple = list(zip(brd.simple_roots, brd.simple_coroots))
            coords = _closure(simple)
            assert set(coords) == set(zip(brd.datum.roots, brd.datum.coroots))
            for (root, coroot), (c, d) in coords.items():
                assert root == tuple(sum(x * a[i] for x, (a, _) in zip(c, simple)) for i in range(len(root)))
                assert coroot == tuple(sum(x * av[i] for x, (_, av) in zip(d, simple)) for i in range(len(root)))


def test_root_datum_checks_the_coroot_half():
    """s_alpha(R) = R holds here but s_alpha^vee(R^vee) = R^vee fails:
    the reflection in (1, 0) sends the coroot (-2, 1) to (2, 1)."""
    with pytest.raises(ValueError, match="coroots"):
        RootDatum(2, ((1, 0), (-1, 0)), ((2, 0), (-2, 1)))
    with pytest.raises(ValueError, match="preserve roots"):
        RootDatum(2, ((2, 0), (-2, 1)), ((1, 0), (-1, 0)))


def test_public_based_datum_rejects_a_non_base():
    brd = build_root_datum("A2", "simply_connected")
    roots = brd.datum.roots
    a1, a2 = brd.simple_roots
    a12 = tuple(x + y for x, y in zip(a1, a2))
    minus_a1 = tuple(-x for x in a1)
    assert BasedRootDatum(brd.datum, brd.simple_indices) == brd
    for simple in ((a1, a12), (a1, minus_a1), (a1,)):
        with pytest.raises(ValueError):
            BasedRootDatum(brd.datum, tuple(roots.index(r) for r in simple))


def test_dual_swaps_pi1_direction():
    # dual of sc is adjoint-like: pi1(dual(sc)) is trivial iff pi1(adjoint) is
    sc = build_root_datum("A2", "simply_connected")
    assert fundamental_group(sc).is_trivial()
    assert fundamental_group(dual(sc)).invariant_factors == (3,)


def test_pi1_simply_connected_trivial():
    for label in ALL_LABELS:
        group = fundamental_group(build_root_datum(label, "simply_connected"))
        assert group.is_trivial(), label


def test_pi1_adjoint_is_cartan_snf():
    known = {"A1": (2,), "A2": (3,), "D4": (2, 2), "E6": (3,), "E8": (), "F4": (), "G2": ()}
    for label in ALL_LABELS:
        fam, n = label[0], int(label[1:])
        group = fundamental_group(build_root_datum(label, "adjoint"))
        # oracle: SNF of the Cartan matrix
        s, _, _ = smith_normal_form(IntMatrix(cartan_matrix(fam, n)))
        diag = [s[t, t] for t in range(n)]
        expected = tuple(d for d in diag if d > 1)
        assert group.invariant_factors == expected, label
        assert group.free_rank == 0
        if label in known:
            assert group.invariant_factors == known[label]


def test_torus_pi1():
    group = fundamental_group(build_root_datum("T2"))
    assert group.invariant_factors == ()
    assert group.free_rank == 2


def _cartan_filter(c):
    """Oracle: permutations of the simple roots preserving the Cartan
    matrix, filtered from all of them."""
    n = len(c)
    return [
        p for p in permutations(range(n))
        if all(c[p[i]][p[j]] == c[i][j] for i in range(n) for j in range(n))
    ]


def test_outer_orders():
    expected = {
        "A1": 1, "A2": 2, "A3": 2, "A4": 2,
        "B2": 1, "C3": 1, "D4": 6, "D5": 2, "E6": 2, "E7": 1, "F4": 1, "G2": 1,
    }
    for label, order in expected.items():
        fam, n = label[0], int(label[1:])
        for iso in ("simply_connected", "adjoint"):
            group, elements = outer_automorphisms(build_root_datum(label, iso))
            assert group.order == order, (label, iso)
        assert len(_cartan_filter(cartan_matrix(fam, n))) == order, label


def test_cartan_permutations_match_the_filter():
    """Backtracking gives exactly the Cartan-preserving permutations, in
    the order of itertools.permutations; in both isogenies each of them
    is an outer automorphism."""
    for label in ALL_LABELS:
        c = cartan_matrix(label[0], int(label[1:]))
        assert list(_cartan_permutations(c)) == _cartan_filter(c), label
        for iso in ("simply_connected", "adjoint"):
            brd = build_root_datum(label, iso)
            expected = _cartan_filter(brd.cartan_matrix())
            assert list(_cartan_permutations(brd.cartan_matrix())) == expected, (label, iso)
            _, elements = outer_automorphisms(brd)
            assert [e.simple_permutation for e in elements] == expected, (label, iso)


def test_outer_elements_act_correctly():
    brd = build_root_datum("D4", "simply_connected")
    group, elements = outer_automorphisms(brd)
    roots = set(brd.datum.roots)
    coroots = set(brd.datum.coroots)
    for el in elements:
        for r in brd.datum.roots:
            assert tuple(el.char_matrix.apply(r)) in roots
        for cr in brd.datum.coroots:
            assert tuple(el.cochar_matrix.apply(cr)) in coroots
        # pairing preserved
        for r, cr in zip(brd.datum.roots, brd.datum.coroots):
            assert pairing(el.char_matrix.apply(r), el.cochar_matrix.apply(cr)) == 2


def test_outer_requires_semisimple():
    with pytest.raises(ValueError):
        outer_automorphisms(build_root_datum("T1"))


def test_dominance():
    brd = build_root_datum("A2", "adjoint")
    # in adjoint coordinates X^vee has the fundamental coweights as basis
    assert brd.is_dominant_coweight((1, 0))
    assert brd.is_dominant_coweight((0, 1))
    assert brd.is_dominant_coweight((0, 0))
    sc = build_root_datum("A2", "simply_connected")
    # simple coroots are not dominant
    assert not sc.is_dominant_coweight((1, 0))
    assert sc.is_dominant_coweight((1, 1))


def test_bad_labels():
    with pytest.raises(ValueError):
        build_root_datum("Z9")
    with pytest.raises(ValueError):
        build_root_datum("A0")
    with pytest.raises(ValueError):
        build_root_datum("E9")


# --- memoisation --------------------------------------------------------

def test_build_root_datum_is_shared():
    """One datum per (family, rank, isogeny), whatever the label's
    spelling; the isogenies stay apart; tori are built afresh."""
    e8 = build_root_datum("E8", "adjoint")
    assert build_root_datum("E8", "adjoint") is e8
    assert build_root_datum("  e8\n", "adjoint") is e8
    assert build_root_datum("A2") is build_root_datum("A2", "simply_connected")
    sc, ad = build_root_datum("A2", "simply_connected"), build_root_datum("A2", "adjoint")
    assert sc is not ad
    assert sc.datum.roots != ad.datum.roots
    assert build_root_datum("T2") == build_root_datum("T2")


def test_outer_automorphisms_once_per_datum():
    brd = build_root_datum("D4", "adjoint")
    group, elements = outer_automorphisms(brd)
    assert isinstance(elements, tuple)
    again = outer_automorphisms(build_root_datum("D4", "adjoint"))
    assert again[0] is group and again[1] is elements


def test_outer_automorphisms_of_a_public_datum():
    """A datum made by the public constructors, equal to a built one, has
    the same outer automorphisms."""
    built = build_root_datum("A3", "adjoint")
    brd = BasedRootDatum(
        RootDatum(3, built.datum.roots, built.datum.coroots), built.simple_indices
    )
    group, elements = outer_automorphisms(brd)
    assert outer_automorphisms(brd)[1] is elements
    assert group == outer_automorphisms(built)[0]
    assert elements == outer_automorphisms(built)[1]


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_root_datum("Z9"),
        lambda: build_root_datum("A0"),
        lambda: build_root_datum("A9"),
        lambda: build_root_datum("E8", "isogenous"),
        lambda: outer_automorphisms(build_root_datum("T1")),
    ],
    ids=["family", "rank-0", "rank-9", "isogeny", "outer-torus"],
)
def test_errors_are_not_cached(call):
    for _ in range(3):
        with pytest.raises(ValueError):
            call()
