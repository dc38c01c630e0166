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
from oracles import outer_automorphisms_two_bases, pi1_all_coroots
from random_data import MOVE, SO8, rebased

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
    for label in ALL_LABELS:
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
    # more simple roots than the rank: a ValueError, not an IndexError
    with pytest.raises(ValueError, match="linearly dependent"):
        BasedRootDatum(brd.datum, tuple(roots.index(r) for r in (a1, a2, a12)))


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


@pytest.mark.parametrize("label", ["D3"] + ALL_LABELS + [f"T{n}" for n in range(9)])
def test_pi1_from_the_simple_coroots_is_pi1_from_every_coroot(label):
    """The simple coroots span the coroot lattice: pi_1 read off them
    without transforms is the cokernel of every coroot, in both
    isogenies and on the duals."""
    for isogeny in ("simply_connected", "adjoint"):
        brd = build_root_datum(label, isogeny)
        for b in (brd, dual(brd)):
            assert fundamental_group(b) == pi1_all_coroots(b), (label, isogeny, b is brd)


@pytest.mark.parametrize("label", ["A+2", " A2", "a2", "A\u0662", "T+1", "T-1", "  e8\n", "H2", "A", ""])
def test_type_labels_follow_one_pattern(label):
    """A type label is [A-GT][0-9]+; int(), strip() and upper() no longer
    read '+2', spaces, a lower-case family or non-ASCII digits."""
    with pytest.raises(ValueError, match="bad type label"):
        build_root_datum(label)


@pytest.mark.parametrize("rank, roots, coroots, error", [
    (-1, (), (), "rank must be >= 0"),
    (2, ((2,), (-2,)), ((1,), (-1,)), "need 2 coordinates"),
    (1, ((2,), (-2,)), ((1, 0), (-1, 0)), "need 1 coordinates"),
])
def test_root_datum_checks_rank_and_coordinates(rank, roots, coroots, error):
    """The public constructor refuses a negative rank and a root or coroot
    without rank coordinates, which fundamental_group would index past."""
    with pytest.raises(ValueError, match=error):
        RootDatum(rank, roots, coroots)
    assert RootDatum(1, ((2,), (-2,)), ((1,), (-1,))).rank == 1


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


OUTER_DATA = (
    [f"{label}-{iso}{side}" for label in ALL_LABELS
     for iso in ("simply_connected", "adjoint") for side in ("", "-dual")]
    + ["T0", "D4-adjoint-moved", "D4-so8"]
)


def _outer_datum(name):
    """The datum an OUTER_DATA name stands for."""
    if name == "T0":
        return build_root_datum("T0")
    if name == "D4-adjoint-moved":
        return rebased(build_root_datum("D4", "adjoint"), MOVE)
    if name == "D4-so8":
        return rebased(build_root_datum("D4", "simply_connected"), SO8)
    label, iso, *side = name.split("-")
    brd = build_root_datum(label, iso)
    return dual(brd) if side else brd


@pytest.mark.parametrize("name", OUTER_DATA)
def test_outer_automorphisms_match_the_two_basis_oracle(name):
    """One Smith form of the simple roots gives the permutations, group
    table and both matrices that inverting both bases over Q and checking
    R and R^vee gave."""
    brd = _outer_datum(name)
    group, elements = outer_automorphisms(brd)
    want_group, want = outer_automorphisms_two_bases(brd)
    assert [e.simple_permutation for e in elements] == [e.simple_permutation for e in want]
    assert group.table == want_group.table
    assert [e.char_matrix for e in elements] == [e.char_matrix for e in want]
    assert [e.cochar_matrix for e in elements] == [e.cochar_matrix for e in want]


def test_out_of_so8_fixes_the_leaf_in_its_lattice():
    """Of the six symmetries of D4, SO(8)'s lattice keeps the identity and
    the swap of the two leaves whose weights it does not hold: the
    permutation that would move omega_1 does not extend."""
    sc = build_root_datum("D4", "simply_connected")
    c = cartan_matrix("D", 4)
    # node j of Bourbaki's numbering is simple root node[j] of the datum
    node = [sc.simple_roots.index(tuple(row[j] for row in c)) for j in range(4)]
    swap = [0] * 4
    for j, k in enumerate((0, 1, 3, 2)):
        swap[node[j]] = node[k]
    group, elements = outer_automorphisms(rebased(sc, SO8))
    assert group.order == 2
    assert [e.simple_permutation for e in elements] == [(0, 1, 2, 3), tuple(swap)]


@pytest.mark.parametrize("name", OUTER_DATA)
def test_outer_elements_act_correctly(name):
    """Each element maps R onto R and R^vee onto R^vee, sends the simple
    roots by its permutation, and its matrices are inverse transposes."""
    brd = _outer_datum(name)
    roots, coroots = set(brd.datum.roots), set(brd.datum.coroots)
    simple = brd.simple_roots
    for el in outer_automorphisms(brd)[1]:
        assert {el.char_matrix.apply(r) for r in roots} == roots
        assert {el.cochar_matrix.apply(cr) for cr in coroots} == coroots
        assert [el.char_matrix.apply(a) for a in simple] == [simple[p] for p in el.simple_permutation]
        assert el.char_matrix * el.cochar_matrix.transpose() == IntMatrix.identity(brd.datum.rank)


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
    """One datum per (family, rank, isogeny); the isogenies stay apart;
    tori are built afresh."""
    e8 = build_root_datum("E8", "adjoint")
    assert build_root_datum("E8", "adjoint") is e8
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
