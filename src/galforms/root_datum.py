"""Root data for reductive groups.

Root data are stored with explicit finite root/coroot lists in coordinates
on the character lattice X and cocharacter lattice X^vee (the pairing is
the standard dot product).  Supports the classical and exceptional types
up to rank 8, both isogeny types, tori, duality, the fundamental group,
and the group of based-datum (diagram) automorphisms together with its
action on coweights.  The public constructors validate their input; the
builders here check the coordinates their reflection closure carries and
construct through `_trusted`.  The builders are memoised: every label of
one type and isogeny gives the same shared, immutable datum, and its
outer automorphisms are computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul

from .exact_linalg import IntMatrix, cokernel
from .groups import FiniteGroup
from . import qlinalg
from .qlinalg import _scaled_matrix

_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


def cartan_matrix(family, n):
    """Cartan matrix C with C[i][j] = <alpha_j, alpha_i^vee> (Bourbaki
    numbering)."""
    if family == "A":
        if n < 1:
            raise ValueError("A_n needs n >= 1")
    elif family == "B" or family == "C":
        if n < 2:
            raise ValueError(f"{family}_n needs n >= 2")
    elif family == "D":
        if n < 3:
            raise ValueError("D_n needs n >= 3")
    elif family == "E":
        if n not in (6, 7, 8):
            raise ValueError("E_n needs n in {6,7,8}")
    elif family == "F":
        if n != 4:
            raise ValueError("F_n needs n = 4")
    elif family == "G":
        if n != 2:
            raise ValueError("G_n needs n = 2")
    else:
        raise ValueError(f"unknown family {family!r}")

    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i, j, a=-1, b=-1):
        c[i][j] = a
        c[j][i] = b

    if family in ("A", "B", "C"):
        for i in range(n - 1):
            link(i, i + 1)
        if family == "B" and n >= 2:
            # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
            link(n - 2, n - 1, a=-1, b=-2)
        if family == "C" and n >= 2:
            # alpha_n long
            link(n - 2, n - 1, a=-2, b=-1)
    elif family == "D":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 3, n - 1)
    elif family == "E":
        # Bourbaki: node 2 attaches to node 4 (1-indexed); chain 1-3-4-5-...
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for i, j in zip(chain, chain[1:]):
            link(i, j)
        link(1, 3)
    elif family == "F":
        link(0, 1)
        link(1, 2, a=-2, b=-1)
        link(2, 3)
    elif family == "G":
        link(0, 1, a=-1, b=-3)
    return c


@dataclass(frozen=True)
class RootDatum:
    """Root datum (X, R, X^vee, R^vee) in coordinates; the pairing of
    x in X with y in X^vee is the dot product."""

    rank: int
    roots: tuple          # tuple of X-coordinate tuples
    coroots: tuple        # tuple of X^vee-coordinate tuples, in bijection

    def __post_init__(self):
        """Check <alpha, alpha^vee> = 2, s_alpha(R) = R and
        s_alpha^vee(R^vee) = R^vee for every pair."""
        if len(self.roots) != len(self.coroots):
            raise ValueError("roots and coroots must be in bijection")
        for a, av in zip(self.roots, self.coroots):
            if pairing(a, av) != 2:
                raise ValueError(f"<alpha, alpha^vee> != 2 for {a}, {av}")
        root_set = set(self.roots)
        coroot_set = set(self.coroots)
        for a, av in zip(self.roots, self.coroots):
            if any(reflect(x, a, av) not in root_set for x in self.roots):
                raise ValueError(f"reflection in {a} does not preserve roots")
            if any(coreflect(y, a, av) not in coroot_set for y in self.coroots):
                raise ValueError(f"reflection in {av} does not preserve coroots")

    def is_semisimple(self):
        if not self.roots:
            return self.rank == 0
        return qlinalg.rank(self.roots) == self.rank


def pairing(x, y):
    return sum(map(mul, x, y))


def reflect(x, alpha, alpha_vee):
    """s_alpha(x) = x - <x, alpha^vee> alpha."""
    c = pairing(x, alpha_vee)
    return tuple(a - c * b for a, b in zip(x, alpha))


def coreflect(y, alpha, alpha_vee):
    """Dual reflection on X^vee: y - <alpha, y> alpha^vee."""
    c = pairing(alpha, y)
    return tuple(a - c * b for a, b in zip(y, alpha_vee))


@dataclass(frozen=True)
class BasedRootDatum:
    datum: RootDatum
    simple_indices: tuple  # indices into datum.roots

    def __post_init__(self):
        self._check_positivity()

    def _check_positivity(self):
        """The simple roots are independent, simple reflections reach every
        pair from a simple pair, and the coordinates have one sign each."""
        datum = self.datum
        simple = [(datum.roots[i], datum.coroots[i]) for i in self.simple_indices]
        if qlinalg.rank(self.simple_roots) != len(simple):
            raise ValueError("simple roots are linearly dependent")
        coords = _closure(simple)
        if set(coords) != set(zip(datum.roots, datum.coroots)):
            raise ValueError("simple reflections do not carry the simple roots onto every root")
        _check_signs(coords)

    @cached_property
    def simple_roots(self):
        return tuple(self.datum.roots[i] for i in self.simple_indices)

    @property
    def simple_coroots(self):
        return tuple(self.datum.coroots[i] for i in self.simple_indices)

    def cartan_matrix(self):
        return [
            [pairing(b, av) for b in self.simple_roots]
            for av in self.simple_coroots
        ]

    def is_dominant_coweight(self, coweight):
        return all(pairing(a, coweight) >= 0 for a in self.simple_roots)


def _closure(simple_pairs):
    """Closure of the simple (root, coroot) pairs under the simple
    reflections, as a dict from each pair to its coordinates on the simple
    roots and on the simple coroots; s_i changes only coordinate i."""
    k = len(simple_pairs)
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    coords = {pair: (unit, unit) for pair, unit in zip(simple_pairs, units)}
    frontier = list(coords)
    while frontier:
        root, coroot = pair = frontier.pop()
        c, d = coords[pair]
        for i, (s_root, s_coroot) in enumerate(simple_pairs):
            new = (reflect(root, s_root, s_coroot), coreflect(coroot, s_root, s_coroot))
            if new not in coords:
                new_c, new_d = list(c), list(d)
                new_c[i] -= pairing(root, s_coroot)
                new_d[i] -= pairing(s_root, coroot)
                coords[new] = (tuple(new_c), tuple(new_d))
                frontier.append(new)
    return coords


def _check_signs(coords):
    for (root, coroot), (c, d) in coords.items():
        if min(c) < 0 < max(c):
            raise ValueError(f"root {root} is not +/- integral combination of simple roots")
        if min(d) < 0 < max(d):
            raise ValueError(f"coroot {coroot} is not +/- integral combination of simple coroots")


def _trusted(rank, roots, coroots, simple_indices):
    """BasedRootDatum from data known to be valid, without the checks of
    the public constructors."""
    datum = object.__new__(RootDatum)
    vars(datum).update(rank=rank, roots=roots, coroots=coroots)
    brd = object.__new__(BasedRootDatum)
    vars(brd).update(datum=datum, simple_indices=simple_indices)
    return brd


def build_root_datum(label, isogeny="simply_connected"):
    """Based root datum for a Cartan label 'A1'..'E8', 'F4', 'G2', or a
    torus 'T<rank>'.  isogeny: 'simply_connected' or 'adjoint' (ignored
    for tori).  A Cartan type gives one shared datum per (family, rank,
    isogeny) for the life of the process."""
    label = label.strip()
    if not label:
        raise ValueError("empty type label")
    family = label[0].upper()
    try:
        n = int(label[1:])
    except ValueError:
        kind = "torus" if family == "T" else "type"
        raise ValueError(f"bad {kind} label {label!r}") from None
    if n > 8:
        raise ValueError("rank > 8 not supported")
    if family == "T":
        return torus(n)
    return _cartan_datum(family, n, isogeny)


@lru_cache(maxsize=None)
def _cartan_datum(family, n, isogeny):
    """The datum of a Cartan type; a ValueError is raised, not cached, so
    only valid types (fewer than a hundred) are kept."""
    c = cartan_matrix(family, n)
    if isogeny == "simply_connected":
        # X^vee basis = simple coroots; simple root j = column j of C
        simple_pairs = [
            (tuple(c[i][j] for i in range(n)), tuple(1 if i == j else 0 for i in range(n)))
            for j in range(n)
        ]
    elif isogeny == "adjoint":
        # X basis = simple roots; simple coroot i = row i of C
        simple_pairs = [
            (tuple(1 if i == j else 0 for i in range(n)), tuple(c[j][i] for i in range(n)))
            for j in range(n)
        ]
    else:
        raise ValueError(f"unknown isogeny {isogeny!r}")
    # The closure is stable under every s_beta: beta = w(alpha_i) gives
    # s_beta = w s_i w^-1, and dually on the coroots (Bourbaki VI.1.5), so
    # only <alpha, alpha^vee> = 2 and the signs remain to check.
    coords = _closure(simple_pairs)
    all_pairs = sorted(coords)
    for root, coroot in all_pairs:
        if pairing(root, coroot) != 2:
            raise ValueError(f"<alpha, alpha^vee> != 2 for {root}, {coroot}")
    _check_signs(coords)
    simple_set = set(simple_pairs)
    simple_indices = tuple(i for i, p in enumerate(all_pairs) if p in simple_set)
    roots, coroots = zip(*all_pairs)
    return _trusted(n, roots, coroots, simple_indices)


def torus(rank):
    if rank < 0:
        raise ValueError("T_n needs n >= 0")
    return BasedRootDatum(RootDatum(rank, (), ()), ())


def dual(brd):
    """Langlands duality: swap X with X^vee and roots with coroots.
    An exact involution; the axioms are symmetric in the two halves, so
    the dual of a valid datum needs no checks."""
    datum = brd.datum
    return _trusted(datum.rank, datum.coroots, datum.roots, brd.simple_indices)


def fundamental_group(brd):
    """pi_1 = X^vee / (span of coroots), including any free part from
    central torus directions."""
    coroots = brd.datum.coroots
    m = IntMatrix([[cr[i] for cr in coroots] for i in range(brd.datum.rank)])
    group, _proj = cokernel(m)
    return group


@dataclass(frozen=True)
class OuterAutomorphism:
    """Automorphism of a based root datum: simultaneous lattice
    automorphisms of X and X^vee preserving the pairing and the simple
    system, recorded with the induced simple-root permutation."""

    char_matrix: IntMatrix    # action on X
    cochar_matrix: IntMatrix  # action on X^vee (transpose-inverse)
    simple_permutation: tuple


def outer_automorphisms(brd):
    """All based-datum automorphisms, with the group structure.

    Returns (group, elements): a FiniteGroup whose element i multiplies as
    composition of elements[i], a tuple.  Computed by enumerating
    Cartan-matrix preserving permutations of the simple roots, in
    lexicographic order, and keeping the ones that extend to automorphisms
    of both lattices; once per datum, which keeps the result.  Requires a
    semisimple datum (roots of full rank)."""
    cached = vars(brd).get("_outer")
    if cached is None:
        cached = vars(brd)["_outer"] = _outer_automorphisms(brd)
    return cached


def _outer_automorphisms(brd):
    datum = brd.datum
    if not datum.is_semisimple():
        raise ValueError("outer automorphism enumeration requires a semisimple datum")
    n = datum.rank
    # The map of X sending alpha_j to alpha_perm(j) has the inverse
    # transpose sending alpha_j^vee to alpha_perm(j)^vee, as the Cartan
    # matrix is preserved; so it is invertible over Z iff both are integral.
    # Each basis matrix has inverse N / D with N integral, and target * N
    # must be divisible by D.
    bases = []
    for basis in (brd.simple_roots, brd.simple_coroots):
        inverse, den = _scaled_matrix(qlinalg.mat_inv([[v[i] for v in basis] for i in range(n)]))
        bases.append((basis, inverse, den))
    root_set = set(datum.roots)
    coroot_set = set(datum.coroots)
    valid = []
    for perm in _cartan_permutations(brd.cartan_matrix()):
        maps = []
        for basis, inverse, den in bases:
            target = [[basis[p][i] for p in perm] for i in range(n)]
            m = qlinalg.mat_mul(target, inverse)
            if any(x % den for row in m for x in row):
                break
            maps.append(IntMatrix([[x // den for x in row] for row in m]))
        else:
            m, mv = maps
            if all(m.apply(r) in root_set for r in datum.roots) and all(
                mv.apply(cr) in coroot_set for cr in datum.coroots
            ):
                valid.append(OuterAutomorphism(m, mv, perm))

    perms = [aut.simple_permutation for aut in valid]
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for a in valid:
        row = []
        for b in valid:
            composed = tuple(a.simple_permutation[i] for i in b.simple_permutation)
            row.append(index[composed])
        table.append(row)
    group = FiniteGroup(table)
    return group, tuple(valid)


def _cartan_permutations(c, perm=()):
    """Permutations p with c[p[i]][p[j]] == c[i][j], in lexicographic
    order, by backtracking: a prefix is extended only by a value whose row
    and column agree with the positions already placed."""
    i = len(perm)
    if i == len(c):
        yield perm
        return
    for v in range(len(c)):
        if v not in perm and c[v][v] == c[i][i] and all(
            c[v][p] == c[i][j] and c[p][v] == c[j][i] for j, p in enumerate(perm)
        ):
            yield from _cartan_permutations(c, perm + (v,))
