"""Classification-level constructions: quasi-split forms via outer
homomorphisms, cocharacter coinvariants of a quasi-split twist, and the
inner-form invariant pi_1(G) -> Br(K/k) with its presenting pairs."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .exact_linalg import coinvariants
from .fields import BrauerClass, brauer_class_quaternion, quadratic_field
from .groups import homomorphisms
from .root_datum import fundamental_group, outer_automorphisms


@dataclass(frozen=True)
class QuasiSplitForm:
    """A homomorphism Gamma -> Out(G), up to conjugation in Out; the
    stored table is the lexicographically least member of its class."""

    rho: tuple       # Out-element index per Gamma element
    class_id: int


def classify_quasisplit(gamma, out):
    """All homomorphisms Gamma -> Out partitioned by post-conjugation in
    Out; one canonical (lexicographically least) representative per
    class, ordered by representative."""
    homs = homomorphisms(gamma, out)
    classes = []
    seen = set()
    for h in homs:
        if h in seen:
            continue
        orbit = set()
        for c in out.elements():
            orbit.add(tuple(out.conjugate(c, x) for x in h))
        seen |= orbit
        classes.append(min(orbit))
    classes.sort()
    return [QuasiSplitForm(rho, i) for i, rho in enumerate(classes)]


@dataclass(frozen=True)
class CocharacterData:
    coinvariants: object   # FiniteAbelianGroup
    projection: object     # IntMatrix, lattice coords -> quotient coords
    orbits: tuple          # tuple of orbits, each a tuple of coweight tuples
    fixed_rank: int
    moved_rank: int


class _NotAHomomorphism(ValueError):
    """rho is the table of no homomorphism from any group into Out."""


# Most points of the box [0, height]^rank that the dominant coweights are
# read from: every rank-8 type at the default height 4 (5^8 = 390625
# points) is inside.
COWEIGHT_BOX_BUDGET = 10**6


def quasisplit_cocharacter_data(brd, form, height=4):
    """Coinvariants of the Gamma-action on the cocharacter lattice given
    by a quasi-split form, plus the Gamma-orbits on the dominant coweights
    with coordinates in [0, height]; the box may hold at most
    COWEIGHT_BOX_BUDGET points."""
    out_group, out_elements = outer_automorphisms(brd)
    rho = form.rho if isinstance(form, QuasiSplitForm) else tuple(form)
    if any(not 0 <= x < out_group.order for x in rho):
        raise _NotAHomomorphism("rho does not land in the outer automorphism group")
    # The source group is implicit, so check what every homomorphism
    # satisfies: element 0 (the identity) maps to the identity, the image
    # is a subgroup, and the fibres, cosets of the kernel, have one size.
    image = dict.fromkeys(rho)  # in order of first appearance
    if not rho or rho[0] != out_group.identity:
        raise _NotAHomomorphism("rho must map element 0 to the identity of Out")
    if any(out_group.table[x][y] not in image for x in image for y in image):
        raise _NotAHomomorphism("the image of rho is not closed under multiplication")
    if len({rho.count(y) for y in image}) > 1:
        raise _NotAHomomorphism("the fibres of rho have unequal sizes")
    rank = brd.datum.rank
    if (height + 1) ** rank > COWEIGHT_BOX_BUDGET:
        raise ValueError(
            f"coweight box of {height + 1}^{rank} points exceeds the budget of "
            f"{COWEIGHT_BOX_BUDGET}"
        )
    # One matrix per element of the image, the identity first: the g - 1
    # span the same lattice as over all of Gamma, and the orbit of w is
    # the set of its images under them.
    matrices = [out_elements[x].cochar_matrix for x in image]
    # Over Q, V = V^Gamma + sum im(g - 1) for a finite group, so the free
    # rank of the coinvariants is the rank of the fixed sublattice.
    group, projection = coinvariants(rank, matrices)
    dominant = [w for w in iproduct(range(height + 1), repeat=rank)
                if brd.is_dominant_coweight(w)]
    dominant_set = set(dominant)
    orbits = []
    placed = set()
    for w in dominant:
        if w in placed:
            continue
        orbit = {w}.union(m.apply(w) for m in matrices[1:])
        if not orbit <= dominant_set:
            raise ValueError("outer action does not preserve dominance")
        placed |= orbit
        orbits.append(tuple(sorted(orbit)))
    return CocharacterData(
        coinvariants=group,
        projection=projection,
        orbits=tuple(orbits),
        fixed_rank=group.free_rank,
        moved_rank=rank - group.free_rank,
    )


@dataclass(frozen=True)
class InnerInvariant:
    """mu: pi_1(G) -> Br(K/k) (2-torsion quaternion classes over a common
    quadratic field Q(sqrt(d))), with the c presenting each component as
    the quaternion algebra (d, c)."""

    pi1: object            # FiniteAbelianGroup
    field_param: int       # d
    mu: dict               # element tuple -> BrauerClass
    parameters: dict       # element tuple -> presenting c

    def elements(self):
        return sorted(self.mu)


def _pi1_elements(factors):
    return list(iproduct(*(range(n) for n in factors)))


def build_inner_invariant(brd, d, assignments):
    """Assemble mu on pi_1 from quaternion data (common field Q(sqrt(d)),
    one norm parameter c per invariant-factor generator).

    assignments: sequence of rationals c_i, one per invariant factor of
    pi_1, giving the class of (d, c_i).  Generators of odd order must
    receive a split class (2-torsion arithmetic); violations are rejected
    with the failing relation.  mu is a homomorphism, and mu(x) is the
    class of (d, parameters[x]), because (d, c) is bilinear in c.
    """
    pi1 = fundamental_group(brd)
    if pi1.free_rank:
        raise ValueError("pi_1 must be finite")
    factors = list(pi1.invariant_factors)
    cs = [Fraction(c) for c in assignments]
    if len(cs) != len(factors):
        raise ValueError(
            f"{len(factors)} generator assignment(s) required, got {len(cs)}"
        )
    quadratic_field(d)  # refuses a d that defines no quadratic field
    gen_classes = []
    for i, (order, c) in enumerate(zip(factors, cs)):
        cls = brauer_class_quaternion(d, c)
        if not cls.is_trivial() and order % 2:
            raise ValueError(
                f"order violation: generator {i} has order {order}, but "
                f"{order}*mu = mu forces a trivial class for a 2-torsion "
                f"Brauer class"
            )
        gen_classes.append(cls)
    mu = {}
    parameters = {}
    split = BrauerClass(frozenset())
    for element in _pi1_elements(factors):
        cls = split
        c = Fraction(1)
        for e_i, gcls, gc in zip(element, gen_classes, cs):
            if e_i % 2:
                cls = cls + gcls
                c *= gc
        mu[element] = cls
        parameters[element] = c
    return InnerInvariant(pi1, d, mu, parameters)
