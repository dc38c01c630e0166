"""Finite groups given by explicit multiplication tables."""

from __future__ import annotations

from itertools import permutations, product
from operator import itemgetter


class FiniteGroup:
    """Finite group on elements 0..n-1 with an explicit table.

    table[a][b] is the product a*b; identity is element 0 unless another
    index satisfies the axioms.
    """

    __slots__ = ("order", "table", "identity", "inverse")

    def __init__(self, table, check=True):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        n = self.order
        if any(len(row) != n for row in self.table):
            raise ValueError("multiplication table must be square")
        identity = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element")
        self.identity = identity
        inverse = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == identity and self.table[b][a] == identity:
                    inverse[a] = b
                    break
            if inverse[a] is None:
                raise ValueError(f"element {a} has no inverse")
        self.inverse = tuple(inverse)
        if check:
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                            raise ValueError(f"not associative at ({a},{b},{c})")

    def inv(self, a):
        return self.inverse[a]

    def elements(self):
        return range(self.order)

    def element_order(self, a):
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def conjugate(self, c, a):
        """c * a * c^-1."""
        return self.table[self.table[c][a]][self.inverse[c]]

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def cyclic(n):
    if n < 1:
        raise ValueError("order must be positive")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, check=False)


def symmetric(n):
    """Symmetric group on n letters; elements sorted lexicographically as
    permutation tuples, so the identity is element 0."""
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # for n >= 2, itemgetter(*q)(p) is the tuple (p[q[0]], ..., p[q[n-1]])
    getters = [itemgetter(*q) for q in perms]
    table = [[index[get(p)] for get in getters] for p in perms] if n > 1 else [[0]]
    return FiniteGroup(table, check=False)


def direct_product(g, h):
    n, m = g.order, h.order

    def idx(a, b):
        return a * m + b

    table = [
        [
            idx(g.table[a1][a2], h.table[b1][b2])
            for a2 in range(n)
            for b2 in range(m)
        ]
        for a1 in range(n)
        for b1 in range(m)
    ]
    return FiniteGroup(table, check=False)


# Most generator images an enumeration of maps out of a group tries, for
# `homomorphisms` and for `cohomology.one_cocycles`; each image costs a few
# microseconds in `_extend`.
ENUMERATION_BUDGET = 10**7


def check_enumeration(target_order, gens, budget=ENUMERATION_BUDGET):
    """Refuse trying all target_order^len(gens) generator images when
    that count is above the budget."""
    if target_order ** len(gens) > budget:
        raise ValueError(
            f"enumeration budget exceeded: {target_order}^{len(gens)} candidates "
            f"above the budget of {budget}"
        )


def homomorphisms(g, h):
    """All group homomorphisms g -> h, each as a tuple indexed by g's
    elements, in lexicographic order.  Tries every image in h of a greedy
    generating set of g (|h|^#gens candidates, at most
    ENUMERATION_BUDGET), extends it along the Cayley graph and keeps the
    maps that respect the full table.  Each element is a generator or
    lies in the subgroup of the generators before it, which fixes its
    image; so generator images tried in lexicographic order give the maps
    in lexicographic order."""
    gens = generators(g)
    check_enumeration(h.order, gens)
    n = g.order
    homs = []
    for gen_images in product(range(h.order), repeat=len(gens)):
        images = _extend(g, h, gens, gen_images)
        if images is not None and all(
            images[g.table[a][b]] == h.table[images[a]][images[b]]
            for a in range(n)
            for b in range(n)
        ):
            homs.append(tuple(images))
    return homs


def generators(g):
    """A greedy generating set: each element not in the subgroup of the
    ones taken before it."""
    gens = []
    subgroup = {g.identity}
    for x in g.elements():
        if x not in subgroup:
            gens.append(x)
            subgroup = subgroup_closure(g, gens)
    return gens


def _extend(g, h, gens, gen_images, action=None):
    """The map x*s -> image(x) * x(image(s)) from the identity along the
    generators, or None where two paths disagree.  x acts on h by the
    permutation action[x], or trivially when action is None: then a
    homomorphism extends this way, otherwise a 1-cocycle."""
    images = [None] * g.order
    images[g.identity] = h.identity
    frontier = [g.identity]
    trivial = range(h.order)
    while frontier:
        x = frontier.pop()
        row, act = h.table[images[x]], action[x] if action else trivial
        for s, t in zip(gens, gen_images):
            y = g.table[x][s]
            z = row[act[t]]
            if images[y] is None:
                images[y] = z
                frontier.append(y)
            elif images[y] != z:
                return None
    return images


def subgroup_closure(g, generators):
    """Set of elements generated by the given elements."""
    seen = {g.identity}
    frontier = [g.identity]
    gens = list(generators)
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = g.table[x][s]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen
