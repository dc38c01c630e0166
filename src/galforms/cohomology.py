"""Cohomology of a finite group.

H^0 and nonabelian H^1 by enumeration; abelian H^2 through the
inhomogeneous bar complex for finite modules and through norm classes for
the multiplicative group of a cyclic extension; coboundary tests; the
transport between Hom(P, M)-valued cocycles and families of M-valued
cocycles; and the boundary map of a central extension of Gamma-groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import product
from math import gcd
from threading import Lock

from .exact_linalg import FiniteAbelianGroup, IntMatrix, _dense, _mul, _sparse_smith, solve_integer
from .fields import GaloisField, galois_group, is_norm_quadratic
from .groups import FiniteGroup, _maps


# ---------------------------------------------------------------------------
# Gamma-groups (possibly nonabelian coefficients, action by permutations)

class GGroup:
    """A finite group A with an action of Gamma by automorphisms.

    action[g] is the permutation of A's elements given by g.
    """

    def __init__(self, gamma, coeff, action):
        self.gamma = gamma
        self.coeff = coeff
        self.action = tuple(tuple(p) for p in action)
        if len(self.action) != gamma.order:
            raise ValueError("need one permutation per Gamma element")
        for g, perm in enumerate(self.action):
            if sorted(perm) != list(range(coeff.order)):
                raise ValueError(f"action of {g} is not a permutation")
            for x in range(coeff.order):
                for y in range(coeff.order):
                    if perm[coeff.table[x][y]] != coeff.table[perm[x]][perm[y]]:
                        raise ValueError(f"action of {g} is not an automorphism")
        for g in range(gamma.order):
            for h in range(gamma.order):
                gh = gamma.table[g][h]
                composed = tuple(self.action[g][self.action[h][x]] for x in range(coeff.order))
                if composed != self.action[gh]:
                    raise ValueError("action is not a group homomorphism")

    def act(self, g, x):
        return self.action[g][x]

    @staticmethod
    def trivial_action(gamma, coeff):
        ggroup = object.__new__(GGroup)  # identity permutations need no check
        ggroup.gamma, ggroup.coeff, ggroup.action = gamma, coeff, (tuple(range(coeff.order)),) * gamma.order
        return ggroup


def is_one_cocycle(ggroup, f):
    gamma, coeff = ggroup.gamma, ggroup.coeff
    return all(
        f[gamma.table[s][t]] == coeff.table[f[s]][ggroup.act(s, f[t])]
        for s in range(gamma.order)
        for t in range(gamma.order)
    )


def one_cocycles(ggroup):
    """All 1-cocycles Gamma -> A, each a tuple indexed by Gamma, in
    lexicographic order (see `groups._maps`)."""
    return _maps(ggroup.gamma, ggroup.coeff, ggroup.action)


def h1_nonabelian(ggroup):
    """Classes of 1-cocycles under b(s) = c^-1 a(s) s(c).

    Returns a list of classes (each a sorted list of cocycles); the class
    containing the constant-identity cocycle comes first.
    """
    gamma, coeff = ggroup.gamma, ggroup.coeff
    cocycles = one_cocycles(ggroup)
    remaining = set(cocycles)
    base = tuple(coeff.identity for _ in range(gamma.order))
    classes = []
    order = [base] + [z for z in cocycles if z != base]
    for z in order:
        if z not in remaining:
            continue
        cls = set()
        for c in range(coeff.order):
            cinv = coeff.inverse[c]
            twisted = tuple(
                coeff.table[coeff.table[cinv][z[s]]][ggroup.act(s, c)]
                for s in range(gamma.order)
            )
            cls.add(twisted)
        remaining -= cls
        classes.append(sorted(cls))
    return classes


# ---------------------------------------------------------------------------
# Finite abelian Gamma-modules in coordinates

class GModule:
    """Finite abelian Gamma-module: product of Z/d_i with integer action
    matrices (one per Gamma element), entries acting on coordinates mod
    the row modulus."""

    def __init__(self, gamma, moduli, action):
        self._assign(gamma, moduli, action)
        k = len(self.moduli)
        if len(self.action) != gamma.order:
            raise ValueError("need one matrix per Gamma element")
        for mat in self.action:
            if mat.rows != k or mat.cols != k:
                raise ValueError("action matrix has wrong shape")
            for i in range(k):
                for j in range(k):
                    if (mat[i, j] * self.moduli[j]) % self.moduli[i]:
                        raise ValueError("action matrix not well defined mod moduli")
        for g in range(gamma.order):
            for h in range(gamma.order):
                gh = gamma.table[g][h]
                prod_mat = self.action[g] * self.action[h]
                if not self._congruent(prod_mat, self.action[gh]):
                    raise ValueError("action is not a group homomorphism")
        # for a homomorphism, A_g A_{g^-1} = A_1 for all g: all are I iff A_1 is
        if not self._congruent(self.action[gamma.identity], IntMatrix.identity(k)):
            raise ValueError("action matrices must be invertible mod moduli")

    def _assign(self, gamma, moduli, action):
        """Set the fields, checking only that the moduli are positive."""
        self.gamma = gamma
        self.moduli = tuple(int(d) for d in moduli)
        if any(d < 1 for d in self.moduli):
            raise ValueError("moduli must be positive")
        self.action = tuple(action)

    def _congruent(self, a, b):
        k = len(self.moduli)
        return all(
            (a[i, j] - b[i, j]) % self.moduli[i] == 0
            for i in range(k)
            for j in range(k)
        )

    @property
    def rank(self):
        return len(self.moduli)

    def reduce(self, vec):
        return tuple(x % d for x, d in zip(vec, self.moduli))

    def zero(self):
        return (0,) * self.rank

    def add(self, x, y):
        return self.reduce(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        return self.reduce(a - b for a, b in zip(x, y))

    def act(self, g, vec):
        return self.reduce(self.action[g].apply(vec))

    @staticmethod
    def trivial(gamma, moduli):
        """Gamma acting by identity matrices, which are well defined mod any
        moduli and multiply as Gamma does: only the moduli are checked."""
        module = object.__new__(GModule)
        module._assign(gamma, moduli, [IntMatrix.identity(len(moduli))] * gamma.order)
        return module


# --- bar complex ---------------------------------------------------------

def _bar_rows(module, p):
    """The bar differential C^p -> C^(p+1), p = 1 or 2, as sparse rows, one
    per (g_0, ..., g_p, coordinate) in lexicographic order: (d f)(g_0..g_p)
    = g_0 f(g_1..g_p) + sum_i (-1)^i f(..g_(i-1) g_i..) + (-1)^(p+1)
    f(g_0..g_(p-1)).  A cochain's coordinate (g_1..g_p, i) is column
    index(g_1..g_p) * k + i, the index read in base |Gamma|."""
    gamma, k = module.gamma, module.rank
    n, table = gamma.order, gamma.table
    acts = [[{j: x for j, x in enumerate(row) if x} for row in mat._data] for mat in module.action]
    rows = []
    for a, ab in enumerate(table):
        for tail in range(n ** p):  # the index of (g_1..g_p): f(g_1..g_p) is columns tail * k..
            if p == 1:
                faces = ((-1, ab[tail] * k), (1, a * k))
            else:
                b, c = divmod(tail, n)
                faces = ((-1, (ab[b] * n + c) * k), (1, (a * n + table[b][c]) * k),
                         (-1, (a * n + b) * k))
            for i, act in enumerate(acts[a]):
                row = {tail * k + j: x for j, x in act.items()}
                for sign, col in faces:
                    row[col + i] = row.get(col + i, 0) + sign
                rows.append({col: x for col, x in row.items() if x})
    return rows


def _c2_generators(module):
    """Sparse rows of [d1 | diag(C^2 moduli)], whose columns generate
    im(d1) + (moduli lattice of C^2)."""
    rows = _bar_rows(module, 1)
    n1, k = module.gamma.order * module.rank, module.rank
    for i, row in enumerate(rows):
        row[n1 + i] = module.moduli[i % k]
    return rows


def _divide_exactly(row, d):
    if any(x % d for x in row.values()):
        raise ArithmeticError(f"cochain coordinates are not divisible by {abs(d)}")
    return {j: x // d for j, x in row.items()}


# |Gamma|^3 k, the rows of d2: S4 on Z/2 has 13,824 and takes about 1 s on
# a 2-core Intel Xeon, S5 on Z/2 has 1,728,000.
BAR_ROW_CAP = 20_000
# The same count for moduli that differ, whose elimination of [d2 | D]
# meets pivots other than +-1 early: on the same host C9 acting on
# Z/9 + Z/3 by (x, y) -> (x, y + x) has 1,458 rows and takes 5-7 s, C10
# on Z/2 + Z/3 with the trivial action 2,000 rows and 4-7 s, and C10 on
# Z/2 + Z/4 by (x, y) -> (x, y + 2x) 2,000 rows and 16-17 s.
MIXED_MODULI_ROW_CAP = 1_500
# h2_bar keeps an answer when its tuples and key matrices, counted as
# |Gamma| (|Gamma| |reps| (k + 20) + (k + 6)^2) words, are at most this.
H2_MEMO_ENTRY_WORDS = 2 ** 17
H2_MEMO_ENTRIES = 128
_H2_MEMO = {}
_H2_MEMO_LOCK = Lock()


def h2_bar(module):
    """(H^2 as FiniteAbelianGroup, representative normalized cocycles).

    Representatives are dicts {(a, b): element tuple}, one per invariant
    factor of H^2, in the same order.

    H^2 = K / (im d1 + moduli lattice of C^2), K the integer 2-cochains x
    with d2 x = 0 mod the C^3 moduli.  A Smith normal form gives K a basis
    bk and, by its inverse transform, integer coordinates in bk.  All
    matrices are sparse rows; bk is kept by columns.  With one modulus it
    reads the diagonal of S and all of V and V^-1 for d2; with several,
    only the columns n3.. of V and the rows n3.. of V^-1 for [d2 | D],
    which the elimination stopped at a diagonal already gives.  The last
    elimination, of the coordinates of the generators in bk, gives the
    invariant factors (its S) and the representatives (the columns of
    U^-1, read in bk).

    The process keeps the answers for the last H2_MEMO_ENTRIES modules it
    met, keyed on Gamma, the moduli and the action matrices as given:
    matrices equal mod the moduli give other representatives.  A hit makes
    its entry the newest, and an entry above H2_MEMO_ENTRY_WORDS is not
    kept.  Each call gets its own dicts.
    """
    key = (module.gamma, module.moduli, module.action)
    with _H2_MEMO_LOCK:
        answer = _H2_MEMO.pop(key, None)
    group, reps = answer = answer or _h2_bar_answer(module)
    n, k = module.gamma.order, module.rank
    if n * (n * len(reps) * (k + 20) + (k + 6) ** 2) <= H2_MEMO_ENTRY_WORDS:
        with _H2_MEMO_LOCK:
            _H2_MEMO[key] = answer
            if len(_H2_MEMO) > H2_MEMO_ENTRIES:
                del _H2_MEMO[next(iter(_H2_MEMO))]
    return group, [dict(rep) for rep in reps]


def _h2_bar_answer(module):
    """h2_bar's answer, each representative a tuple of its items."""
    k, n = module.rank, module.gamma.order
    n1, n2, n3 = n * k, n * n * k, n * n * n * k
    if n3 > BAR_ROW_CAP:
        raise ValueError(f"the bar complex has {n3} rows, above the cap of {BAR_ROW_CAP}")
    if n3 > MIXED_MODULI_ROW_CAP and len(set(module.moduli)) > 1:
        raise ValueError(f"the bar complex has {n3} rows, above the cap of "
                         f"{MIXED_MODULI_ROW_CAP} for moduli that differ")
    moduli_c3 = [module.moduli[i % k] for i in range(n3)]
    gens = _c2_generators(module)
    if len(set(moduli_c3)) == 1:
        # x = V y lies in K iff s_t y_t = 0 mod m for every t, so
        # bk = V diag(scales) and bk^-1 gens = diag(scales)^-1 V^-1 gens.
        m = moduli_c3[0]
        s, _u, v, _u_inv, v_inv = _sparse_smith(_bar_rows(module, 2), n2, v=True, v_inv=True)
        scales = [m // gcd(s[t].get(t, 0), m) for t in range(n2)]
        bk = [{i: c * x for i, x in col.items()} for col, c in zip(v, scales)]
        coords = [_divide_exactly(row, d) for row, d in zip(_mul(v_inv, gens), scales)]
    else:
        # K projects from the kernel of [d2 | D], D = diag(C^3 moduli) of
        # full row rank r, with basis the columns r.. of V; a cocycle w
        # lifts to (w, -D^-1 d2 w), with coordinates the rows r.. of V^-1.
        d2 = _bar_rows(module, 2)
        stacked = [{**row, n2 + i: d} for i, (row, d) in enumerate(zip(d2, moduli_c3))]
        lifts = [_divide_exactly(row, -d) for row, d in zip(_mul(d2, gens), moduli_c3)]
        _s, _u, v, _u_inv, v_inv = _sparse_smith(stacked, n2 + n3, v=True, v_inv=True, normalize=False)
        bk = [{i: x for i, x in col.items() if i < n2} for col in v[n3:]]
        coords = _mul(v_inv[n3:], gens + lifts)
    s, _u, _v, u_inv, _v_inv = _sparse_smith(coords, n1 + n2, u_inv=True)
    factors = []
    reps = []
    for t in range(n2):  # coords has n2 rows and more columns
        d = s[t].get(t, 0)
        if d in (0, 1):
            continue
        factors.append(d)
        vec = _mul([u_inv[t]], bk)[0]
        # left unreduced: normalize_module_cocycle reduces once, and act respects the moduli
        table = {}
        for a in range(n):
            for b in range(n):
                base = (a * n + b) * k
                table[(a, b)] = tuple(vec.get(base + i, 0) for i in range(k))
        reps.append(tuple(normalize_module_cocycle(module, table).items()))
    # s is normalized, a divisibility chain with its zeros last: factors ascend
    return FiniteAbelianGroup(tuple(factors), 0), tuple(reps)


def is_module_cocycle(module, table):
    gamma = module.gamma
    n = gamma.order
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = module.add(module.act(a, table[(b, c)]), table[(a, gamma.table[b][c])])
                rhs = module.add(table[(gamma.table[a][b], c)], table[(a, b)])
                if lhs != rhs:
                    return False
    return True


def module_coboundary(module, f):
    """d f for f a dict {gamma element: module element}."""
    gamma = module.gamma
    n = gamma.order
    return {
        (a, b): module.sub(
            module.add(module.act(a, f[b]), f[a]), f[gamma.table[a][b]]
        )
        for a in range(n)
        for b in range(n)
    }


def is_module_coboundary(module, table):
    """A primitive f with d f = table, or None.  Exact (integer linear
    algebra, no enumeration)."""
    gamma, k = module.gamma, module.rank
    n = gamma.order
    n1, n2 = n * k, n * n * k
    a = _dense(_c2_generators(module), n1 + n2)
    target = []
    for idx in range(n2):
        pair = idx // k
        table_val = table[(pair // n, pair % n)]
        target.append(table_val[idx % k])
    sol = solve_integer(a, target)
    if sol is None:
        return None
    return {g: module.reduce(sol[g * k: (g + 1) * k]) for g in range(n)}


def normalize_module_cocycle(module, table):
    """Cohomologous normalized cocycle: subtract d of the constant map at
    c = zeta(1,1), which is (a, b) -> a c."""
    e = module.gamma.identity
    shifts = [module.act(a, table[(e, e)]) for a in range(module.gamma.order)]
    return {key: module.sub(x, shifts[key[0]]) for key, x in table.items()}


# ---------------------------------------------------------------------------
# K^x - valued cocycles

@dataclass(frozen=True)
class GaloisAction:
    """A Galois group as (finite group, aligned field automorphisms)."""

    field: GaloisField
    group: FiniteGroup
    elements: tuple

    @staticmethod
    def of(field):
        group, elems = galois_group(field)
        return GaloisAction(field, group, tuple(elems))

    def apply(self, g, x):
        return self.elements[g].apply(x)


@dataclass(frozen=True)
class KxCocycle:
    """Normalized-or-not 2-cocycle Gamma x Gamma -> K^x, as a full table;
    two are equal when their actions and tables are."""

    action: GaloisAction
    values: dict = dc_field(hash=False)

    def value(self, a, b):
        return self.values[(a, b)]

    def is_normalized(self):
        gamma = self.action.group
        e = gamma.identity
        one = self.action.field.one()
        return all(
            self.values[(e, a)] == one and self.values[(a, e)] == one
            for a in range(gamma.order)
        )

    def normalized(self):
        """Divide out the coboundary of the constant map at zeta(1,1)."""
        gamma = self.action.group
        e = gamma.identity
        c = self.values[(e, e)]
        b = {g: c for g in range(gamma.order)}
        return KxCocycle(
            self.action,
            {
                key: self.values[key] / _kx_coboundary_value(self.action, b, key)
                for key in self.values
            },
        )

    def __mul__(self, other):
        return KxCocycle(
            self.action,
            {key: self.values[key] * other.values[key] for key in self.values},
        )

    def __truediv__(self, other):
        return KxCocycle(
            self.action,
            {key: self.values[key] / other.values[key] for key in self.values},
        )


def _kx_coboundary_value(action, b, key):
    a, c = key
    gamma = action.group
    return b[a] * action.apply(a, b[c]) / b[gamma.table[a][c]]


def is_two_cocycle_kx(cocycle, report=False):
    """Check zeta(a,bc) * a(zeta(b,c)) = zeta(ab,c) * zeta(a,b); returns
    bool, or (bool, witness triple) when report=True."""
    action = cocycle.action
    gamma = action.group
    n = gamma.order
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = cocycle.value(a, gamma.table[b][c]) * action.apply(a, cocycle.value(b, c))
                rhs = cocycle.value(gamma.table[a][b], c) * cocycle.value(a, b)
                if lhs != rhs:
                    return (False, (a, b, c)) if report else False
    return (True, None) if report else True


def kx_coboundary_of(action, b):
    """The 2-coboundary of b: Gamma -> K^x (a dict of field elements)."""
    gamma = action.group
    n = gamma.order
    if any(not b[g] for g in range(n)):
        raise ValueError("coboundary primitive must be nonzero everywhere")
    values = {
        (x, y): _kx_coboundary_value(action, b, (x, y))
        for x in range(n)
        for y in range(n)
    }
    return KxCocycle(action, values)


def trivial_kx_cocycle(action):
    one = action.field.one()
    n = action.group.order
    return KxCocycle(action, {(a, b): one for a in range(n) for b in range(n)})


def quadratic_cocycle(action, c):
    """Normalized cocycle on a quadratic extension with zeta(s,s) = c."""
    if action.group.order != 2:
        raise ValueError("quadratic extension required")
    field = action.field
    c = field.coerce(c)
    if not c:
        raise ValueError("cocycle value must be nonzero")
    # normalized, the cocycle identity reduces to sigma(c) = c: c rational
    if not c.is_rational():
        raise ValueError("value does not define a cocycle (must be fixed by conjugation)")
    sigma = 1 - action.group.identity
    one = field.one()
    values = {
        (action.group.identity, action.group.identity): one,
        (action.group.identity, sigma): one,
        (sigma, action.group.identity): one,
        (sigma, sigma): c,
    }
    return KxCocycle(action, values)


# --- cyclic norm classes --------------------------------------------------

class CyclicNormClasses:
    """H^2(Gamma, K^x) for cyclic Gamma, via classes of k^x modulo norms.

    Class of a cocycle = product of zeta(g^i, g) over i, for a fixed
    generator g; triviality decidable in the quadratic case.
    """

    def __init__(self, action):
        self.action = action
        gamma = action.group
        gen = next(
            (g for g in gamma.elements() if gamma.element_order(g) == gamma.order),
            None,
        )
        if gen is None:
            raise ValueError("Galois group is not cyclic")
        self.generator = gen

    def class_element(self, cocycle):
        """The base-field element representing the class of the cocycle."""
        gamma = self.action.group
        g = self.generator
        power = gamma.identity
        result = self.action.field.one()
        for _ in range(gamma.order):
            result = result * cocycle.value(power, g)
            power = gamma.table[power][g]
        return result.rational_value()

    def is_trivial_element(self, c):
        c = Fraction(c)
        if c == 0:
            raise ValueError("class representative must be nonzero")
        field = self.action.field
        if field.kind == "quadratic":
            return is_norm_quadratic(field.param, c)
        raise NotImplementedError(
            "norm-class triviality is only decidable here for quadratic extensions"
        )

    def same_class(self, c1, c2):
        return self.is_trivial_element(Fraction(c1) / Fraction(c2))


# ---------------------------------------------------------------------------
# Transport between Hom(P, M)-valued cocycles and M-cocycle families

def hom_module(gamma, p_moduli, m_module):
    """Hom(P, M) as a GModule, for trivial Gamma-action on P.

    Coordinates are indexed by (i, j): P generator i, M coordinate j, with
    modulus gcd(p_i, d_j); coordinate value c embeds as the homomorphism
    sending the i-th P generator to c * (d_j / gcd) * e_j.
    Returns (module, to_hom, from_hom) where to_hom(coords) is a dict
    {P element: M element} and from_hom inverts it.
    """
    if m_module.gamma is not gamma and m_module.gamma != gamma:
        raise ValueError("module must be over the same Gamma")
    p_moduli = tuple(int(p) for p in p_moduli)
    if any(p < 1 for p in p_moduli):
        raise ValueError("P moduli must be positive")
    d = m_module.moduli
    k = len(d)
    l = len(p_moduli)
    pairs = [(i, j) for i in range(l) for j in range(k)]
    moduli = [gcd(p_moduli[i], d[j]) for i, j in pairs]

    def gen_image(i, j):
        """M-element that the (i,j) basis hom sends generator i to."""
        vec = [0] * k
        vec[j] = d[j] // gcd(p_moduli[i], d[j])
        return tuple(vec)

    mats = []
    for g in range(gamma.order):
        cols = []
        for i, j in pairs:
            image = m_module.act(g, gen_image(i, j))
            col = []
            for i2, j2 in pairs:
                gij2 = gcd(p_moduli[i2], d[j2])
                if i2 != i or gij2 == 1:
                    col.append(0)
                    continue
                # t with t * step = image mod d_j2: step = d_j2 / gij2
                # divides d_j2, so t = image / step, mod gij2
                step = d[j2] // gij2
                if image[j2] % step:
                    raise ValueError("congruence has no solution; action not well defined")
                col.append(image[j2] // step % gij2)
            cols.append(col)
        mats.append(IntMatrix(cols).transpose())
    module = GModule(gamma, moduli, mats)

    def to_hom(coords):
        gen_images = []
        for i in range(l):
            vec = (0,) * k
            for j in range(k):
                c = coords[pairs.index((i, j))]
                img = gen_image(i, j)
                vec = m_module.add(vec, tuple(c * x for x in img))
            gen_images.append(vec)
        table = {}
        for p_elem in product(*(range(p) for p in p_moduli)):
            vec = (0,) * k
            for i in range(l):
                vec = m_module.add(vec, tuple(p_elem[i] * x for x in gen_images[i]))
            table[p_elem] = vec
        return table

    def from_hom(table):
        coords = []
        for i, j in pairs:
            gij = gcd(p_moduli[i], d[j])
            if gij == 1:
                coords.append(0)
                continue
            image = table[tuple(1 if t == i else 0 for t in range(l))]
            step = d[j] // gij
            if image[j] % step:
                raise ValueError("table is not a homomorphism into the right torsion")
            coords.append((image[j] // step) % gij)
        # verify round trip
        if to_hom(tuple(coords)) != dict(table):
            raise ValueError("table is not a homomorphism P -> M")
        return tuple(coords)

    return module, to_hom, from_hom


def transport_to_family(hom_mod, to_hom, p_moduli, m_module, table):
    """zeta valued in Hom(P, M) -> the family mu with mu(alpha)(a, b) =
    zeta(a, b)(alpha)."""
    gamma = hom_mod.gamma
    n = gamma.order
    family = {}
    for p_elem in product(*(range(p) for p in p_moduli)):
        family[p_elem] = {}
    for a in range(n):
        for b in range(n):
            hom_table = to_hom(table[(a, b)])
            for p_elem, m_val in hom_table.items():
                family[p_elem][(a, b)] = m_val
    return family


def family_to_transport(hom_mod, from_hom, p_moduli, m_module, family):
    """Inverse of transport_to_family."""
    gamma = hom_mod.gamma
    n = gamma.order
    table = {}
    for a in range(n):
        for b in range(n):
            hom_table = {p_elem: family[p_elem][(a, b)] for p_elem in family}
            table[(a, b)] = from_hom(hom_table)
    return table


# ---------------------------------------------------------------------------
# Boundary map of a central extension

@dataclass(frozen=True)
class CentralExtension:
    """1 -> Z -> B -> C -> 1 of finite Gamma-groups, Z central in B.

    inclusion[z] = index in B; projection[b] = index in C.
    """

    z: GGroup
    b: GGroup
    c: GGroup
    inclusion: tuple
    projection: tuple

    def __post_init__(self):
        zg, bg, cg = self.z.coeff, self.b.coeff, self.c.coeff
        if len(self.inclusion) != zg.order or len(self.projection) != bg.order:
            raise ValueError("map tables have wrong sizes")
        if len(set(self.inclusion)) != zg.order:
            raise ValueError("inclusion must be injective")
        if set(self.projection) != set(range(cg.order)):
            raise ValueError("projection must be surjective")
        for x in range(zg.order):
            for y in range(zg.order):
                if self.inclusion[zg.table[x][y]] != bg.table[self.inclusion[x]][self.inclusion[y]]:
                    raise ValueError("inclusion is not a homomorphism")
        for x in range(bg.order):
            for y in range(bg.order):
                if self.projection[bg.table[x][y]] != cg.table[self.projection[x]][self.projection[y]]:
                    raise ValueError("projection is not a homomorphism")
        kernel = [x for x in range(bg.order) if self.projection[x] == cg.identity]
        if sorted(self.inclusion) != sorted(kernel):
            raise ValueError("image of Z must equal the kernel of the projection")
        for z_img in self.inclusion:
            if any(bg.table[z_img][x] != bg.table[x][z_img] for x in range(bg.order)):
                raise ValueError("Z must be central in B")
        gamma = self.z.gamma
        for g in range(gamma.order):
            for x in range(zg.order):
                if self.b.act(g, self.inclusion[x]) != self.inclusion[self.z.act(g, x)]:
                    raise ValueError("inclusion is not Gamma-equivariant")
            for x in range(bg.order):
                if self.c.act(g, self.projection[x]) != self.projection[self.b.act(g, x)]:
                    raise ValueError("projection is not Gamma-equivariant")

    def lift(self, c_elem):
        """A set-theoretic lift of a C element to B: the first element of
        its fiber."""
        return self.projection.index(c_elem)


def boundary_map(ext, cocycle):
    """Image of a 1-cocycle in C under the boundary to H^2(Gamma, Z):
    delta c(a,b) = lift(a) * a(lift(b)) * lift(ab)^-1, as a dict
    {(a, b): Z element index}."""
    gamma = ext.z.gamma
    bg = ext.b.coeff
    n = gamma.order
    if not is_one_cocycle(ext.c, cocycle):
        raise ValueError("not a 1-cocycle in C")
    lifts = {}
    for a in range(n):
        if a == gamma.identity:
            lifts[a] = bg.identity
        else:
            lifts[a] = ext.lift(cocycle[a])
    inc_index = {b_idx: z_idx for z_idx, b_idx in enumerate(ext.inclusion)}
    table = {}
    for a in range(n):
        for b in range(n):
            ab = gamma.table[a][b]
            prod_b = bg.table[lifts[a]][ext.b.act(a, lifts[b])]
            val = bg.table[prod_b][bg.inverse[lifts[ab]]]
            if val not in inc_index:
                raise ValueError("boundary value escaped the center")
            table[(a, b)] = inc_index[val]
    return table
