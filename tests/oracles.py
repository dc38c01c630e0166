"""Brute-force oracles for the group, classification, cohomology,
linear-algebra, field and descent tests: maps out of a group from every
tuple of generator images, quasi-split classes by orbit sets, full
enumeration of cocycles and coboundaries, bounded
searches, the boundary map under any choice of lifts, the dense Smith
normal form elimination, the bar differentials built from tuples of
group elements, Gauss-Jordan elimination over Fractions, field inverses
by a linear solve, the descent morphism systems written out in full,
descent validity checked on K-matrices, the coweight orbits found by
closing each point under every matrix, pi_1 from every coroot, Out(G)
from the inverses of both simple bases over Q, the readings of
library objects that only the tests take, and the CLI's argument parser
written out command by command.  Desk scale only; they check the
library's exact algorithms and are not part of it."""

from fractions import Fraction
from itertools import compress, product

from galforms.cli import _Parser, argv_int, type_label
from galforms.cohomology import (
    is_module_coboundary,
    is_one_cocycle,
    kx_coboundary_of,
    module_coboundary,
)
from galforms import qlinalg
from galforms.exact_linalg import IntMatrix, cokernel
from galforms.fields import _scaled_matrix, k_matrix
from galforms.classify import QuasiSplitForm
from galforms.groups import FiniteGroup, _extend, generators
from galforms.root_datum import OuterAutomorphism, _cartan_permutations


# Readings of library objects that only the tests take.

def module_elements(module):
    """Every element of a finite Gamma-module, as a coordinate tuple."""
    return product(*(range(d) for d in module.moduli))


def algebra_one(algebra):
    """The unit e_1 of a crossed-product algebra."""
    return algebra.basis_element(algebra.group.identity)


def datum_apply(datum, a, vec):
    """a_V = M_a o (a^-1 coordinate twist) applied to a K-coordinate
    vector."""
    ainv = datum.action.group.inv(a)
    twisted = [datum.action.apply(ainv, x) for x in vec]
    return [sum(m * x for m, x in zip(row, twisted)) for row in datum.matrices[a]]


def cohomologous_module_cocycles(module, t1, t2):
    diff = {key: module.sub(t1[key], t2[key]) for key in t1}
    return is_module_coboundary(module, diff) is not None


def normalize_by_coboundary(module, table):
    """Cohomologous normalized cocycle: subtract the coboundary, written
    out at every pair, of the constant map at zeta(1,1)."""
    gamma = module.gamma
    e = gamma.identity
    c = table[(e, e)]
    f = {g: c for g in range(gamma.order)}
    d = module_coboundary(module, f)
    return {key: module.sub(table[key], d[key]) for key in table}


def enumerate_cocycles(module):
    """All normalized 2-cocycles, by backtracking over the entries with
    both arguments != identity."""
    gamma = module.gamma
    n = gamma.order
    e = gamma.identity
    others = [g for g in range(n) if g != e]
    pairs = [(a, b) for a in others for b in others]
    elems = list(module_elements(module))
    zero = module.zero()
    results = []
    table = {}
    for a in range(n):
        table[(e, a)] = zero
        table[(a, e)] = zero

    def backtrack(i):
        if i == len(pairs):
            results.append(dict(table))
            return
        key = pairs[i]
        for val in elems:
            table[key] = val
            if not violates(key):
                backtrack(i + 1)
        del table[key]

    def violates(last_key):
        for a in others:
            for b in others:
                for c in others:
                    ab = gamma.table[a][b]
                    bc = gamma.table[b][c]
                    needed = ((b, c), (a, bc), (ab, c), (a, b))
                    if last_key not in needed:
                        continue
                    if any(key not in table for key in needed):
                        continue
                    lhs = module.add(module.act(a, table[(b, c)]), table[(a, bc)])
                    rhs = module.add(table[(ab, c)], table[(a, b)])
                    if lhs != rhs:
                        return True
        return False

    backtrack(0)
    return results


def h2_enumerate(module):
    """H^2 order by full enumeration of normalized cocycles and
    normalized coboundaries (independent oracle for h2_bar)."""
    gamma = module.gamma
    n = gamma.order
    cocycles = enumerate_cocycles(module)
    e = gamma.identity
    others = [g for g in range(n) if g != e]
    coboundaries = set()
    elems = list(module_elements(module))
    for values in product(elems, repeat=len(others)):
        f = {e: module.zero()}
        for g, v in zip(others, values):
            f[g] = v
        d = module_coboundary(module, f)
        d = normalize_by_coboundary(module, d)
        coboundaries.add(tuple(sorted(d.items())))
    assert len(cocycles) % len(coboundaries) == 0
    return len(cocycles) // len(coboundaries)


def kx_is_coboundary(cocycle, candidates):
    """Search for b with d b = cocycle, with b-values drawn from the given
    finite candidate set (b(1) forced to 1).  Returns b or None; a None
    verdict only means not-found-in-set."""
    action = cocycle.action
    gamma = action.group
    n = gamma.order
    e = gamma.identity
    others = [g for g in range(n) if g != e]
    one = action.field.one()
    cands = [c for c in candidates if c]
    for values in product(cands, repeat=len(others)):
        b = {e: one}
        for g, v in zip(others, values):
            b[g] = v
        db = kx_coboundary_of(action, b)
        if all(db.values[key] == cocycle.values[key] for key in cocycle.values):
            return b
    return None


def boundary_with_lifts(ext, cocycle, lifts):
    """delta c(a, b) = l(a) a(l(b)) l(ab)^-1 for the given lifts l(a) of
    c(a) to B, as {(a, b): Z element index}: the boundary map under any
    choice of lifts, the identity's included."""
    gamma, bg = ext.z.gamma, ext.b.coeff
    assert all(ext.projection[lifts[a]] == cocycle[a] for a in gamma.elements())
    inc_index = {b_idx: z_idx for z_idx, b_idx in enumerate(ext.inclusion)}
    table = {}
    for a in gamma.elements():
        for b in gamma.elements():
            prod_b = bg.table[lifts[a]][ext.b.act(a, lifts[b])]
            table[(a, b)] = inc_index[bg.table[prod_b][bg.inverse[lifts[gamma.table[a][b]]]]]
    return table


def one_cocycles_brute(ggroup):
    """All 1-cocycles Gamma -> A, in lexicographic order: every map with
    f(1) = 1, its values tried in element order and a prefix cut off as
    soon as some f(st) = f(s) s(f(t)) with s, t and st assigned fails.
    Exhaustive, and blind to generators of Gamma."""
    gamma, coeff = ggroup.gamma, ggroup.coeff
    n = gamma.order
    f = [None] * n
    f[gamma.identity] = coeff.identity
    others = [g for g in range(n) if g != gamma.identity]
    pairs = {g: [(s, t, gamma.table[s][t]) for s in range(n) for t in range(n)
                 if g in (s, t, gamma.table[s][t])] for g in others}
    cocycles = []

    def extend(pos):
        if pos == len(others):
            assert is_one_cocycle(ggroup, f)
            cocycles.append(tuple(f))
            return
        g = others[pos]
        for value in range(coeff.order):
            f[g] = value
            if all(None in (f[s], f[t], f[st]) or f[st] == coeff.table[f[s]][ggroup.act(s, f[t])]
                   for s, t, st in pairs[g]):
                extend(pos + 1)
        f[g] = None

    extend(0)
    return cocycles


def maps_by_product(g, h, action=None):
    """The maps `groups._maps` gives, as galforms enumerated them before
    the walk: every |h|^#gens tuple of generator images, in `product`
    order, extended over all of g."""
    gens = generators(g)
    maps = []
    for images in product(range(h.order), repeat=len(gens)):
        f = _extend(g, h, gens, images, action)
        if f is not None:
            maps.append(tuple(f))
    return maps


def classes_by_orbits(gamma, out):
    """classify_quasisplit as galforms ran it before orderly generation:
    each homomorphism's conjugation orbit as a set, the least member of
    each new orbit, sorted."""
    classes, seen = [], set()
    for hom in maps_by_product(gamma, out):
        if hom not in seen:
            orbit = {tuple(out.conjugate(c, x) for x in hom) for c in out.elements()}
            seen |= orbit
            classes.append(min(orbit))
    classes.sort()
    return [QuasiSplitForm(rho, i) for i, rho in enumerate(classes)]


def coweight_orbits(brd, matrices, height):
    """The orbits of the group the matrices generate on the dominant
    coweights in the box [0, height]^rank, each found by closing one point
    under every matrix, the way galforms found them: in the order of their
    first box point, each sorted."""
    dominant = [w for w in product(range(height + 1), repeat=brd.datum.rank)
                if brd.is_dominant_coweight(w)]
    dominant_set = set(dominant)
    orbits = []
    placed = set()
    for w in dominant:
        if w in placed:
            continue
        orbit = {w}
        frontier = [w]
        while frontier:
            x = frontier.pop()
            for m in matrices:
                y = m.apply(x)
                if y not in orbit:
                    assert y in dominant_set, "outer action does not preserve dominance"
                    orbit.add(y)
                    frontier.append(y)
        placed |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def bar_rows(module, p):
    """The bar differential C^p -> C^(p+1) as galforms built it before it
    read the faces off index arithmetic: sparse rows, one per (g_0, ...,
    g_p, coordinate) in lexicographic order, each face found by slicing
    the tuple g and reading the result in base |Gamma|."""
    gamma, k = module.gamma, module.rank
    n, table = gamma.order, gamma.table
    acts = [[{j: x for j, x in enumerate(row) if x} for row in mat._data] for mat in module.action]

    def index(gs):
        c = 0
        for g in gs:
            c = c * n + g
        return c * k

    rows = []
    for g in product(range(n), repeat=p + 1):
        faces = [(-1 if i % 2 else 1, index(g[:i - 1] + (table[g[i - 1]][g[i]],) + g[i + 1:]))
                 for i in range(1, p + 1)]
        faces.append((-1 if p % 2 == 0 else 1, index(g[:p])))
        first = index(g[1:])
        for i in range(k):
            row = {first + j: x for j, x in acts[g[0]][i].items()}
            for sign, c in faces:
                row[c + i] = row.get(c + i, 0) + sign
            rows.append({c: x for c, x in row.items() if x})
    return rows


def pi1_all_coroots(brd):
    """pi_1 = X^vee / (span of coroots) as galforms computed it: the
    cokernel of the n x |R| matrix of every coroot."""
    coroots = brd.datum.coroots
    m = IntMatrix([[cr[i] for cr in coroots] for i in range(brd.datum.rank)])
    group, _proj = cokernel(m)
    return group


def outer_automorphisms_two_bases(brd):
    """(group, elements) of root_datum.outer_automorphisms as galforms
    computed it before it used one Smith form: both bases inverted over Q,
    both maps tested for integrality, and the images of R and R^vee
    looked up in the root and coroot sets."""
    datum = brd.datum
    if (qlinalg.rank(datum.roots) if datum.roots else 0) != datum.rank:
        raise ValueError("outer automorphism enumeration requires a semisimple datum")
    n = datum.rank
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
    return FiniteGroup(table), tuple(valid)


def dense_smith(matrix, u=False, v=False, u_inv=False, v_inv=False, normalize=True):
    """The Smith normal form elimination on dense rows, as galforms ran it
    before the sparse one: (S, U, V, U^-1, V^-1), with None for the
    transforms not asked for.  The reference for galforms'
    exact_linalg._smith, which must take the same pivots.  On the
    inverses, row_i -= q*row_j on U is col_j += q*col_i on U^-1, and
    col_i -= q*col_j on V is row_j += q*row_i on V^-1.  With normalize
    false, the elimination stops at a diagonal: no sign normalization and
    no divisibility chain."""
    m, n = matrix.rows, matrix.cols
    s = [list(row) for row in matrix._data]
    # U and V^-1 are kept as lists of rows, V and U^-1 as lists of
    # columns, so that every update is a whole-list operation
    u_rows, v_cols, u_inv_cols, v_inv_rows = (
        [[int(i == j) for j in range(k)] for i in range(k)] if wanted else None
        for k, wanted in ((m, u), (n, v), (m, u_inv), (n, v_inv))
    )

    def axpy(rows, i, j, q):  # rows[i] += q * rows[j], skipping zeros of rows[j]
        if rows is not None:
            dst, src = rows[i], rows[j]
            for k in compress(range(len(src)), src):
                dst[k] += q * src[k]

    def row_op(i, j, q):  # row_i -= q * row_j
        axpy(s, i, j, -q)
        axpy(u_rows, i, j, -q)
        axpy(u_inv_cols, j, i, q)

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in s:
            if row[j]:
                row[i] -= q * row[j]
        axpy(v_cols, i, j, -q)
        axpy(v_inv_rows, j, i, q)

    def swap(i, j, *lists):
        for x in lists:
            if x is not None:
                x[i], x[j] = x[j], x[i]

    def swap_rows(i, j):
        swap(i, j, s, u_rows, u_inv_cols)

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        swap(i, j, v_cols, v_inv_rows)

    def negate_row(t):
        for x in (s, u_rows, u_inv_cols):
            if x is not None:
                x[t] = [-a for a in x[t]]

    def find_pivot(t):
        # scanning in tie-break order, an entry of absolute value 1 is final
        pivot, best = None, 0
        for i in range(t, m):
            row = s[i][t:]
            if not any(row):
                continue
            a = min(map(abs, filter(None, row)))
            if not best or a < best:
                j = next(j for j, x in enumerate(row) if x == a or x == -a)
                pivot, best = (i, t + j), a
                if a == 1:
                    break
        return pivot

    for t in range(min(m, n)):
        while True:
            pivot = find_pivot(t)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            done = True
            for i in range(t + 1, m):
                q = s[i][t] // s[t][t]
                if q:
                    row_op(i, t, q)
                if s[i][t]:
                    done = False
            for j in range(t + 1, n):
                q = s[t][j] // s[t][t]
                if q:
                    col_op(j, t, q)
                if s[t][j]:
                    done = False
            if done:
                break
        # pivot clean; move on (divisibility fixed below)

    # normalize signs
    r = min(m, n) if normalize else 0
    for t in range(r):
        if s[t][t] < 0:
            negate_row(t)

    # enforce divisibility chain d_t | d_{t+1}
    changed = True
    while changed:
        changed = False
        for t in range(r - 1):
            a, b = s[t][t], s[t + 1][t + 1]
            if a and b % a != 0:
                # fold entry (t+1, t+1) into the pivot position and rediagonalize
                col_op(t, t + 1, -1)  # col_t += col_{t+1}
                # now s[t+1][t] = b; clear the 2x2 block by euclidean steps
                while s[t + 1][t] or s[t][t + 1]:
                    if s[t + 1][t]:
                        if s[t][t] == 0 or (
                            s[t + 1][t] and abs(s[t + 1][t]) < abs(s[t][t])
                        ):
                            swap_rows(t, t + 1)
                        if s[t + 1][t]:
                            q = s[t + 1][t] // s[t][t]
                            row_op(t + 1, t, q)
                    if s[t][t + 1]:
                        if s[t][t] == 0 or abs(s[t][t + 1]) < abs(s[t][t]):
                            swap_cols(t, t + 1)
                        if s[t][t + 1]:
                            q = s[t][t + 1] // s[t][t]
                            col_op(t + 1, t, q)
                if s[t][t] < 0:
                    negate_row(t)
                if s[t + 1][t + 1] < 0:
                    negate_row(t + 1)
                changed = True

    return (IntMatrix(s),) + tuple(
        None if x is None else IntMatrix(zip(*x) if as_columns else x)
        for x, as_columns in ((u_rows, False), (v_cols, True), (u_inv_cols, True), (v_inv_rows, False))
    )


# Gauss-Jordan elimination over Q, as galforms ran it before qlinalg's
# fraction-free elimination: the reference that rank, solve, mat_inv,
# kernel and the determinant must match.  Entries are read as Fractions,
# so integer input is eliminated exactly too.

def _copy(a):
    return [[Fraction(x) for x in row] for row in a]


def gauss_rank(a):
    if not a or not a[0]:
        return 0
    m = _copy(a)
    nrows, ncols = len(m), len(m[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][col]
        for i in range(r + 1, nrows):
            if m[i][col]:
                factor = m[i][col] / inv
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def gauss_solve(a, b):
    """Solve the square system a x = b; b may be a matrix (list of rows)
    or a vector.  Returns None if a is singular."""
    vector = b and not isinstance(b[0], list)
    rhs = _copy([[x] for x in b] if vector else b)
    m = [list(ra) + list(rb) for ra, rb in zip(_copy(a), rhs)]
    n = len(a)
    width = len(m[0])
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[col])]
    sol = [row[n:width] for row in m]
    return [row[0] for row in sol] if vector else sol


def gauss_mat_inv(a):
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    if n == 0:
        return []
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return gauss_solve(a, eye)


def gauss_kernel(a):
    """Basis of the right kernel {x : a x = 0}, as a list of vectors."""
    if not a:
        return []
    m = _copy(a)
    nrows, ncols = len(m), len(m[0])
    nz = next((x for row in m for x in row if x), None)
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][col]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    if nz is None:
        # zero matrix: kernel is everything, but we have no unit; caller
        # must not pass an all-zero matrix without a sample element
        raise ValueError("kernel of all-zero matrix: basis is the standard one")
    one = nz / nz
    zero = one - one
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for prow, pcol in enumerate(pivots):
            vec[pcol] = zero - m[prow][fc]
        basis.append(vec)
    return basis


def fraction_determinant(rows):
    """Exact determinant via fraction-valued Gaussian elimination."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def inverse_by_solve(x):
    """x^-1 as galforms computed it before the product of conjugates: the
    solution y of (multiplication by x) y = 1 on y's coordinates."""
    field = x.field
    return field.element(qlinalg.solve(k_matrix(field, [[x]]), [1] + [0] * (field.degree - 1)))


# The descent morphism systems as galforms built them before datum
# morphisms were read off the module equivalence.

def datum_morphisms_by_rows(src, dst):
    """Q-basis of {F : K-linear, F M_a = M'_a a^-1(F) for all a}, from the
    linear system on F's rational coordinates written out entry by entry;
    K-matrices (dst.dim x src.dim)."""
    field = src.field
    deg = field.degree
    n1, n2 = src.dim, dst.dim
    nun = n2 * n1 * deg
    if nun == 0:
        return []
    rows = []
    group = src.action.group
    for a in group.elements():
        twist = src.action.elements[group.inv(a)]
        for i in range(n2):
            for j in range(n1):
                # (F M_a)_{ij} - (M'_a tau_{a^-1}(F))_{ij} = 0, one row
                # per rational coordinate
                row = [[Fraction(0)] * nun for _ in range(deg)]
                for l in range(n1):
                    c = src.matrices[a][l][j]
                    if c:
                        mm = k_matrix(field, [[c]])
                        base = (i * n1 + l) * deg
                        for s in range(deg):
                            for t in range(deg):
                                row[s][base + t] += mm[s][t]
                for l in range(n2):
                    c = dst.matrices[a][i][l]
                    if c:
                        comb = k_matrix(field, [[c]], twist)
                        base = (l * n1 + j) * deg
                        for s in range(deg):
                            for t in range(deg):
                                row[s][base + t] -= comb[s][t]
                rows.extend(row)
    return [
        tuple(
            tuple(field.element(vec[(i * n1 + j) * deg: (i * n1 + j + 1) * deg]) for j in range(n1))
            for i in range(n2)
        )
        for vec in qlinalg.kernel(rows)
    ]


def module_morphisms_all_basis(src, dst):
    """Rational basis of {G : G R_x = R'_x G}, imposed for every algebra
    k-basis element x, not only for the generators."""
    n1, n2 = src.dim, dst.dim
    nun = n2 * n1
    if nun == 0:
        return []
    rows = []
    for rx, rxp in zip(src.actions, dst.actions):
        for i in range(n2):
            for j in range(n1):
                row = [Fraction(0)] * nun
                for l in range(n1):
                    row[i * n1 + l] += rx[l][j]
                for l in range(n2):
                    row[l * n1 + j] -= rxp[i][l]
                rows.append(row)
    return [
        [tuple(vec[i * n1 + j] for j in range(n1)) for i in range(n2)]
        for vec in qlinalg.kernel(rows)
    ]


# The descent validity check as galforms ran it before it ran on integer
# k-matrices: twisted composition on K-matrices of field elements.

def datum_violation(datum):
    """validate_datum's violation, or None: the shape, identity and
    normalization checks, bijectivity from the rank of the K-linear
    k-matrix of each M_a, and M_b b^-1(M_a) = (ab)^-1(zeta(a, b)) M_ab
    checked on K-matrices, pair by pair in the same order."""
    action = datum.action
    group, field, n = action.group, action.field, datum.dim
    if len(datum.matrices) != group.order:
        return "one matrix per Galois group element required"
    for a in group.elements():
        m = datum.matrices[a]
        if len(m) != n or any(len(row) != n for row in m):
            return f"matrix for element {a} is not {n}x{n}"
    eye = tuple(tuple(field.one() if i == j else field.zero() for j in range(n)) for i in range(n))
    if datum.matrices[group.identity] != eye:
        return f"identity component is not the identity map (witness {group.identity})"
    if not datum.cocycle.is_normalized():
        return "cocycle is not normalized"
    for a in group.elements():
        if qlinalg.rank(k_matrix(field, datum.matrices[a])) != n * field.degree:
            return f"component {a} is not bijective"
    for a in group.elements():
        for b in group.elements():
            ab = group.table[a][b]
            twisted = [[action.apply(group.inv(b), x) for x in row] for row in datum.matrices[a]]
            lhs = [
                [sum((x * y for x, y in zip(row, col)), field.zero()) for col in zip(*twisted)]
                for row in datum.matrices[b]
            ]
            scalar = action.apply(group.inv(ab), datum.cocycle.value(a, b))
            rhs = [[scalar * x for x in row] for row in datum.matrices[ab]]
            if lhs != rhs:
                return f"twisted composition fails at pair ({a}, {b})"
    return None


# The CLI's argument parser, one hand-written block per command, without
# handlers; cli.build_parser builds the same tree from its command table.

def reference_parser():
    """The argparse tree of the galforms CLI, written out command by command."""
    isogenies = ["simply_connected", "sc", "adjoint"]

    def add_datum_flags(p):
        p.add_argument("--type", type=type_label, required=True, help="Cartan label, e.g. A2, D4, T1")
        p.add_argument("--isogeny", default="simply_connected", choices=isogenies, help="isogeny type")

    parser = _Parser(
        prog="galforms",
        description="Exact classification of forms of reductive groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="Langlands dual of a based root datum")
    add_datum_flags(p)

    p = sub.add_parser("pi1", help="fundamental group of a root datum")
    add_datum_flags(p)

    p = sub.add_parser("outer", help="outer automorphism group")
    add_datum_flags(p)

    p = sub.add_parser("classify-quasisplit", help="Hom(Gamma, Out)/conjugation")
    p.add_argument("--gamma", required=True, help="group spec, e.g. C2, S3, C2xC2")
    p.add_argument("--out", help="target group spec (alternative to --type)")
    p.add_argument("--type", type=type_label, help="Cartan label whose Out(G) is the target")
    p.add_argument("--isogeny", default="simply_connected", choices=isogenies)

    p = sub.add_parser("coinvariants", help="cocharacter coinvariants of a quasi-split twist")
    add_datum_flags(p)
    p.add_argument("--rho", required=True, help="comma-separated Out-element indices, one per Gamma element")
    p.add_argument("--height", type=argv_int, default=4)

    for name, help_text in [
        ("h1", "nonabelian H^1 of a Gamma-group (job document)"),
        ("h2", "H^2 of a Gamma-module via the bar resolution (job document)"),
        ("boundary", "connecting map H^1(C) -> H^2(Z) of a central extension (job document)"),
        ("descend", "validate a semilinear descent datum (job document)"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--job", required=True, help="JSON job file, or - for stdin")

    p = sub.add_parser("hilbert", help="quadratic Hilbert symbol at a place")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.add_argument("-p", "--place", required=True, help="prime or 'inf'")

    p = sub.add_parser("brauer-class", help="ramified places of a quaternion class (d, c)")
    p.add_argument("-d", required=True)
    p.add_argument("-c", required=True)

    p = sub.add_parser("crossed-product", help="crossed product of a Galois extension and a 2-cocycle")
    p.add_argument("-d", type=argv_int, help="quadratic field parameter")
    p.add_argument("-c", help="cocycle value zeta(sigma, sigma)")
    p.add_argument("--job", help="JSON job file for non-quadratic input")

    p = sub.add_parser("inner-invariant", help="pi_1 -> Br homomorphism with algebra family")
    add_datum_flags(p)
    p.add_argument("-d", type=argv_int, required=True, help="quadratic field parameter")
    p.add_argument("--assign", help="comma-separated c per invariant-factor generator")

    return parser
