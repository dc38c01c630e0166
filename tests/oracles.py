"""Brute-force oracles for the cohomology tests: full enumeration of
cocycles and coboundaries, and bounded searches.  Desk scale only; they
check the library's exact algorithms and are not part of it."""

from itertools import product

from galforms.cohomology import (
    is_module_coboundary,
    kx_coboundary_of,
    module_coboundary,
    normalize_module_cocycle,
)


def cohomologous_module_cocycles(module, t1, t2):
    diff = {key: module.sub(t1[key], t2[key]) for key in t1}
    return is_module_coboundary(module, diff) is not None


def enumerate_cocycles(module):
    """All normalized 2-cocycles, by backtracking over the entries with
    both arguments != identity."""
    gamma = module.gamma
    n = gamma.order
    e = gamma.identity
    others = [g for g in range(n) if g != e]
    pairs = [(a, b) for a in others for b in others]
    elems = list(module.elements())
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
    elems = list(module.elements())
    for values in product(elems, repeat=len(others)):
        f = {e: module.zero()}
        for g, v in zip(others, values):
            f[g] = v
        d = module_coboundary(module, f)
        d = normalize_module_cocycle(module, d)
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
