"""Seeded job lists for the three workloads.

A workload is a sequence of rounds.  Every round, whatever the seed and
its index, has the same make-up (the same jobs of each kind and cost
class), so that neither the seed nor the number of rounds a run makes
changes the mix; the seed picks the parameters that barely move the
cost, and the order.  Each job carries a check against an
answer computed in `oracles`, never by galforms.

About 5 % of every round are inputs whose right answer is an error/v1
object.  On `lie` and `cohomology` these are the known defects (see
KNOWN_DEFECTS); they fail today and are counted as failed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Callable, Optional

import oracles as O

KNOWN_DEFECTS = {
    "boundary-inclusion-str": 'boundary with "inclusion": "ab" (TypeError traceback)',
    "h1-action-ints": 'h1 with "action": [5, 6] (TypeError traceback)',
    "coinvariants-rho-1-1": "coinvariants --rho 1,1 (not a homomorphism, exit 0)",
}


@dataclass
class Job:
    label: str                       # command and the parameters that set its cost
    argv: list
    check: Callable                  # (exit code, parsed stdout or None) -> reason or None
    defect: Optional[str] = None     # key of KNOWN_DEFECTS this job exercises
    then: Optional[Callable] = None  # answer -> the Job that runs right after


def q(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def expect_ok(schema, body):
    def check(code, doc):
        if code != 0:
            return f"exit {code}"
        if not isinstance(doc, dict) or doc.get("schema") != schema:
            return "wrong schema"
        return body(doc)
    return check


def expect_error(code_expected, kind):
    def check(code, doc):
        if code != code_expected:
            return f"exit {code}, expected {code_expected}"
        if not isinstance(doc, dict) or doc.get("schema") != "galforms/error/v1":
            return "no error/v1 object"
        if doc.get("kind") != kind:
            return f"error kind {doc.get('kind')!r}"
        return None
    return check


def mismatch(what, got, want):
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


class JobFiles:
    """Writes job documents as files for `--job`."""

    def __init__(self, directory):
        self.directory = directory
        self.count = 0

    def write(self, doc):
        self.count += 1
        path = self.directory / f"job{self.count:06d}.json"
        path.write_text(json.dumps(doc))
        return str(path)


# --- lie ----------------------------------------------------------------------

QUAD_D = [-1, -2, -3, -5, -6, -7, -10, -11, 2, 3, 5, 6, 7, 10, 11, 13]
SC, AD = "simply_connected", "adjoint"
# (type, isogeny, dual/pi1/outer, Gamma for classify-quasisplit) per pool
# pair: all families, both isogenies, every rank from 1 to 8, and each
# Gamma about three times.  Every round and every seed runs this same
# list, so that the number of rounds a run makes does not change its
# mix; the seed picks the rest.  D4, the only type whose Out is S3, gets
# the two costly Gammas.  After the six costliest jobs of a round (C3xC3
# on D4, the four E8 jobs, C2xC2xC2 on D4) come outer, classify-quasisplit
# and coinvariants on D8 in both isogenies (~0.25 s each), so the 90th
# percentile (rank 8.85 of 84 from the top) falls inside these six.
LIE_POOL = [
    ("D4", SC, "outer", "C2xC2xC2"), ("D4", AD, "dual", "C3xC3"),
    ("E6", SC, "outer", "C2"), ("E7", AD, "pi1", "C3"), ("E8", SC, "dual", "S3"),
    ("D8", AD, "outer", "C2xC2"), ("D8", SC, "outer", "C4"),
    ("A5", AD, "dual", "C2xC2xC2"), ("A6", SC, "pi1", "C3xC3"), ("B6", SC, "outer", "C2"),
    ("C5", AD, "dual", "C3"), ("D5", AD, "pi1", "S3"), ("D6", SC, "outer", "C2xC2"),
    ("A1", AD, "dual", "C4"), ("A2", SC, "outer", "C2xC2xC2"), ("A3", AD, "pi1", "C3xC3"),
    ("B3", SC, "dual", "C2"), ("C4", AD, "outer", "C3"), ("F4", SC, "pi1", "S3"),
    ("G2", AD, "dual", "C2xC2"),
]
LIE_WARMUP = ("A4", SC)


def _split(label):
    return label[0], int(label[1:])


def _height(rank):
    return 4 if rank <= 4 else 2 if rank <= 6 else 1


def _dual_check(family, n, isogeny):
    def body(doc):
        roots, coroots = doc["roots"], doc["coroots"]
        want = O.root_count(family, n)
        if doc["rank"] != n or len(roots) != want or len(coroots) != want:
            return f"rank/root count {doc['rank']}/{len(roots)}, want {n}/{want}"
        if any(sum(a * b for a, b in zip(r, c)) != 2 for r, c in zip(roots, coroots)):
            return "<alpha, alpha^vee> != 2"
        simple = [roots[i] for i in doc["simple_indices"]]
        if len(simple) != n:
            return "wrong number of simple roots"
        want_det = 1 if isogeny == "simply_connected" else O.cartan_det(family, n)
        return mismatch("lattice index of the root lattice", abs(O.int_det(simple)), want_det)
    return body


def _outer_check(family, n):
    def body(doc):
        order = O.out_order(family, n)
        perms = [tuple(p) for p in doc["simple_permutations"]]
        if doc["order"] != order or len(set(perms)) != order:
            return f"|Out| {doc['order']}, want {order}"
        if any(sorted(p) != list(range(n)) for p in perms) or tuple(range(n)) not in perms:
            return "simple permutations are not a group of permutations"
        return None
    return body


def _datum_job(cmd, label, isogeny):
    family, n = _split(label)
    argv = [cmd, "--type", label, "--isogeny", isogeny]
    if cmd == "dual":
        check = expect_ok("galforms/root-datum/v1", _dual_check(family, n, isogeny))
    elif cmd == "pi1":
        want = O.pi1_factors(family, n, isogeny)
        check = expect_ok("galforms/abelian-group/v1", lambda d: mismatch(
            "pi1", (d["invariant_factors"], d["free_rank"]), (want, 0)))
    else:
        check = expect_ok("galforms/outer/v1", _outer_check(family, n))
    return Job(f"{cmd} {label} {isogeny}", argv, check)


def _coinvariants_job(label, isogeny, rho):
    family, n = _split(label)
    height = _height(n)
    nodes, points, orbits = O.coinvariant_reference(family, n, isogeny, len(set(rho)), height)

    def body(doc):
        got = (doc["coinvariants"]["invariant_factors"], doc["coinvariants"]["free_rank"],
               doc["fixed_rank"], doc["moved_rank"], len(doc["orbits"]),
               sum(len(o) for o in doc["orbits"]))
        return mismatch("coinvariants", got, ([], nodes, nodes, n - nodes, orbits, points))

    argv = ["coinvariants", "--type", label, "--isogeny", isogeny,
            "--rho", ",".join(map(str, rho)), "--height", str(height)]
    return Job(f"coinvariants {label} {isogeny} |im|={len(set(rho))}", argv,
               expect_ok("galforms/coinvariants/v1", body))


def _classify_job(label, isogeny, gamma, pick):
    family, n = _split(label)
    order = len(O.perm_group(gamma))
    _homs, classes = O.hom_classes(gamma, O.out_group(family, n))

    def body(doc):
        rhos = [c["rho"] for c in doc["classes"]]
        if any(len(r) != order for r in rhos):
            return "rho of wrong length"
        return mismatch("class count", (doc["count"], len(rhos)), (classes, classes))

    def then(doc):
        """Coinvariants of an answer with the largest image, which sets
        the cost, so that the cost is the same whatever the pick."""
        rho = [0] * order
        if isinstance(doc, dict) and doc.get("classes"):
            rhos = [c["rho"] for c in doc["classes"]]
            widest = max(len(set(r)) for r in rhos)
            rhos = [r for r in rhos if len(set(r)) == widest]
            rho = rhos[pick % len(rhos)]
        return _coinvariants_job(label, isogeny, rho)

    argv = ["classify-quasisplit", "--gamma", gamma, "--type", label, "--isogeny", isogeny]
    return Job(f"classify-quasisplit {gamma} {label} {isogeny}", argv,
               expect_ok("galforms/quasisplit/v1", body), then=then)


def _norm_value(rng, d):
    while True:
        x, y = rng.randint(-6, 6), rng.randint(-6, 6)
        c = x * x - d * y * y
        if c not in (0, 1):
            return c


def _inner_job(rng, label, isogeny):
    family, n = _split(label)
    factors = O.pi1_factors(family, n, isogeny)
    d = rng.choice(QUAD_D)
    cs = []
    for f in factors:
        if f % 2 or rng.random() < 0.3:
            cs.append(Fraction(_norm_value(rng, d)))
        else:
            cs.append(Fraction(rng.choice([-1, 1]) * rng.randint(2, 40), rng.randint(1, 5)))
    components = []
    for element in product(*(range(f) for f in factors)):
        c = Fraction(1)
        for e, ci in zip(element, cs):
            if e % 2:
                c *= ci
        ram = O.ramified_places(d, c, _primes_of(d, c))
        components.append({"element": list(element), "ramified": ram, "trivial": not ram,
                           "presenting_c": q(c), "split_algebra": not ram})
    want = {"schema": "galforms/inner-invariant/v1",
            "pi1": {"invariant_factors": factors, "free_rank": 0},
            "field": {"kind": "quadratic", "d": d}, "components": components}
    argv = ["inner-invariant", "--type", label, "--isogeny", isogeny, f"-d={d}"]
    if cs:
        argv.append("--assign=" + ",".join(q(c) for c in cs))
    return Job(f"inner-invariant {label} {isogeny}", argv,
               expect_ok(want["schema"], lambda doc: mismatch("inner invariant", doc, want)))


def _defect_rho(rng):
    label = rng.choice(["A2", "A3", "A4", "A5"])
    argv = ["coinvariants", "--type", label, "--isogeny", "adjoint", "--rho", "1,1"]
    return Job(f"coinvariants {label} adjoint rho=1,1", argv, expect_error(2, "malformed-input"),
               defect="coinvariants-rho-1-1")


def lie_round(seed, index, files):
    """Per pool pair: its dual/pi1/outer job, classify-quasisplit followed
    by coinvariants of one of its answers, and inner-invariant.  The seed
    picks the answer used for coinvariants (among those with the largest
    image), the quadratic data and the order."""
    rng = random.Random(f"lie-{seed}-{index}")
    jobs = [[_datum_job(cmd, label, isogeny),
             _classify_job(label, isogeny, gamma, rng.randrange(1000)),
             _inner_job(rng, label, isogeny)]
            for label, isogeny, cmd, gamma in LIE_POOL]
    rng.shuffle(jobs)
    flat = [j for group in jobs for j in group]
    for _ in range(4):
        flat.insert(rng.randrange(len(flat) + 1), _defect_rho(rng))
    return flat


def lie_warmup(seed, files):
    label, isogeny = LIE_WARMUP
    rng = random.Random(f"lie-warm-{seed}")
    return [_datum_job(c, label, isogeny) for c in ("dual", "pi1", "outer")] + [
        _classify_job(label, isogeny, "C2", 0), _inner_job(rng, label, isogeny)]


# --- cohomology -------------------------------------------------------------

EXTENSIONS = [   # (Z, B, C, inclusion, projection), trivial Gamma-action
    ("C2", "C4", "C2", [0, 2], [x % 2 for x in range(4)]),
    ("C3", "C9", "C3", [0, 3, 6], [x % 3 for x in range(9)]),
    ("C2", "C8", "C4", [0, 4], [x % 4 for x in range(8)]),
    ("C4", "C8", "C2", [0, 2, 4, 6], [x % 2 for x in range(8)]),
    ("C2", "C2xC2", "C2", [0, 2], [x % 2 for x in range(4)]),
    ("C2", "C2xC4", "C4", [0, 4], [x % 4 for x in range(8)]),
    ("C2", "C4xC2", "C4", [0, 1], [x // 2 for x in range(8)]),
]


def _signs(gamma, inverting):
    """+1/-1 per Gamma element for the sign character of a cyclic group
    (generator acts by -1), or all +1."""
    order = len(O.perm_group(gamma))
    return [(-1) ** g if inverting else 1 for g in range(order)]


def _h2_job(files, gamma, moduli, inverting):
    signs = _signs(gamma, inverting)
    k = len(moduli)
    doc = {"gamma": gamma, "moduli": moduli}
    if inverting:
        doc["action"] = [[[s if i == j else 0 for j in range(k)] for i in range(k)] for s in signs]
    want = O.elementary_divisors(O.h2_reference(gamma, moduli, inverting))

    def body(out):
        factors = out["invariant_factors"]
        if O.elementary_divisors(factors) != want or out["free_rank"] != 0:
            return f"H^2 {factors}, want elementary divisors {want}"
        if len(out["representatives"]) != len(factors):
            return "one representative per invariant factor expected"
        for rep in out["representatives"]:
            if not O.is_normalized_two_cocycle(gamma, moduli, signs, rep):
                return "representative is not a normalized 2-cocycle"
        return None

    action = "sign" if inverting else "trivial"
    return Job(f"h2 {gamma} {moduli} {action}", ["h2", "--job", files.write(doc)],
               expect_ok("galforms/h2/v1", body))


def _h1_job(files, gamma, coeff, inverting):
    doc = {"gamma": gamma, "coefficients": coeff}
    if inverting:
        m = int(coeff[1:])
        inv = [(m - x) % m for x in range(m)]
        doc["action"] = [inv if s < 0 else list(range(m)) for s in _signs(gamma, True)]
        total, classes = m, gcd(2, m)
    else:
        total, classes = O.hom_classes(gamma, O.perm_group(coeff))

    def body(out):
        got = (out["count"], sum(len(c) for c in out["representatives"]))
        return mismatch("H^1 classes/cocycles", got, (classes, total))

    action = "sign" if inverting else "trivial"
    return Job(f"h1 {gamma} {coeff} {action}", ["h1", "--job", files.write(doc)],
               expect_ok("galforms/h1/v1", body))


def _gamma_hom(rng, gamma, target_order):
    """A homomorphism from a product of cyclic groups to Z/target_order,
    as a list of values in index order."""
    orders = [int(p[1:]) for p in gamma.split("x")]
    images = [rng.choice([c for c in range(target_order) if (o * c) % target_order == 0])
              for o in orders]
    values = []
    for coords in product(*(range(o) for o in orders)):
        values.append(sum(c * i for c, i in zip(coords, images)) % target_order)
    return values


def _boundary_job(files, rng, gamma, ext, bad_inclusion=False):
    z, b, c, inclusion, projection = ext
    cocycle = _gamma_hom(rng, gamma, len(O.perm_group(c)))
    doc = {"gamma": gamma, "z": z, "b": b, "c": c, "inclusion": inclusion,
           "projection": projection, "cocycle": cocycle}
    if bad_inclusion:
        doc["inclusion"] = "ab"
        return Job(f"boundary {gamma} {z}->{b} inclusion=ab", ["boundary", "--job", files.write(doc)],
                   expect_error(2, "malformed-input"), defect="boundary-inclusion-str")
    gtab = O.group_table(gamma)
    btab = O.group_table(b)
    binv = [row.index(0) for row in btab]
    lift = lambda y: min(x for x in range(len(projection)) if projection[x] == y)
    lifts = [0] + [lift(cocycle[a]) for a in range(1, len(gtab))]
    z_index = {bi: zi for zi, bi in enumerate(inclusion)}
    table = []
    for a in range(len(gtab)):
        for b_ in range(len(gtab)):
            val = btab[btab[lifts[a]][lifts[b_]]][binv[lifts[gtab[a][b_]]]]
            table.append([a, b_, z_index[val]])
    return Job(f"boundary {gamma} {z}->{b}->{c}", ["boundary", "--job", files.write(doc)],
               expect_ok("galforms/boundary/v1", lambda out: mismatch("table", out["table"], table)))


H2_MODULI = [2, 3, 4, 6, 8]
# (Gamma, moduli) per h2 job of a round; "~" marks the sign action and a
# number k stands for k moduli picked by the seed.  Order 8 takes ~2 s
# and C7 ~0.7 s, and their cost depends on the modulus, so the costly
# jobs are the same in every round and seed.  The eight order-6 jobs
# (~0.3 s whatever the modulus and action) hold ranks 6-13 of a round of
# 80, so the 90th percentile (rank 8.9) falls inside them; the rest stay
# below 0.15 s.
H2_SLOTS = [
    ("C8", [4]), ("C4xC2", [4]), ("C2xC4", [2]), ("C2xC2xC2", [2]), ("C7", [6]), ("S3", [6]),
    ("C6", [2]), ("C6", [3]), ("C6", [4]), ("C6", [6]), ("~C6", [2]), ("~C6", [4]), ("~C6", [6]),
    ("C2", 1), ("C3", 1), ("C4", 1), ("C5", 1), ("C2xC2", 1), ("~C2", 1), ("~C4", 1), ("C5", 1),
    ("C2", 2), ("C3", 2), ("~C2", 2), ("C3", 2), ("C2", 2), ("C3", 2),
    ("C2", 1), ("C4", 1), ("C2xC2", 1), ("~C4", 1), ("C3", 2),
]
# (Gamma, coefficient choices of one order, sign action allowed) per h1
# job; the library enumerates |A|^(|Gamma|-1) candidate cocycles.
H1_SLOTS = [
    ("C2", ["S4"], False), ("C3", ["S4"], False), ("C2xC2", ["S3", "C6"], False),
    ("S3", ["S3", "C6"], False), ("S3", ["C4", "C2xC2"], False), ("C6", ["C6", "S3"], False),
    ("C5", ["C5"], False), ("C4", ["C4", "C2xC2"], False), ("C3", ["S3", "C6"], False),
    ("C2", ["C6"], True), ("C4", ["C5"], True), ("C6", ["C4"], True), ("C6", ["C3"], True),
    ("C2xC2", ["C4", "C2xC2"], False), ("C5", ["C3"], False),
    ("C2", ["S3"], False), ("C3", ["C4", "C2xC2"], False), ("C2xC2", ["C3"], False),
    ("C2", ["C5"], True), ("C4", ["C3"], True),
]
BOUNDARY_GAMMAS = ["C2", "C3", "C4", "C6", "C2xC2"]


def cohomology_round(seed, index, files):
    """80 jobs: 32 h2, 20 h1, 24 boundary and 4 known defects.  The
    groups, which set the cost, are the same in every round; the seed
    picks the cheap jobs' moduli, coefficients, extensions, cocycles and
    the order."""
    rng = random.Random(f"cohomology-{seed}-{index}")
    jobs = []
    for gamma, moduli in H2_SLOTS:
        if isinstance(moduli, int):
            moduli = [rng.choice(H2_MODULI) for _ in range(moduli)]
        jobs.append(_h2_job(files, gamma.lstrip("~"), moduli, gamma.startswith("~")))
    for gamma, coeffs, sign in H1_SLOTS:
        coeff = rng.choice(coeffs)
        jobs.append(_h1_job(files, gamma, coeff, sign and coeff.startswith("C")))
    for _ in range(24):
        jobs.append(_boundary_job(files, rng, rng.choice(BOUNDARY_GAMMAS), rng.choice(EXTENSIONS)))
    for _ in range(2):
        jobs.append(_boundary_job(files, rng, rng.choice(["C2", "C4"]), EXTENSIONS[0], bad_inclusion=True))
        doc = {"gamma": "C2", "coefficients": rng.choice(["C3", "C4", "C5"]), "action": [5, 6]}
        jobs.append(Job("h1 C2 action=[5,6]", ["h1", "--job", files.write(doc)],
                        expect_error(2, "malformed-input"), defect="h1-action-ints"))
    rng.shuffle(jobs)
    return jobs


def cohomology_warmup(seed, files):
    rng = random.Random(f"cohomology-warm-{seed}")
    return [_h2_job(files, "C2", [5], False), _h1_job(files, "C2", "C7", False),
            _boundary_job(files, rng, "C5", EXTENSIONS[0])]


# --- arith --------------------------------------------------------------------

SQUAREFREE_D = [d for d in range(-30, 31)
                if d not in (0, 1) and all(d % (p * p) for p in (2, 3, 5))]


def _primes_of(*values):
    out = set()
    for v in values:
        v = Fraction(v)
        out |= O.small_primes(v.numerator) | O.small_primes(v.denominator)
    return out


def _rational(rng, big):
    num = rng.choice([-1, 1]) * rng.randint(2, big)
    return Fraction(num, rng.choice([1, 1, 1, rng.randint(2, 50)]))


class Unique:
    """Remembers inputs so that no two arith jobs in a run share one."""

    def __init__(self):
        self.seen = set()

    def fresh(self, key):
        if key in self.seen:
            return False
        self.seen.add(key)
        return True


def _hilbert_job(rng, unique):
    while True:
        a, b = _rational(rng, 5000), _rational(rng, 5000)
        place = rng.choice(["inf", 2, rng.choice(sorted(_primes_of(a, b) | {3, 5, 7}))])
        if unique.fresh(("hilbert", a, b, place)):
            break
    want = O.hilbert(a, b, place)
    argv = ["hilbert", f"-a={q(a)}", f"-b={q(b)}", "-p", str(place)]
    return Job(f"hilbert p={place}", argv, expect_ok(
        "galforms/hilbert/v1", lambda doc: mismatch("symbol", doc["symbol"], want)))


def _brauer_job(rng, unique, semiprime):
    while True:
        if semiprime:
            d = rng.choice(SQUAREFREE_D)
            primes = []
            while len(primes) < 2:
                p = rng.randrange(900001, 1000000, 2)
                if O.is_prime(p) and p not in primes:
                    primes.append(p)
            c = Fraction(rng.choice([-1, 1]) * primes[0] * primes[1])
            known = _primes_of(d) | set(primes)
        else:
            d = rng.choice([-1, 1]) * rng.randint(2, 10000)
            c = _rational(rng, 10000)
            known = _primes_of(d, c)
        if unique.fresh(("brauer", d, c)):
            break
    ram = O.ramified_places(d, c, known)
    argv = ["brauer-class", f"-d={d}", f"-c={q(c)}"]
    return Job(f"brauer-class {'semiprime' if semiprime else 'small'}", argv, expect_ok(
        "galforms/brauer-class/v1",
        lambda doc: mismatch("class", (doc["ramified"], doc["trivial"]), (ram, not ram))))


def _quadratic_cp_job(rng, unique, kind, fixed=None):
    """kind: 'nonsplit'; 'split-small', c = 6^2 - d y^2, so that a zero
    divisor lies in the first slice (x0 = -6) of the library's search box
    [-6, 6]^4; or 'split-large', no zero divisor in the box at all."""
    while True:
        d = rng.choice(SQUAREFREE_D)
        if fixed:
            d, c = fixed
        elif kind == "nonsplit":
            c = rng.choice([-1, 1]) * rng.randint(2, 200)
        elif kind == "split-small":
            c = 36 - d * rng.randint(1, 6) ** 2
        else:
            x, y = rng.randint(10, 80), rng.randint(10, 80)
            c = x * x - d * y * y
        if c in (0, 1, -1) or not unique.fresh(("cp", d, c)):
            continue
        ram = O.ramified_places(d, c, _primes_of(d, c))
        if (kind == "nonsplit") == (not ram):
            continue
        small = O.small_norm_solution(d, c, 6)
        if kind == "nonsplit" or small == (kind == "split-small"):
            break
    one = ["1/1", "0/1"]
    want = {"schema": "galforms/crossed-product/v1", "field": {"kind": "quadratic", "d": d},
            "cocycle": [[0, 0, one], [0, 1, one], [1, 0, one], [1, 1, [q(c), "0/1"]]],
            "dimension": 4, "center_dimension": 1, "central_simple": True, "split": not ram}

    def body(doc):
        zd = doc.pop("zero_divisor", None)
        bad = mismatch("crossed product", doc, want)
        if bad or zd is None:
            return bad
        x, y = [[tuple(Fraction(v) for v in coords) for coords in elt] for elt in zd]
        prod_ = O.quaternion_product(d, c, x, y)
        if not any(any(v) for v in x) or not any(any(v) for v in y):
            return "zero divisor certificate has a zero factor"
        if any(any(v) for v in prod_):
            return "zero divisor certificate does not multiply to 0"
        return None

    argv = ["crossed-product", f"-d={d}", f"-c={c}"]
    return Job(f"crossed-product quadratic {kind}", argv,
               expect_ok("galforms/crossed-product/v1", body))


def _field_doc(field):
    return ({"kind": "quadratic", "d": field.param} if field.kind == "quadratic"
            else {"kind": "cyclotomic", "n": field.param})


def _random_unit(rng, field):
    """A nonzero element with an irrational coordinate."""
    coords = [rng.randint(-2, 2) for _ in range(field.deg)]
    coords[rng.randrange(1, field.deg)] = rng.choice([-2, -1, 1, 2])
    return field.elt(coords)


def _ser(x):
    return [q(v) for v in x]


def _cyclic_exponents(field):
    """Exponent of each Galois element for a generator g, or None when
    the group is not cyclic."""
    m = len(field.units)
    for g in range(1, m):
        powers, cur = [], 0
        for _ in range(m):
            powers.append(cur)
            cur = field.group_mul(cur, g)
        if len(set(powers)) == m:
            exps = [0] * m
            for e, h in enumerate(powers):
                exps[h] = e
            return exps
    return None


def _cyclotomic_cp_job(rng, files, unique, n):
    field = O.Field("cyclotomic", n)
    m = len(field.units)
    exps = _cyclic_exponents(field)
    while True:
        c = Fraction(rng.choice([-1, 1]) * rng.randint(2, 9), rng.randint(1, 3)) if exps else None
        b = [field.one()] + [_random_unit(rng, field) for _ in range(m - 1)]
        if unique.fresh(("cyc", n, c, tuple(b))):
            break
    table = []
    for a in range(m):
        for h in range(m):
            value = field.scalar(c if exps and exps[a] + exps[h] >= m else 1)
            cob = field.mul(field.mul(b[a], field.act(a, b[h])), field.inv(b[field.group_mul(a, h)]))
            table.append([a, h, _ser(field.mul(value, cob))])
    doc = {"field": _field_doc(field), "cocycle": table}
    want = {"schema": "galforms/crossed-product/v1", "field": doc["field"], "cocycle": table,
            "dimension": m * m, "center_dimension": 1, "central_simple": True, "split": None}
    return Job(f"crossed-product cyclotomic n={n}", ["crossed-product", "--job", files.write(doc)],
               expect_ok(want["schema"], lambda out: mismatch("crossed product", out, want)))


def _descend_job(rng, files, unique, field, dim, kind):
    """kind: 'valid' (untwisted, M_a = Q tau_a^-1(Q)^-1), 'twisted'
    (order-2 group, M_sigma = Q D sigma(Q)^-1 with D sigma(D) = c), or
    'invalid' (one non-identity matrix of a valid datum doubled)."""
    m = len(field.units)
    while True:
        unit = lambda: _random_unit(rng, field)
        small = lambda: field.elt([rng.randint(-2, 2) for _ in range(field.deg)])
        lower = [[field.one() if i == j else small() if i > j else field.zero()
                  for j in range(dim)] for i in range(dim)]
        upper = [[field.one() if i == j else small() if i < j else field.zero()
                  for j in range(dim)] for i in range(dim)]
        diag = [unit() for _ in range(dim)]
        qmat = field.mat_mul(lower, upper)
        qmat = [[field.mul(diag[i], x) for x in row] for i, row in enumerate(qmat)]

        def twisted_inverse(g):
            """tau_g(Q)^-1 = tau_g(U)^-1 tau_g(L)^-1 tau_g(D)^-1."""
            u = O.unipotent_inverse(field, field.mat_act(g, upper), lower=False)
            low = O.unipotent_inverse(field, field.mat_act(g, lower), lower=True)
            inv = field.mat_mul(u, low)
            return [[field.mul(x, field.inv(field.act(g, diag[j]))) for j, x in enumerate(row)]
                    for row in inv]

        cocycle, c = "trivial", None
        mats = [field.mat_mul(qmat, twisted_inverse(field.group_inv(g))) for g in range(m)]
        if kind == "twisted":
            if dim == 2:
                c = Fraction(rng.choice([-1, 1]) * rng.randint(2, 9), rng.randint(1, 3))
                middle = [[field.zero(), field.scalar(c)], [field.one(), field.zero()]]
            else:
                x = unit()
                c = field.norm(x)
                middle = [[x if i == j else field.zero() for j in range(dim)] for i in range(dim)]
            cocycle = {"c": q(c)}
            mats[1] = field.mat_mul(field.mat_mul(qmat, middle), twisted_inverse(1))
        bad = rng.randrange(1, m) if kind == "invalid" else None
        if bad is not None:
            mats[bad] = [[field.add(x, x) for x in row] for row in mats[bad]]
        key = tuple(tuple(tuple(row) for row in mat) for mat in mats)
        if c != 1 and unique.fresh(("descend", field.kind, field.param, c, key)):
            break
    doc = {"field": _field_doc(field), "cocycle": cocycle,
           "matrices": [[[_ser(x) for x in row] for row in mat] for mat in mats]}

    def body(out):
        if kind == "invalid":
            if out["valid"] is not False or not isinstance(out["violation"], str):
                return "invalid datum accepted"
            return None if "module_dimension" not in out else "module built for an invalid datum"
        got = (out["valid"], out["violation"], out["module_dimension"])
        bad = mismatch("descent", got, (True, None, dim * field.deg))
        if bad or kind == "twisted":
            return bad or (None if "fixed_space" not in out else "fixed space for a twisted datum")
        basis = [[Fraction(v) for v in vec] for vec in out["fixed_space"]]
        if out["fixed_dimension"] != dim or len(basis) != dim:
            return f"fixed dimension {out['fixed_dimension']}, want {dim} (Hilbert 90)"
        for vec in basis:
            kvec = [tuple(vec[j * field.deg:(j + 1) * field.deg]) for j in range(dim)]
            for g in range(m):
                image = field.mat_vec(mats[g], [field.act(field.group_inv(g), x) for x in kvec])
                if image != kvec:
                    return f"fixed vector moved by Galois element {g}"
        return None if O.rational_rank(basis) == dim else "fixed vectors are dependent"

    label = f"descend {field.kind}={field.param} dim={dim} {kind}"
    return Job(label, ["descend", "--job", files.write(doc)], expect_ok("galforms/descend/v1", body))


def _error_job(rng, files, unique, which):
    while True:
        k = rng.randint(2, 40)
        if unique.fresh(("error", which, k)):
            break
    if which == "cp":
        argv = ["crossed-product", "-d", str(k * k * rng.choice([1, 2, 3])), "-c", str(k + 1)]
        return Job("crossed-product non-squarefree d", argv, expect_error(1, "domain-error"))
    if which == "brauer":
        return Job("brauer-class c=0", ["brauer-class", "-d", str(k), "-c", "0"],
                   expect_error(1, "domain-error"))
    doc = {"field": {"kind": "rationals"}, "cocycle": "trivial", "matrices": [[[str(k)]]]}
    return Job("descend over Q", ["descend", "--job", files.write(doc)],
               expect_error(2, "malformed-input"))


# (degree, field family, dimension, kind) per descend job of a round.
DESCEND_SLOTS = [
    (2, "quadratic", 1, "valid"), (2, "quadratic", 2, "valid"), (2, "quadratic", 3, "valid"),
    (2, "quadratic", 2, "twisted"), (2, "quadratic", 3, "twisted"),
    (2, "quadratic", 1, "invalid"), (2, "quadratic", 2, "invalid"),
    (2, "cyclotomic", 2, "valid"), (2, "cyclotomic", 3, "valid"), (2, "cyclotomic", 2, "twisted"),
    (4, "cyclotomic", 1, "valid"), (4, "cyclotomic", 2, "valid"), (4, "cyclotomic", 2, "invalid"),
]


def arith_round(seed, index, files, unique):
    """70 jobs, all inputs new to the run.  The kind of each job, which
    sets its cost, is fixed per slot; the seed picks the numbers."""
    rng = random.Random(f"arith-{seed}-{index}")
    jobs = [_hilbert_job(rng, unique) for _ in range(13)]
    jobs += [_brauer_job(rng, unique, False) for _ in range(8)]
    jobs += [_brauer_job(rng, unique, True) for _ in range(4)]
    # 29 jobs take under ~14 ms and 30 more than ~20 ms, so the median
    # falls in the middle of these eleven (~15-20 ms).
    jobs += [_quadratic_cp_job(rng, unique, "nonsplit") for _ in range(11)]
    jobs += [_quadratic_cp_job(rng, unique, "split-small") for _ in range(3)]
    jobs += [_quadratic_cp_job(rng, unique, "split-large", fixed=(2, 97) if index == 0 else None)]
    jobs += [_quadratic_cp_job(rng, unique, "split-large") for _ in range(2)]
    # The nine degree-4 algebras (~1 s each) are where the 90th
    # percentile falls.
    jobs += [_cyclotomic_cp_job(rng, files, unique, n) for n in (3, 4, 5, 5, 5, 5, 8, 8, 8, 8, 8)]
    for degree, kind, dim, validity in DESCEND_SLOTS:
        if kind == "quadratic":
            field = O.Field("quadratic", rng.choice(SQUAREFREE_D))
        else:
            field = O.Field("cyclotomic", rng.choice([3, 4] if degree == 2 else [5, 8]))
        jobs.append(_descend_job(rng, files, unique, field, dim, validity))
    jobs += [_error_job(rng, files, unique, w) for w in ("cp", "brauer", "descend", "cp")]
    rng.shuffle(jobs)
    return jobs


def arith_warmup(seed, files):
    doc = {"field": {"kind": "cyclotomic", "n": 3}, "cocycle": "trivial"}
    want = {"schema": "galforms/crossed-product/v1", "field": doc["field"],
            "cocycle": [[a, b, ["1/1", "0/1"]] for a in range(2) for b in range(2)],
            "dimension": 4, "center_dimension": 1, "central_simple": True, "split": None}
    warm_descend = {"field": {"kind": "quadratic", "d": -1}, "cocycle": "trivial",
                    "matrices": [[[["1/1", "0/1"]]], [[["1/1", "0/1"]]]]}
    return [
        Job("hilbert warm-up", ["hilbert", "-a", "-1", "-b", "-1", "-p", "inf"],
            expect_ok("galforms/hilbert/v1", lambda d: mismatch("symbol", d["symbol"], -1))),
        Job("brauer-class warm-up", ["brauer-class", "-d", "-1", "-c", "-1"],
            expect_ok("galforms/brauer-class/v1", lambda d: mismatch("ramified", d["ramified"], [2, "inf"]))),
        Job("crossed-product warm-up", ["crossed-product", "-d", "-1", "-c", "-1"],
            expect_ok("galforms/crossed-product/v1", lambda d: mismatch("split", d["split"], False))),
        Job("crossed-product job warm-up", ["crossed-product", "--job", files.write(doc)],
            expect_ok(want["schema"], lambda d: mismatch("crossed product", d, want))),
        Job("descend warm-up", ["descend", "--job", files.write(warm_descend)],
            expect_ok("galforms/descend/v1", lambda d: mismatch(
                "fixed dimension", (d["valid"], d.get("fixed_dimension")), (True, 1)))),
    ]


class Workload:
    """Round generator with the state a run needs (job files, and the
    set of inputs already used on arith)."""

    def __init__(self, name, seed, files):
        self.name, self.seed, self.files = name, seed, files
        self.unique = Unique()

    def round(self, index):
        if self.name == "lie":
            return lie_round(self.seed, index, self.files)
        if self.name == "cohomology":
            return cohomology_round(self.seed, index, self.files)
        return arith_round(self.seed, index, self.files, self.unique)

    def warmup(self):
        return {"lie": lie_warmup, "cohomology": cohomology_warmup,
                "arith": arith_warmup}[self.name](self.seed, self.files)


WORKLOADS = ("lie", "cohomology", "arith")
