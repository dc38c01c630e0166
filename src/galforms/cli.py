"""Command-line interface.

JSON in, JSON out: every result document carries a versioned "schema"
field; rationals are serialized as "p/q" strings, field elements as
coordinate arrays over the power basis, group elements as indices into
the element order fixed by the library.  Exit codes: 0 success, 1 domain
error (machine-readable error object on stdout), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import prod

from .cohomology import (
    CentralExtension,
    GGroup,
    GModule,
    GaloisAction,
    KxCocycle,
    boundary_map,
    h1_nonabelian,
    h2_bar,
    quadratic_cocycle,
    trivial_kx_cocycle,
)
from .crossed import CrossedProductAlgebra, find_zero_divisor
from .descent import (
    SemilinearDatum,
    fixed_space,
    kmat,
    to_module,
    validate_datum,
)
from .exact_linalg import IntMatrix
from .fields import (
    INFINITE_PLACE,
    brauer_class_quaternion,
    cyclotomic_field,
    hilbert_symbol,
    quadratic_field,
    RATIONALS,
)
from .groups import cyclic, direct_product, symmetric
from .classify import (
    QuasiSplitForm,
    _NotAHomomorphism,
    build_inner_invariant,
    classify_quasisplit,
    quasisplit_cocharacter_data,
)
from .root_datum import (
    build_root_datum,
    dual,
    fundamental_group,
    outer_automorphisms,
)


class MalformedInput(Exception):
    pass


# --- serialization helpers ------------------------------------------------

def ser_rational(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s):
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"bad rational {s!r}") from exc


def ser_field_element(x):
    return [ser_rational(c) for c in x.coords]


GROUP_ORDER_CAP = 720


def parse_group(spec):
    """'C<n>' cyclic, 'S<n>' symmetric, products joined by 'x'.  The order,
    read from the spec before any table is built, may not exceed
    GROUP_ORDER_CAP."""
    factors = []
    for part in str(spec).split("x"):
        part = part.strip()
        if len(part) < 2 or part[0] not in "CS":
            raise MalformedInput(f"bad group spec {part!r}")
        try:
            n = int(part[1:])
        except ValueError:
            raise MalformedInput(f"bad group spec {part!r}") from None
        if n < 1:
            raise ValueError(f"group spec {part!r} needs n >= 1")
        factors.append((part[0], n))
    # n! for S_n, with 7! standing in for any n >= 7, already over the cap
    order = prod(n if kind == "C" else prod(range(2, min(n, 7) + 1)) for kind, n in factors)
    if order > GROUP_ORDER_CAP:
        raise ValueError(f"group {spec} has order above the cap of {GROUP_ORDER_CAP}")
    groups = [cyclic(n) if kind == "C" else symmetric(n) for kind, n in factors]
    g = groups[0]
    for h in groups[1:]:
        g = direct_product(g, h)
    return g


def parse_field(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise MalformedInput("field descriptor must be an object with 'kind'")
    kind = doc["kind"]
    if kind == "rationals":
        return RATIONALS
    if kind == "quadratic":
        if "d" not in doc:
            raise MalformedInput("quadratic field needs 'd'")
        return quadratic_field(_field_int(doc, "d"))
    if kind == "cyclotomic":
        if "n" not in doc:
            raise MalformedInput("cyclotomic field needs 'n'")
        return cyclotomic_field(_field_int(doc, "n"))
    raise MalformedInput(f"unknown field kind {kind!r}")


def _is_int(x):
    """A JSON integer: bools are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _field_int(doc, key):
    value = doc[key]
    if not _is_int(value):
        raise MalformedInput(f"field.{key} must be an integer, got {value!r}")
    return value


def ser_field(field):
    if field.kind == "rationals":
        return {"kind": "rationals"}
    if field.kind == "quadratic":
        return {"kind": "quadratic", "d": field.param}
    return {"kind": "cyclotomic", "n": field.param}


def parse_field_element(field, doc):
    if isinstance(doc, (int, str)):
        return field.from_rational(parse_rational(doc))
    if isinstance(doc, list):
        if len(doc) != field.degree:
            raise MalformedInput(
                f"field element needs {field.degree} coordinates, got {len(doc)}"
            )
        return field.element([parse_rational(c) for c in doc])
    raise MalformedInput(f"bad field element {doc!r}")


def parse_cocycle(action, doc):
    if doc in (None, "trivial"):
        return trivial_kx_cocycle(action)
    n = action.group.order
    if isinstance(doc, dict) and "c" in doc:
        return quadratic_cocycle(action, parse_rational(doc["c"]))
    if not isinstance(doc, list):
        raise MalformedInput("cocycle must be 'trivial', {'c': ...}, or a table")
    values = {}
    for entry in doc:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise MalformedInput("cocycle table entries are [a, b, value]")
        a, b, val = entry
        if not (_is_int(a) and _is_int(b) and 0 <= a < n and 0 <= b < n):
            raise MalformedInput(f"bad group element pair ({a}, {b})")
        values[(a, b)] = parse_field_element(action.field, val)
    missing = [(a, b) for a in range(n) for b in range(n) if (a, b) not in values]
    if missing:
        raise MalformedInput(f"cocycle table is missing pair {missing[0]}")
    return KxCocycle(action, values)


def ser_cocycle(cocycle):
    return [
        [a, b, ser_field_element(cocycle.values[(a, b)])]
        for (a, b) in sorted(cocycle.values)
    ]


def load_job(args):
    if args.job == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.job) as fh:
                text = fh.read()
        except OSError as exc:
            raise MalformedInput(f"cannot read job file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedInput("job document must be a JSON object")
    return doc


def emit(doc):
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# --- commands -------------------------------------------------------------

def _datum_doc(brd):
    return {
        "schema": "galforms/root-datum/v1",
        "rank": brd.datum.rank,
        "roots": [list(r) for r in brd.datum.roots],
        "coroots": [list(r) for r in brd.datum.coroots],
        "simple_indices": list(brd.simple_indices),
    }


def cmd_dual(args):
    brd = build_root_datum(args.type, args.isogeny)
    emit(_datum_doc(dual(brd)))


def cmd_pi1(args):
    brd = build_root_datum(args.type, args.isogeny)
    group = fundamental_group(brd)
    emit(
        {
            "schema": "galforms/abelian-group/v1",
            "invariant_factors": list(group.invariant_factors),
            "free_rank": group.free_rank,
        }
    )


def cmd_outer(args):
    brd = build_root_datum(args.type, args.isogeny)
    group, elements = outer_automorphisms(brd)
    emit(
        {
            "schema": "galforms/outer/v1",
            "order": group.order,
            "simple_permutations": [list(e.simple_permutation) for e in elements],
        }
    )


def cmd_classify_quasisplit(args):
    gamma = parse_group(args.gamma)
    if args.out:
        out = parse_group(args.out)
    else:
        if not args.type:
            raise MalformedInput("need --out or --type/--isogeny")
        brd = build_root_datum(args.type, args.isogeny)
        out, _ = outer_automorphisms(brd)
    forms = classify_quasisplit(gamma, out)
    emit(
        {
            "schema": "galforms/quasisplit/v1",
            "count": len(forms),
            "classes": [
                {"class_id": f.class_id, "rho": list(f.rho)} for f in forms
            ],
        }
    )


def cmd_coinvariants(args):
    brd = build_root_datum(args.type, args.isogeny)
    try:
        rho = tuple(int(x) for x in args.rho.split(","))
    except ValueError:
        raise MalformedInput(f"bad rho {args.rho!r}") from None
    if args.height < 0:
        raise MalformedInput(f"height must be non-negative, got {args.height}")
    try:
        data = quasisplit_cocharacter_data(
            brd, QuasiSplitForm(rho, 0), height=args.height
        )
    except _NotAHomomorphism as exc:
        raise MalformedInput(f"bad rho {args.rho!r}: {exc}") from None
    emit(
        {
            "schema": "galforms/coinvariants/v1",
            "coinvariants": {
                "invariant_factors": list(data.coinvariants.invariant_factors),
                "free_rank": data.coinvariants.free_rank,
            },
            "fixed_rank": data.fixed_rank,
            "moved_rank": data.moved_rank,
            "orbits": [[list(w) for w in orbit] for orbit in data.orbits],
        }
    )


def _index_list(value, name, bound):
    """value as a tuple of element indices of a group of order bound."""
    if not (isinstance(value, list) and all(_is_int(x) and 0 <= x < bound for x in value)):
        raise MalformedInput(f"{name} must be a list of integers in [0, {bound})")
    return tuple(value)


def _parse_ggroup(doc):
    gamma = parse_group(doc.get("gamma", "C2"))
    coeff = parse_group(doc.get("coefficients", "C2"))
    action_doc = doc.get("action")
    if action_doc in (None, "trivial"):
        return GGroup.trivial_action(gamma, coeff)
    if not (isinstance(action_doc, list) and len(action_doc) == gamma.order):
        raise MalformedInput("action must be one permutation per gamma element")
    perms = []
    for perm in action_doc:
        ints = isinstance(perm, list) and all(map(_is_int, perm))
        if not ints or sorted(perm) != list(range(coeff.order)):
            raise MalformedInput(f"bad permutation {perm!r}")
        perms.append(tuple(perm))
    return GGroup(gamma, coeff, tuple(perms))


def cmd_h1(args):
    doc = load_job(args)
    ggroup = _parse_ggroup(doc)
    classes = h1_nonabelian(ggroup)
    emit(
        {
            "schema": "galforms/h1/v1",
            "count": len(classes),
            "representatives": [list(rep) for rep in classes],
        }
    )


def _parse_gmodule(doc):
    gamma = parse_group(doc.get("gamma", "C2"))
    moduli = doc.get("moduli")
    if not (isinstance(moduli, list) and moduli and all(_is_int(m) and m >= 1 for m in moduli)):
        raise MalformedInput("moduli must be a nonempty list of positive integers")
    action_doc = doc.get("action")
    if action_doc in (None, "trivial"):
        return GModule.trivial(gamma, tuple(moduli))
    if not (isinstance(action_doc, list) and len(action_doc) == gamma.order):
        raise MalformedInput("action must be one integer matrix per gamma element")
    mats = []
    for m in action_doc:
        if not (isinstance(m, list) and all(isinstance(row, list) and all(map(_is_int, row)) for row in m)):
            raise MalformedInput(f"action matrices must be lists of rows of integers, got {m!r}")
        try:
            mats.append(IntMatrix(m))
        except ValueError as exc:
            raise MalformedInput(f"bad action matrix: {exc}") from exc
    return GModule(gamma, tuple(moduli), tuple(mats))


def cmd_h2(args):
    doc = load_job(args)
    module = _parse_gmodule(doc)
    group, reps = h2_bar(module)
    emit(
        {
            "schema": "galforms/h2/v1",
            "invariant_factors": list(group.invariant_factors),
            "free_rank": group.free_rank,
            "representatives": [
                [[a, b, list(val)] for (a, b), val in sorted(rep.items())]
                for rep in reps
            ],
        }
    )


def cmd_boundary(args):
    doc = load_job(args)
    gamma = parse_group(doc.get("gamma", "C2"))
    for key in ("z", "b", "c", "inclusion", "projection", "cocycle"):
        if key not in doc:
            raise MalformedInput(f"boundary job needs {key!r}")
    z = GGroup.trivial_action(gamma, parse_group(doc["z"]))
    b = GGroup.trivial_action(gamma, parse_group(doc["b"]))
    c = GGroup.trivial_action(gamma, parse_group(doc["c"]))
    ext = CentralExtension(
        z=z,
        b=b,
        c=c,
        inclusion=_index_list(doc["inclusion"], "inclusion", b.coeff.order),
        projection=_index_list(doc["projection"], "projection", c.coeff.order),
    )
    cocycle = _index_list(doc["cocycle"], "cocycle", c.coeff.order)
    if len(cocycle) != gamma.order:
        raise MalformedInput("cocycle must list one value per gamma element")
    table = boundary_map(ext, cocycle)
    emit(
        {
            "schema": "galforms/boundary/v1",
            "table": [[a, b_, val] for (a, b_), val in sorted(table.items())],
        }
    )


def cmd_hilbert(args):
    a = parse_rational(args.a)
    b = parse_rational(args.b)
    place = args.place
    if place != INFINITE_PLACE:
        try:
            place = int(place)
        except ValueError:
            raise MalformedInput(f"bad place {args.place!r}") from None
    emit({"schema": "galforms/hilbert/v1", "symbol": hilbert_symbol(a, b, place)})


def cmd_brauer_class(args):
    d = parse_rational(args.d)
    c = parse_rational(args.c)
    cls = brauer_class_quaternion(d, c)
    emit(
        {
            "schema": "galforms/brauer-class/v1",
            "ramified": cls.sorted_places(),
            "trivial": cls.is_trivial(),
        }
    )


def _algebra_from_args(args):
    if args.job:
        doc = load_job(args)
        field = parse_field(doc.get("field", {}))
        if field.degree == 1:
            raise MalformedInput("crossed products need a nontrivial extension")
        action = GaloisAction.of(field)
        cocycle = parse_cocycle(action, doc.get("cocycle"))
    else:
        if args.d is None or args.c is None:
            raise MalformedInput("need -d and -c, or --job")
        field = quadratic_field(int(args.d))
        action = GaloisAction.of(field)
        cocycle = quadratic_cocycle(action, parse_rational(args.c))
    return CrossedProductAlgebra(action, cocycle)


def cmd_crossed_product(args):
    algebra = _algebra_from_args(args)
    doc = {
        "schema": "galforms/crossed-product/v1",
        "field": ser_field(algebra.field),
        "cocycle": ser_cocycle(algebra.cocycle),
        "dimension": algebra.dim,
        "center_dimension": len(algebra.center_basis()),
        "central_simple": algebra.is_central_simple(),
    }
    if algebra.is_quaternion():
        split = algebra.is_split_quaternion()
        doc["split"] = split
        if split:
            witness = find_zero_divisor(algebra, 6)
            if witness is not None:
                doc["zero_divisor"] = [
                    [ser_field_element(c) for c in witness[0].kcoeffs],
                    [ser_field_element(c) for c in witness[1].kcoeffs],
                ]
    else:
        doc["split"] = None
    emit(doc)


def cmd_descend(args):
    doc = load_job(args)
    field = parse_field(doc.get("field", {}))
    if field.degree == 1:
        raise MalformedInput("descent needs a nontrivial extension")
    action = GaloisAction.of(field)
    cocycle = parse_cocycle(action, doc.get("cocycle"))
    mats_doc = doc.get("matrices")
    if not (isinstance(mats_doc, list) and len(mats_doc) == action.group.order):
        raise MalformedInput("need one matrix per Galois group element")
    matrices = []
    for m in mats_doc:
        if not (isinstance(m, list) and all(isinstance(row, list) for row in m)):
            raise MalformedInput("matrices must be lists of rows")
        matrices.append(
            kmat(field, [[parse_field_element(field, x) for x in row] for row in m])
        )
    dim = len(matrices[0])
    datum = SemilinearDatum(action, cocycle, dim, tuple(matrices))
    ok, why = validate_datum(datum)
    out = {
        "schema": "galforms/descend/v1",
        "valid": ok,
        "violation": why,
    }
    if ok:
        out["module_dimension"] = to_module(datum).dim
        one = field.one()
        if all(v == one for v in cocycle.values.values()):
            basis = fixed_space(datum)
            out["fixed_space"] = [[ser_rational(x) for x in vec] for vec in basis]
            out["fixed_dimension"] = len(basis)
    emit(out)


def cmd_inner_invariant(args):
    brd = build_root_datum(args.type, args.isogeny)
    assignments = [parse_rational(x) for x in args.assign.split(",")] if args.assign else []
    invariant = build_inner_invariant(brd, args.d, assignments)
    components = []
    for element in invariant.elements():
        cls = invariant.mu[element]
        components.append(
            {
                "element": list(element),
                "ramified": cls.sorted_places(),
                "trivial": cls.is_trivial(),
                "presenting_c": ser_rational(invariant.parameters[element]),
                "split_algebra": invariant.algebras[element].is_split_quaternion(),
            }
        )
    emit(
        {
            "schema": "galforms/inner-invariant/v1",
            "pi1": {
                "invariant_factors": list(invariant.pi1.invariant_factors),
                "free_rank": invariant.pi1.free_rank,
            },
            "field": {"kind": "quadratic", "d": invariant.field_param},
            "components": components,
        }
    )


# --- dispatch -------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors become malformed-input documents, not usage on stderr."""

    def error(self, message):
        raise MalformedInput(message)


ISOGENIES = ["simply_connected", "sc", "adjoint"]


def _add_datum_flags(p):
    p.add_argument("--type", required=True, help="Cartan label, e.g. A2, D4, T1")
    p.add_argument("--isogeny", default="simply_connected", choices=ISOGENIES, help="isogeny type")


def build_parser():
    parser = _Parser(
        prog="galforms",
        description="Exact classification of forms of reductive groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="Langlands dual of a based root datum")
    _add_datum_flags(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("pi1", help="fundamental group of a root datum")
    _add_datum_flags(p)
    p.set_defaults(func=cmd_pi1)

    p = sub.add_parser("outer", help="outer automorphism group")
    _add_datum_flags(p)
    p.set_defaults(func=cmd_outer)

    p = sub.add_parser("classify-quasisplit", help="Hom(Gamma, Out)/conjugation")
    p.add_argument("--gamma", required=True, help="group spec, e.g. C2, S3, C2xC2")
    p.add_argument("--out", help="target group spec (alternative to --type)")
    p.add_argument("--type", help="Cartan label whose Out(G) is the target")
    p.add_argument("--isogeny", default="simply_connected", choices=ISOGENIES)
    p.set_defaults(func=cmd_classify_quasisplit)

    p = sub.add_parser("coinvariants", help="cocharacter coinvariants of a quasi-split twist")
    _add_datum_flags(p)
    p.add_argument("--rho", required=True, help="comma-separated Out-element indices, one per Gamma element")
    p.add_argument("--height", type=int, default=4)
    p.set_defaults(func=cmd_coinvariants)

    for name, func, help_text in [
        ("h1", cmd_h1, "nonabelian H^1 of a Gamma-group (job document)"),
        ("h2", cmd_h2, "H^2 of a Gamma-module via the bar resolution (job document)"),
        ("boundary", cmd_boundary, "connecting map H^1(C) -> H^2(Z) of a central extension (job document)"),
        ("descend", cmd_descend, "validate a semilinear descent datum (job document)"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--job", required=True, help="JSON job file, or - for stdin")
        p.set_defaults(func=func)

    p = sub.add_parser("hilbert", help="quadratic Hilbert symbol at a place")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.add_argument("-p", "--place", required=True, help="prime or 'inf'")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("brauer-class", help="ramified places of a quaternion class (d, c)")
    p.add_argument("-d", required=True)
    p.add_argument("-c", required=True)
    p.set_defaults(func=cmd_brauer_class)

    p = sub.add_parser("crossed-product", help="crossed product of a Galois extension and a 2-cocycle")
    p.add_argument("-d", type=int, help="quadratic field parameter")
    p.add_argument("-c", help="cocycle value zeta(sigma, sigma)")
    p.add_argument("--job", help="JSON job file for non-quadratic input")
    p.set_defaults(func=cmd_crossed_product)

    p = sub.add_parser("inner-invariant", help="pi_1 -> Br homomorphism with algebra family")
    _add_datum_flags(p)
    p.add_argument("-d", type=int, required=True, help="quadratic field parameter")
    p.add_argument("--assign", help="comma-separated c per invariant-factor generator")
    p.set_defaults(func=cmd_inner_invariant)

    return parser


def _normalize_isogeny(args):
    if getattr(args, "isogeny", None) == "sc":
        args.isogeny = "simply_connected"


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
        _normalize_isogeny(args)
        args.func(args)
    except MalformedInput as exc:
        emit({"schema": "galforms/error/v1", "error": str(exc), "kind": "malformed-input"})
        return 2
    except (ValueError, ZeroDivisionError, NotImplementedError) as exc:
        emit({"schema": "galforms/error/v1", "error": str(exc), "kind": "domain-error"})
        return 1
    return 0


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull so that the
        # flush at interpreter exit cannot raise again, and exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
