"""Command-line interface.

JSON in, JSON out: every result document carries a versioned "schema"
field; rationals are serialized as "p/q" strings, field elements as
coordinate arrays over the power basis, group elements as indices into
the element order fixed by the library.  Exit codes: 0 success, 1 domain
error (machine-readable error object on stdout), 2 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
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
from .descent import fixed_space, make_datum, validate_datum
from .exact_linalg import IntMatrix
from .fields import (
    INFINITE_PLACE,
    brauer_class_quaternion,
    cyclotomic_field,
    euler_phi,
    hilbert_symbol,
    quadratic_field,
)
from .groups import cyclic, direct_product, symmetric
from .classify import (
    QuasiSplitForm, _NotAHomomorphism, build_inner_invariant, classify_quasisplit,
    quasisplit_cocharacter_data,
)
from .root_datum import TYPE_LABEL, build_root_datum, dual, fundamental_group, outer_automorphisms
from . import qlinalg

# No command calls qlinalg; importing cli loads it for the benchmark's tracer.
TRACED_WITHOUT_CALLERS = (qlinalg,)


class MalformedInput(Exception):
    pass


# --- readers: one per input type, in the syntax of schemas/ ---------------

# A plain decimal integer; int() would also take '+1', ' 1', '1_0' and
# non-ASCII digits.  A rational is one, or p/q with an unsigned q;
# Fraction() would also take ' 1', '1.5' and '1e3'.
DECIMAL = re.compile(r"-?[0-9]+")
RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
GROUP_SPEC = re.compile(r"[CS][0-9]+( *x *[CS][0-9]+)*")
GROUP_FACTOR = re.compile(r"([CS])([0-9]+)")


def argv_int(text):
    """argparse type of the integer flags: a plain decimal."""
    if not DECIMAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def type_label(text):
    """argparse type of --type: a label in the syntax TYPE_LABEL states."""
    if not TYPE_LABEL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"bad type label {text!r}")
    return text


def json_int(value, error, low=None):
    """value if it is a JSON integer (a bool is not one) of at least low,
    else malformed input with the message error."""
    if type(value) is not int or (low is not None and value < low):
        raise MalformedInput(error)
    return value


def json_list(value, error, length=None):
    """value if it is a JSON list, of the given length if one is given."""
    if type(value) is not list or (length is not None and len(value) != length):
        raise MalformedInput(error)
    return value


def json_ints(value, error, low=None):
    """value, a JSON list of JSON integers of at least low, as a tuple."""
    return tuple(json_int(x, error, low) for x in json_list(value, error))


def parse_rational(s):
    """A JSON integer, or a string p or p/q as RATIONAL states."""
    if type(s) is int:
        return Fraction(s)
    if type(s) is not str or not RATIONAL.fullmatch(s):
        raise MalformedInput(f"bad rational {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise MalformedInput(f"bad rational {s!r}") from None


def read_group(spec):
    """spec, if it is a string in the syntax GROUP_SPEC states."""
    text = str(spec)  # the str() of a non-string never matches
    if not GROUP_SPEC.fullmatch(text):
        parts = [part.strip() for part in text.split("x")]
        bad = next((part for part in parts if not GROUP_FACTOR.fullmatch(part)), text)
        raise MalformedInput(f"bad group spec {bad!r}")
    return text


def group_order(spec):
    """The order of a spec read_group has read, with 7! standing in for
    the order n! of any S_n with n >= 7, already over the cap."""
    return prod(int(n) if kind == "C" else prod(range(2, min(int(n), 7) + 1))
                for kind, n in GROUP_FACTOR.findall(spec))


def read_field(doc):
    """(kind, d or n) of a field descriptor, (kind, None) for Q."""
    if type(doc) is not dict or "kind" not in doc:
        raise MalformedInput("field descriptor must be an object with 'kind'")
    kind = doc["kind"]
    if kind not in ("rationals", "quadratic", "cyclotomic"):
        raise MalformedInput(f"unknown field kind {kind!r}")
    for key in ("d", "n"):
        if key in doc:
            json_int(doc[key], f"field.{key} must be an integer, got {doc[key]!r}")
    if kind == "rationals":
        return kind, None
    key = "d" if kind == "quadratic" else "n"
    if key not in doc:
        raise MalformedInput(f"{kind} field needs {key!r}")
    return kind, doc[key]


def read_field_element(doc):
    """A rational, or the list of coordinates over the power basis."""
    if isinstance(doc, (int, str)):
        return parse_rational(doc)
    if isinstance(doc, list):
        return [parse_rational(c) for c in doc]
    raise MalformedInput(f"bad field element {doc!r}")


def read_cocycle(doc):
    """None for the trivial cocycle, c for {"c": c}, or the table as a
    dict {(a, b): field element as read_field_element reads it}."""
    if doc in (None, "trivial"):
        return None
    if type(doc) is dict and "c" in doc:
        return parse_rational(doc["c"])
    table = {}
    for entry in json_list(doc, "cocycle must be 'trivial', {'c': ...}, or a table"):
        a, b, val = json_list(entry, "cocycle table entries are [a, b, value]", 3)
        pair = f"bad group element pair ({a}, {b})"
        key = (json_int(a, pair, 0), json_int(b, pair, 0))
        if key in table:
            raise MalformedInput(f"cocycle table repeats pair {key}")
        table[key] = read_field_element(val)
    return table


# --- builders: the library objects of what the readers read ---------------

GROUP_ORDER_CAP = 720
CYCLOTOMIC_DEGREE_CAP = 12


def parse_group(spec):
    """The group of a spec read_group has read: 'C<n>' cyclic, 'S<n>'
    symmetric, products joined by 'x'.  The order, read from the spec
    before any table is built, may not exceed GROUP_ORDER_CAP."""
    factors = []
    for kind, digits in GROUP_FACTOR.findall(spec):
        n = int(digits)
        if n < 1:
            raise ValueError(f"group spec {kind + digits!r} needs n >= 1")
        factors.append((kind, n))
    if group_order(spec) > GROUP_ORDER_CAP:
        raise ValueError(f"group {spec} has order above the cap of {GROUP_ORDER_CAP}")
    groups = [cyclic(n) if kind == "C" else symmetric(n) for kind, n in factors]
    g = groups[0]
    for h in groups[1:]:
        g = direct_product(g, h)
    return g


def parse_field(descriptor):
    """The field of a quadratic or cyclotomic (kind, d or n) pair that
    read_field has read.
    [Q(zeta_n):Q] = phi(n) >= sqrt(n/2) may not exceed
    CYCLOTOMIC_DEGREE_CAP; n is read against that bound before phi(n)
    factors it."""
    kind, param = descriptor
    if kind == "quadratic":
        return quadratic_field(param)
    if param > 0 and (param > 2 * CYCLOTOMIC_DEGREE_CAP**2 or euler_phi(param) > CYCLOTOMIC_DEGREE_CAP):
        raise ValueError(f"Q(zeta_{param}) has degree above the cap of {CYCLOTOMIC_DEGREE_CAP}")
    return cyclotomic_field(param)


def ser_field(field):
    if field.kind == "quadratic":
        return {"kind": "quadratic", "d": field.param}
    return {"kind": "cyclotomic", "n": field.param}


def parse_field_element(field, x):
    """The element read_field_element has read."""
    if not isinstance(x, list):
        return field.from_rational(x)
    if len(x) != field.degree:
        raise MalformedInput(f"field element needs {field.degree} coordinates, got {len(x)}")
    return field.element(x)


def parse_cocycle(action, zeta):
    """The cocycle read_cocycle has read."""
    if zeta is None:
        return trivial_kx_cocycle(action)
    if not isinstance(zeta, dict):
        return quadratic_cocycle(action, zeta)
    n = action.group.order
    for a, b in zeta:
        if a >= n or b >= n:
            raise MalformedInput(f"bad group element pair ({a}, {b})")
    values = {key: parse_field_element(action.field, val) for key, val in zeta.items()}
    missing = [(a, b) for a in range(n) for b in range(n) if (a, b) not in values]
    if missing:
        raise MalformedInput(f"cocycle table is missing pair {missing[0]}")
    return KxCocycle(action, values)


def ser_field_element(x):
    return [ser_rational(c) for c in x.coords]


def ser_rational(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def ser_cocycle(cocycle):
    return [[a, b, ser_field_element(cocycle.values[(a, b)])] for (a, b) in sorted(cocycle.values)]


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


# json.dump with an indent walks every value through nested generators in
# pure Python (its C encoder serves indent=None only) and writes each chunk
# on its own.  _dumps builds a container with one join of its items; emit
# writes the document a value at a time and a list value in runs of _RUN
# items, so an answer of tens of megabytes is never held twice.  A run of
# int arrays goes through the C encoder in one line, which _int_run indents.
_NEWLINE = tuple("\n" + "  " * depth for depth in range(16))
_SEPARATOR = tuple("," + newline for newline in _NEWLINE)
_RUN = 512
_encode_str = json.encoder.encode_basestring_ascii
_encode_line = json.JSONEncoder(check_circular=False).encode
_INT_LINE = re.compile(r"[\[\]0-9, -]*")


def _str_keys(o):
    return all(isinstance(key, str) for key in o)


def _dumps(o, depth):
    """o as json.dumps(o, indent=2, sort_keys=True) encodes it at nesting
    depth, with json's type dispatch.  Floats, dicts with a key that is
    not a str, and containers nested as deep as _NEWLINE reaches are left
    to json."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    deeper = depth + 1 < len(_NEWLINE)
    if deeper and isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = [int.__repr__(x) if type(x) is int else _dumps(x, depth + 1) for x in o]
        return "[" + _NEWLINE[depth + 1] + _SEPARATOR[depth + 1].join(items) + _NEWLINE[depth] + "]"
    if deeper and isinstance(o, dict) and _str_keys(o):
        if not o:
            return "{}"
        items = [_encode_str(key) + ": " + _dumps(value, depth + 1) for key, value in sorted(o.items())]
        return "{" + _NEWLINE[depth + 1] + _SEPARATOR[depth + 1].join(items) + _NEWLINE[depth] + "}"
    return json.dumps(o, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _leaf_depth(o, end):
    """How many lists deep the walk o[end][end]... meets an int, or None."""
    k = 0
    while isinstance(o, (list, tuple)) and o:
        o, k = o[end], k + 1
    return k if type(o) is int else None


@functools.cache
def _int_indent(m):
    """(head, tail, steps): the first item's openings, the last one's closings
    and the separators, longest first, of items with int leaves m lists deep."""
    opens = ["[" + _NEWLINE[3 + i] for i in range(m)]
    closes = [_NEWLINE[1 + m - i] + "]" for i in range(m)]
    steps = [("]" * j + ", " + "[" * j, "".join(closes[:j]) + _SEPARATOR[2 + m - j] + "".join(opens[m - j:]))
             for j in range(m, -1, -1)]
    return "".join(opens), "".join(closes), steps


def _int_run(run):
    """_SEPARATOR[2].join(_dumps(x, 2) for x in run) when every leaf of
    run is an int, all as deep, and no list in it is empty; else None."""
    m = _leaf_depth(run[0], 0)
    if m is None or m != _leaf_depth(run[-1], -1) or m + 3 > len(_NEWLINE):
        return None
    head, tail, steps = _int_indent(m)
    line = _encode_line(run)
    # the leaves are all as deep when the longest step that matches each
    # separator takes all the '[' after it: all but the first m + 1
    if ("[]" in line or not _INT_LINE.fullmatch(line)
            or sum(line.count(old) for old, _ in steps[:-1]) != line.count("[") - m - 1):
        return None
    text = line[m + 1:-m - 1]
    for old, new in steps:
        text = text.replace(old, new)
    return head + text + tail


def emit(doc):
    """Write doc to stdout as json.dump(doc, indent=2, sort_keys=True) and a
    newline would.  sys.stdout is read on every call: callers redirect it."""
    write = sys.stdout.write
    if not (isinstance(doc, dict) and doc and _str_keys(doc)):
        write(_dumps(doc, 0) + "\n")
        return
    for i, (key, value) in enumerate(sorted(doc.items())):
        write(("," if i else "{") + _NEWLINE[1] + _encode_str(key) + ": ")
        if not (isinstance(value, (list, tuple)) and value):
            write(_dumps(value, 1))
            continue
        write("[")
        for start in range(0, len(value), _RUN):
            run = value[start:start + _RUN]
            text = _int_run(run) or _SEPARATOR[2].join([_dumps(x, 2) for x in run])
            write((_SEPARATOR if start else _NEWLINE)[2] + text)
        write(_NEWLINE[1] + "]")
    write("\n}\n")


# --- commands -------------------------------------------------------------

def _abelian_doc(group):
    return {"invariant_factors": group.invariant_factors, "free_rank": group.free_rank}


def _datum_doc(brd):
    return {"schema": "galforms/root-datum/v1", "rank": brd.datum.rank,
            "roots": brd.datum.roots, "coroots": brd.datum.coroots,
            "simple_indices": brd.simple_indices}


def cmd_dual(args):
    brd = build_root_datum(args.type, args.isogeny)
    return _datum_doc(dual(brd))


def cmd_pi1(args):
    brd = build_root_datum(args.type, args.isogeny)
    return {"schema": "galforms/abelian-group/v1", **_abelian_doc(fundamental_group(brd))}


def cmd_outer(args):
    brd = build_root_datum(args.type, args.isogeny)
    group, elements = outer_automorphisms(brd)
    return {"schema": "galforms/outer/v1", "order": group.order,
            "simple_permutations": [e.simple_permutation for e in elements]}


def cmd_classify_quasisplit(args):
    gamma = parse_group(read_group(args.gamma))
    if args.out:
        out = parse_group(read_group(args.out))
    else:
        if not args.type:
            raise MalformedInput("need --out or --type/--isogeny")
        brd = build_root_datum(args.type, args.isogeny)
        out, _ = outer_automorphisms(brd)
    forms = classify_quasisplit(gamma, out)
    return {"schema": "galforms/quasisplit/v1", "count": len(forms),
            "classes": [{"class_id": f.class_id, "rho": f.rho} for f in forms]}


def cmd_coinvariants(args):
    entries = args.rho.split(",")
    if not all(map(DECIMAL.fullmatch, entries)):
        raise MalformedInput(f"bad rho {args.rho!r}")
    rho = tuple(map(int, entries))
    if args.height < 0:
        raise MalformedInput(f"height must be non-negative, got {args.height}")
    brd = build_root_datum(args.type, args.isogeny)
    try:
        data = quasisplit_cocharacter_data(
            brd, QuasiSplitForm(rho, 0), height=args.height
        )
    except _NotAHomomorphism as exc:
        raise MalformedInput(f"bad rho {args.rho!r}: {exc}") from None
    return {"schema": "galforms/coinvariants/v1", "coinvariants": _abelian_doc(data.coinvariants),
            "fixed_rank": data.fixed_rank, "moved_rank": data.moved_rank,
            "orbits": data.orbits}


def _parse_ggroup(doc):
    gamma, coeff = read_group(doc.get("gamma", "C2")), read_group(doc.get("coefficients", "C2"))
    action, length = doc.get("action"), "action must be one permutation per gamma element"
    if action in (None, "trivial"):
        return GGroup.trivial_action(parse_group(gamma), parse_group(coeff))
    perms = [json_ints(perm, f"bad permutation {perm!r}") for perm in json_list(action, length)]
    gamma, coeff = parse_group(gamma), parse_group(coeff)
    for perm in json_list(perms, length, gamma.order):
        if sorted(perm) != list(range(coeff.order)):
            raise MalformedInput(f"bad permutation {list(perm)!r}")
    return GGroup(gamma, coeff, tuple(perms))


def cmd_h1(args):
    doc = load_job(args)
    ggroup = _parse_ggroup(doc)
    classes = h1_nonabelian(ggroup)
    return {"schema": "galforms/h1/v1", "count": len(classes),
            "representatives": classes}


def _parse_gmodule(doc):
    gamma = read_group(doc.get("gamma", "C2"))
    bad = "moduli must be a nonempty list of positive integers"
    moduli = json_ints(doc.get("moduli"), bad, low=1)
    if not moduli:
        raise MalformedInput(bad)
    action, length = doc.get("action"), "action must be one integer matrix per gamma element"
    if action in (None, "trivial"):
        return GModule.trivial(parse_group(gamma), moduli)
    rows = []
    for m in json_list(action, length):
        bad = f"action matrices must be lists of rows of integers, got {m!r}"
        rows.append([json_ints(row, bad) for row in json_list(m, bad)])
    gamma = parse_group(gamma)
    mats = []
    for m in json_list(rows, length, gamma.order):
        try:
            mats.append(IntMatrix(m))
        except ValueError as exc:
            raise MalformedInput(f"bad action matrix: {exc}") from exc
    return GModule(gamma, moduli, tuple(mats))


def cmd_h2(args):
    doc = load_job(args)
    module = _parse_gmodule(doc)
    group, reps = h2_bar(module)
    return {"schema": "galforms/h2/v1", **_abelian_doc(group),
            "representatives": [[[a, b, val] for (a, b), val in sorted(rep.items())]
                                for rep in reps]}


def cmd_boundary(args):
    doc = load_job(args)
    for key in ("z", "b", "c", "inclusion", "projection", "cocycle"):
        if key not in doc:
            raise MalformedInput(f"boundary job needs {key!r}")
    gamma, z, b, c = (read_group(doc.get(key, "C2")) for key in ("gamma", "z", "b", "c"))
    # indices into B and C, read before any group is built, with the
    # bounds read from the specs
    bounds = {"inclusion": group_order(b), "projection": group_order(c), "cocycle": group_order(c)}
    errors = {key: f"{key} must be a list of integers in [0, {bound})" for key, bound in bounds.items()}
    maps = {key: json_ints(doc[key], errors[key], low=0) for key in bounds}
    gamma, z, b, c = map(parse_group, (gamma, z, b, c))
    for key, bound in bounds.items():
        if any(x >= bound for x in maps[key]):
            raise MalformedInput(errors[key])
    z, b, c = (GGroup.trivial_action(gamma, group) for group in (z, b, c))
    ext = CentralExtension(z=z, b=b, c=c, inclusion=maps["inclusion"], projection=maps["projection"])
    if len(maps["cocycle"]) != gamma.order:
        raise MalformedInput("cocycle must list one value per gamma element")
    table = boundary_map(ext, maps["cocycle"])
    return {"schema": "galforms/boundary/v1",
            "table": [[a, b_, val] for (a, b_), val in sorted(table.items())]}


def cmd_hilbert(args):
    a = parse_rational(args.a)
    b = parse_rational(args.b)
    place = args.place
    if place != INFINITE_PLACE:
        if not DECIMAL.fullmatch(place):
            raise MalformedInput(f"bad place {place!r}")
        place = int(place)
    return {"schema": "galforms/hilbert/v1", "symbol": hilbert_symbol(a, b, place)}


def cmd_brauer_class(args):
    d = parse_rational(args.d)
    c = parse_rational(args.c)
    cls = brauer_class_quaternion(d, c)
    return {"schema": "galforms/brauer-class/v1", "ramified": cls.sorted_places(),
            "trivial": cls.is_trivial()}


def _algebra_from_args(args):
    if args.job:
        doc = load_job(args)
        descriptor, zeta = read_field(doc.get("field", {})), read_cocycle(doc.get("cocycle"))
        if descriptor[0] == "rationals":
            raise MalformedInput("crossed products need a nontrivial extension")
        field = parse_field(descriptor)
        action = GaloisAction.of(field)
        cocycle = parse_cocycle(action, zeta)
    else:
        if args.d is None or args.c is None:
            raise MalformedInput("need -d and -c, or --job")
        c = parse_rational(args.c)
        action = GaloisAction.of(quadratic_field(args.d))
        cocycle = quadratic_cocycle(action, c)
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
    return doc


def cmd_descend(args):
    doc = load_job(args)
    descriptor, zeta = read_field(doc.get("field", {})), read_cocycle(doc.get("cocycle"))
    bad, count = "matrices must be lists of rows", "need one matrix per Galois group element"
    rows = [[[read_field_element(x) for x in json_list(row, bad)] for row in json_list(m, bad)]
            for m in json_list(doc.get("matrices"), count)]
    if descriptor[0] == "rationals":
        raise MalformedInput("descent needs a nontrivial extension")
    field = parse_field(descriptor)
    action = GaloisAction.of(field)
    cocycle = parse_cocycle(action, zeta)
    matrices = [[[parse_field_element(field, x) for x in row] for row in m]
                for m in json_list(rows, count, action.group.order)]
    datum = make_datum(action, cocycle, matrices)
    ok, why = validate_datum(datum)
    out = {"schema": "galforms/descend/v1", "valid": ok, "violation": why}
    if ok:
        # a valid datum on V != 0 makes zeta a 2-cocycle (compose a_V, b_V
        # and c_V both ways; (abc)_V is bijective); on V = 0 the crossed
        # product checks zeta
        if not datum.dim:
            CrossedProductAlgebra(action, cocycle)
        out["module_dimension"] = datum.dim * field.degree
        if cocycle == trivial_kx_cocycle(action):
            basis = fixed_space(datum)
            out["fixed_space"] = [[ser_rational(x) for x in vec] for vec in basis]
            out["fixed_dimension"] = len(basis)
    return out


def cmd_inner_invariant(args):
    brd = build_root_datum(args.type, args.isogeny)
    assignments = [parse_rational(x) for x in args.assign.split(",")] if args.assign else []
    invariant = build_inner_invariant(brd, args.d, assignments)
    components = []
    for element in invariant.elements():
        cls = invariant.mu[element]
        components.append({"element": element, "ramified": cls.sorted_places(),
                           "trivial": cls.is_trivial(), "split_algebra": cls.is_trivial(),
                           "presenting_c": ser_rational(invariant.parameters[element])})
    return {"schema": "galforms/inner-invariant/v1", "pi1": _abelian_doc(invariant.pi1),
            "field": {"kind": "quadratic", "d": invariant.field_param}, "components": components}


# --- dispatch -------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors become malformed-input documents, not usage on stderr."""

    def error(self, message):
        raise MalformedInput(message)


def isogeny(text):
    """argparse type of --isogeny: 'sc' is short for simply_connected."""
    return "simply_connected" if text == "sc" else text


# A flag is (option strings, add_argument keywords); these are shared.
ISOGENY = {"default": "simply_connected", "choices": ["simply_connected", "sc", "adjoint"], "type": isogeny}
DATUM = [(("--type",), {"type": type_label, "required": True, "help": "Cartan label, e.g. A2, D4, T1"}),
         (("--isogeny",), {**ISOGENY, "help": "isogeny type"})]
JOB = [(("--job",), {"required": True, "help": "JSON job file, or - for stdin"})]

# One row per command, in the order of --help: (name, handler, help, flags).
COMMANDS = [
    ("dual", cmd_dual, "Langlands dual of a based root datum", DATUM),
    ("pi1", cmd_pi1, "fundamental group of a root datum", DATUM),
    ("outer", cmd_outer, "outer automorphism group", DATUM),
    ("classify-quasisplit", cmd_classify_quasisplit, "Hom(Gamma, Out)/conjugation", [
        (("--gamma",), {"required": True, "help": "group spec, e.g. C2, S3, C2xC2"}),
        (("--out",), {"help": "target group spec (alternative to --type)"}),
        (("--type",), {"type": type_label, "help": "Cartan label whose Out(G) is the target"}),
        (("--isogeny",), ISOGENY)]),
    ("coinvariants", cmd_coinvariants, "cocharacter coinvariants of a quasi-split twist", DATUM + [
        (("--rho",), {"required": True, "help": "comma-separated Out-element indices, one per Gamma element"}),
        (("--height",), {"type": argv_int, "default": 4})]),
    ("h1", cmd_h1, "nonabelian H^1 of a Gamma-group (job document)", JOB),
    ("h2", cmd_h2, "H^2 of a Gamma-module via the bar resolution (job document)", JOB),
    ("boundary", cmd_boundary, "connecting map H^1(C) -> H^2(Z) of a central extension (job document)", JOB),
    ("descend", cmd_descend, "validate a semilinear descent datum (job document)", JOB),
    ("hilbert", cmd_hilbert, "quadratic Hilbert symbol at a place", [
        (("-a",), {"required": True}),
        (("-b",), {"required": True}),
        (("-p", "--place"), {"required": True, "help": "prime or 'inf'"})]),
    ("brauer-class", cmd_brauer_class, "ramified places of a quaternion class (d, c)", [
        (("-d",), {"required": True}),
        (("-c",), {"required": True})]),
    ("crossed-product", cmd_crossed_product, "crossed product of a Galois extension and a 2-cocycle", [
        (("-d",), {"type": argv_int, "help": "quadratic field parameter"}),
        (("-c",), {"help": "cocycle value zeta(sigma, sigma)"}),
        (("--job",), {"help": "JSON job file for non-quadratic input"})]),
    ("inner-invariant", cmd_inner_invariant, "pi_1 -> Br homomorphism with algebra family", DATUM + [
        (("-d",), {"type": argv_int, "required": True, "help": "quadratic field parameter"}),
        (("--assign",), {"help": "comma-separated c per invariant-factor generator"})]),
]


def build_parser():
    parser = _Parser(
        prog="galforms",
        description="Exact classification of forms of reductive groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, flags in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for options, keywords in flags:
            p.add_argument(*options, **keywords)
        p.set_defaults(func=handler)
    return parser


def run(argv=None):
    """Run one command, write its document or the error document, and
    return the exit code."""
    try:
        args = build_parser().parse_args(argv)
        doc, code = args.func(args), 0
    except MalformedInput as exc:
        doc, code = {"schema": "galforms/error/v1", "error": str(exc), "kind": "malformed-input"}, 2
    except (ValueError, ZeroDivisionError, NotImplementedError) as exc:
        doc, code = {"schema": "galforms/error/v1", "error": str(exc), "kind": "domain-error"}, 1
    emit(doc)
    return code


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
