"""Spans around galforms' public functions, recorded from outside.

The library imports with `from .x import y`, so a function object can be
bound in several `galforms.*` namespaces; `Tracer.install` replaces every
binding, and patches methods on their class.  Spans (name, start, end,
parent span, job id) stay in memory until `write`; self time is a span's
duration minus the time its wrapped child spans cover.  The hottest
methods (field multiplication and inversion, crossed-product
multiplication) are counted, not spanned, to keep the cost bounded.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# module -> functions, or (class, method) pairs, wrapped in spans.
SPANS = {
    "cli": ["run", "build_parser", "load_job", "emit"],
    "root_datum": ["build_root_datum", "dual", "outer_automorphisms", "fundamental_group",
                   ("RootDatum", "__post_init__"), ("BasedRootDatum", "_check_positivity")],
    "classify": ["classify_quasisplit", "quasisplit_cocharacter_data", "build_inner_invariant"],
    "groups": ["homomorphisms"],
    "exact_linalg": ["smith_normal_form", "cokernel", "coinvariants", "fixed_sublattice",
                     "kernel_basis"],
    "qlinalg": ["mat_inv", "mat_mul", "kernel", "solve", "rank"],
    "cohomology": ["h2_bar", "h1_nonabelian", "boundary_map", "is_two_cocycle_kx"],
    "fields": ["galois_group", "norm", "hilbert_symbol", "brauer_class_quaternion"],
    "crossed": [("CrossedProductAlgebra", "__init__"), ("CrossedProductAlgebra", "is_central_simple"),
                ("CrossedProductAlgebra", "center_basis"), "find_zero_divisor"],
    "descent": ["validate_datum", "to_module", "fixed_space"],
}

# (module, class, methods) counted under one name.
COUNTED = {
    "fields.FieldElement.mul": ("fields", "FieldElement", ("__mul__", "__rmul__")),
    "fields.FieldElement.inverse": ("fields", "FieldElement", ("inverse",)),
    "crossed.CrossedProductAlgebra.multiply": ("crossed", "CrossedProductAlgebra", ("multiply",)),
}


def _span_name(module, target):
    if isinstance(target, tuple):
        cls, meth = target
        return f"{module}.{cls}.{meth.strip('_')}"
    return f"{module}.{target}"


def _entries(matrix):
    return matrix.rows * matrix.cols


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name, self.span_start, self.span_end = [], [], []
        self.span_parent, self.span_job = [], []
        self.stack = []
        self.job = -1
        self.counts = defaultdict(int)
        self.seen = defaultdict(set)
        self.patches = []

    # --- hooks that read arguments and results ---

    def _stats(self, name, args, kwargs, result):
        if name == "root_datum.build_root_datum":
            key = (args[0], args[1] if len(args) > 1 else kwargs.get("isogeny", "simply_connected"))
            self._repeat(name, key)
        elif name == "fields.galois_group":
            self._repeat(name, (args[0].kind, args[0].param))
        elif name == "groups.homomorphisms":
            self.counts[name + ".candidates"] += args[1].order ** args[0].order
            self.counts[name + ".results"] += len(result)
        elif name == "exact_linalg.smith_normal_form":
            self.counts[name + ".entries"] += _entries(args[0])
        elif name == "crossed.find_zero_divisor":
            self.counts[name + ".found"] += result is not None

    def _repeat(self, name, key):
        if key in self.seen[name]:
            self.counts[name + ".repeats"] += 1
        self.seen[name].add(key)

    # --- wrappers ---

    def _span_wrapper(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack, starts, ends = self.stack, self.span_start, self.span_end
        parents, jobs, names = self.span_parent, self.span_job, self.span_name
        stats = self._stats
        is_emit = name == "cli.emit"

        def wrapper(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(name_id)
            jobs.append(self.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            pos = sys.stdout.tell() if is_emit else 0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx], ends[idx] = t0, t1
            if is_emit:
                self.counts["cli.emit.bytes"] += sys.stdout.tell() - pos
            stats(name, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, new):
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "galforms" or n.startswith("galforms.")]
        for mod_name, targets in SPANS.items():
            mod = sys.modules[f"galforms.{mod_name}"]
            for target in targets:
                name = _span_name(mod_name, target)
                if isinstance(target, tuple):
                    cls = getattr(mod, target[0])
                    self._patch(cls, target[1], self._span_wrapper(name, cls.__dict__[target[1]]))
                    continue
                orig = getattr(mod, target)
                wrapper = self._span_wrapper(name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, wrapper)
        for name, (mod_name, cls_name, methods) in COUNTED.items():
            cls = getattr(sys.modules[f"galforms.{mod_name}"], cls_name)
            for meth in methods:
                self._patch(cls, meth, self._count_wrapper(name, cls.__dict__[meth]))

    def uninstall(self):
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        self.patches.clear()

    # --- results ---

    def per_name(self):
        """{span name: (calls, self seconds)}."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = defaultdict(lambda: [0, 0.0])
        for i in range(n):
            entry = out[self.names[self.span_name[i]]]
            entry[0] += 1
            entry[1] += self.span_end[i] - self.span_start[i] - child[i]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("span\tname\tstart\tend\tparent\tjob\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_job[i]}\n")


# (metric, unit, better) reported by a traced run, in BENCHMARK.json order.
def _per_layer():
    out = []
    s = lambda name: out.append((name + ".self_s", "s", "lower"))
    c = lambda name: out.append((name + ".calls", "count", "lower"))
    for f in ("build_parser", "load_job", "emit"):
        s("cli." + f)
    out.append(("cli.emit.bytes", "bytes", "lower"))
    c("root_datum.build_root_datum")
    s("root_datum.build_root_datum")
    out.append(("root_datum.build_root_datum.repeat_share", "ratio", "lower"))
    for f in ("dual", "outer_automorphisms", "fundamental_group"):
        c("root_datum." + f)
        s("root_datum." + f)
    for f in ("classify_quasisplit", "quasisplit_cocharacter_data", "build_inner_invariant"):
        s("classify." + f)
    c("groups.homomorphisms")
    s("groups.homomorphisms")
    out.append(("groups.homomorphisms.candidates", "count", "lower"))
    out.append(("groups.homomorphisms.results", "count", "higher"))
    c("exact_linalg.smith_normal_form")
    s("exact_linalg.smith_normal_form")
    out.append(("exact_linalg.smith_normal_form.entries", "count", "lower"))
    for f in ("cokernel", "coinvariants", "fixed_sublattice", "kernel_basis"):
        s("exact_linalg." + f)
    for f in ("mat_inv", "mat_mul", "kernel", "solve", "rank"):
        c("qlinalg." + f)
        s("qlinalg." + f)
    for f in ("h2_bar", "h1_nonabelian", "boundary_map", "is_two_cocycle_kx"):
        c("cohomology." + f)
        s("cohomology." + f)
    for f in ("galois_group", "norm"):
        c("fields." + f)
        s("fields." + f)
    out.append(("fields.galois_group.repeat_share", "ratio", "lower"))
    for f in ("hilbert_symbol", "brauer_class_quaternion"):
        c("fields." + f)
        s("fields." + f)
    c("fields.FieldElement.mul")
    c("fields.FieldElement.inverse")
    c("crossed.CrossedProductAlgebra.init")
    s("crossed.CrossedProductAlgebra.init")
    c("crossed.CrossedProductAlgebra.multiply")
    s("crossed.CrossedProductAlgebra.is_central_simple")
    s("crossed.CrossedProductAlgebra.center_basis")
    c("crossed.find_zero_divisor")
    s("crossed.find_zero_divisor")
    out.append(("crossed.find_zero_divisor.found", "count", "higher"))
    out.append(("crossed.find_zero_divisor.hit_ratio", "ratio", "higher"))
    for f in ("validate_datum", "to_module", "fixed_space"):
        c("descent." + f)
        s("descent." + f)
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


PER_LAYER = _per_layer()


def per_layer_values(tracer, overhead_ratio):
    spans = tracer.per_name()
    counts = tracer.counts
    values = {}
    for metric, _unit, _better in PER_LAYER:
        base, stat = metric.rsplit(".", 1)
        if stat == "self_s":
            values[metric] = spans[base][1] if base in spans else 0.0
        elif stat == "calls":
            values[metric] = counts[base] if base in counts else (spans[base][0] if base in spans else 0)
        elif stat == "repeat_share":
            calls = spans[base][0] if base in spans else 0
            values[metric] = counts[base + ".repeats"] / calls if calls else 0.0
        elif stat == "hit_ratio":
            calls = spans[base][0] if base in spans else 0
            values[metric] = counts[base + ".found"] / calls if calls else 0.0
        elif metric == "trace.overhead_ratio":
            values[metric] = overhead_ratio
        else:
            values[metric] = counts[metric]
    return values
