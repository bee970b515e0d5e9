"""Per-layer tracing by wrapping library functions from outside the library.

A span is one call of a wrapped function.  Its self time is its duration
minus the part of it that child spans cover; the bookkeeping a wrapper does
after its call (counting flops, hashing operands) is charged to no span.
Spans are aggregated by name as they close: call count, summed self time and
the named counters that each layer records.

A function imported by name into several modules is replaced in every
`homhopf` module namespace that holds it, so each call site reaches the
wrapper; methods are replaced on their class.  `Tracer.uninstall()` restores
every original, and the library source is never edited.
"""

import contextlib
import inspect
import sys
import time
from collections import defaultdict

__all__ = ["Tracer", "LAYERS", "layer_metric_names", "install_layers"]


class Tracer:
    """Aggregated spans plus the counters recorded beside them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []  # time covered by child spans, one entry per open span
        self._patches = []  # (owner, attribute, original), in install order
        self.active = True  # while False, wrapped calls record nothing
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.gauges = {}  # name -> function read at each snapshot, kept as a maximum
        self._chain = defaultdict(set)  # keys seen since the outermost span opened

    def wrap(self, name, fn, after=None, when=None):
        """Return `fn` recording a span `name` on every call.

        `when(args, kwargs)`, if given, decides per call whether a span is
        recorded; `after(args, kwargs, result, self_time)` runs after a call
        that returned, outside every span's time.
        """
        clock, stack = self.clock, self._stack
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            if not self.active or (when is not None and not when(args, kwargs)):
                return fn(*args, **kwargs)
            begin = clock()
            stack.append(0.0)
            returned = False
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                own = end - start - stack.pop()
                calls[name] += 1
                self_s[name] += own
                if returned and after is not None:
                    after(args, kwargs, result, own)
                if stack:
                    stack[-1] += clock() - begin
                else:
                    self._end_chain()

        traced.__wrapped__ = fn
        return traced

    def chain_add(self, name, key):
        """Count `key` once per call chain: the outermost open span."""
        self._chain[name].add(key)

    def _end_chain(self):
        for name, seen in self._chain.items():
            self.counts[name] += len(seen)
        self._chain.clear()

    def patch_method(self, cls, attribute, name, after=None, when=None):
        original = cls.__dict__[attribute]
        self._set(cls, attribute, original, self.wrap(name, original, after, when))

    def patch_function(self, module, attribute, name, after=None, when=None):
        """Wrap a module-level function wherever a `homhopf` module holds it."""
        original = getattr(module, attribute)
        wrapper = self.wrap(name, original, after, when)
        for mod in _library_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, original, wrapper)

    def _set(self, owner, attribute, original, wrapper):
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def snapshot(self):
        """Copy of the aggregates, for combining phases; gauges are read now."""
        maxima = dict(self.maxima)
        maxima.update((name, read()) for name, read in self.gauges.items())
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "maxima": maxima,
        }

    def reset(self):
        tables = (self.calls, self.self_s, self.counts, self.maxima, self._chain)
        for table in tables:
            table.clear()


def _library_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "homhopf" or key.startswith("homhopf."))
    ]


def _content(m):
    return (m.rows, m.cols, tuple(tuple(sorted(row.items())) for row in m._rowdicts))


# ---------------------------------------------------------------------------
# the layers: module -> metric group -> recorded fields

LAYERS = {
    "matrices": {
        "mul": ("calls", "self_s", "flops", "max_dim"),
        "mul_perm": ("calls", "self_s"),
        "kron": ("calls", "self_s", "out_nnz"),
        "kron_apply": ("calls", "self_s"),
        "leg_perm": ("calls", "self_s", "distinct"),
        "solve": ("calls", "self_s"),
        "first_mismatch": ("calls", "self_s"),
    },
    "report": {"eq_check": ("calls", "self_s", "distinct")},
    "structures": {
        "check_hom_algebra": ("calls", "self_s"),
        "check_hom_coalgebra": ("calls", "self_s"),
        "check_hom_bialgebra": ("calls", "self_s"),
        "check_antipode": ("calls", "self_s"),
        "yau_twist": ("calls", "self_s"),
        "ctor": ("calls", "self_s"),
    },
    "actions": {
        "check_action_axioms": ("calls", "self_s"),
        "check_coaction_axioms": ("calls", "self_s"),
        "check_hyd": ("calls", "self_s"),
        "check_hyd_prime": ("calls", "self_s"),
    },
    "constructions": {
        "check_radford_conditions": ("calls", "self_s"),
        "radford_biproduct": ("calls", "self_s"),
        "biproduct_antipode": ("calls", "self_s"),
        "smash_product": ("calls", "self_s"),
        "smash_coproduct": ("calls", "self_s"),
    },
    "braided": {
        "check_bosonization_equivalence": ("calls", "self_s"),
        "check_bialgebra_in_hyd": ("calls", "self_s"),
        "braiding": ("calls", "self_s"),
        "braiding_inverse": ("calls", "self_s"),
        "check_yang_baxter": ("calls", "self_s"),
    },
    "quasitriangular": {
        "check_quasitriangular": ("calls", "self_s"),
        "check_rmatrix_equivalence": ("calls", "self_s"),
        "check_cobraiding_equivalence": ("calls", "self_s"),
    },
    "catalog": {"build": ("calls", "self_s")},
    "textfmt": {
        "parse_document": ("calls", "self_s", "bytes"),
        "realize": ("calls", "self_s"),
        "run_checks": ("calls", "self_s"),
        "catalog_document": ("calls", "self_s"),
        "render": ("calls", "self_s"),
    },
    "cli": {"main": ("calls", "self_s")},
}

CATALOG_BUILDERS = (
    "group_algebra_z2",
    "cyclic_group_hopf",
    "taft_hopf",
    "taft_twisted",
    "taft_bundle",
    "dual_number_algebra",
    "dual_number_coalgebra",
    "dual_number_antipode",
    "dual_number_bundle",
    "taft_biproduct",
    "dual_number_biproduct",
    "z2_r_matrix",
    "z2_cobraiding_form",
)

RENDERERS = (
    "render_document",
    "render_parsed",
    "algebra_lines",
    "coalgebra_lines",
    "bialgebra_lines",
    "hopf_lines",
    "action_lines",
    "coaction_lines",
    "rmatrix_lines",
    "form_lines",
)

CHECKED_CLASSES = ("HomAlgebra", "HomCoalgebra", "HomBialgebra", "HomHopf")


def layer_metric_names():
    """Every per-layer metric name, in a fixed order."""
    names = []
    for module, groups in LAYERS.items():
        for group, fields in groups.items():
            names.extend(f"{module}.{group}.{field}" for field in fields)
    return names


def install_layers(tracer):
    """Wrap every layer boundary that LAYERS names."""
    from homhopf import (
        actions,
        braided,
        catalog,
        cli,
        constructions,
        matrices,
        quasitriangular,
        report,
        structures,
        textfmt,
    )

    perms = {}  # id -> matrix returned by leg_perm; kept alive so ids stay unique

    def after_mul(args, kwargs, result, own):
        a, b = args
        if not isinstance(result, matrices.Matrix):
            return
        brows = b._rowdicts
        tracer.counts["matrices.mul.flops"] += sum(
            len(brows[k]) for row in a._rowdicts for k in row
        )
        dim = max(a.rows, a.cols, b.cols)
        if dim > tracer.maxima["matrices.mul.max_dim"]:
            tracer.maxima["matrices.mul.max_dim"] = dim
        if id(a) in perms or id(b) in perms:
            tracer.calls["matrices.mul_perm"] += 1
            tracer.self_s["matrices.mul_perm"] += own

    def after_kron(args, kwargs, result, own):
        tracer.counts["matrices.kron.out_nnz"] += result.nnz()

    def after_leg_perm(args, kwargs, result, own):
        perms[id(result)] = result

    def after_eq_check(args, kwargs, result, own):
        name, lhs, rhs = args[:3]
        key = hash((name, _content(lhs), _content(rhs)))
        tracer.chain_add("report.eq_check.distinct", key)

    def after_parse(args, kwargs, result, own):
        tracer.counts["textfmt.parse_document.bytes"] += len(args[0].encode("utf-8"))

    tracer.patch_method(matrices.Matrix, "__mul__", "matrices.mul", after=after_mul)
    tracer.patch_method(matrices.Matrix, "kron", "matrices.kron", after=after_kron)
    tracer.patch_function(matrices, "kron_apply", "matrices.kron_apply")
    tracer.patch_function(matrices, "leg_perm", "matrices.leg_perm", after=after_leg_perm)
    tracer.gauges["matrices.leg_perm.distinct"] = (
        lambda: matrices._leg_perm_cached.cache_info().currsize
    )
    tracer.patch_function(matrices, "solve", "matrices.solve")
    tracer.patch_function(matrices, "first_mismatch", "matrices.first_mismatch")
    tracer.patch_function(report, "eq_check", "report.eq_check", after=after_eq_check)
    for module in (structures, actions, constructions, braided, quasitriangular):
        short = module.__name__.rsplit(".", 1)[1]
        for group in LAYERS[short]:
            if group != "ctor":
                tracer.patch_function(module, group, f"{short}.{group}")
    for cls_name in CHECKED_CLASSES:
        cls = getattr(structures, cls_name)
        signature = inspect.signature(cls.__init__)

        def checked(args, kwargs, signature=signature):
            return signature.bind(*args, **kwargs).arguments.get("check", True)

        tracer.patch_method(cls, "__init__", "structures.ctor", when=checked)
    for builder in CATALOG_BUILDERS:
        tracer.patch_function(catalog, builder, "catalog.build")
    tracer.patch_function(textfmt, "parse_document", "textfmt.parse_document", after=after_parse)
    for group in ("realize", "run_checks", "catalog_document"):
        tracer.patch_function(textfmt, group, f"textfmt.{group}")
    for renderer in RENDERERS:
        tracer.patch_function(textfmt, renderer, "textfmt.render")
    tracer.patch_function(cli, "main", "cli.main")


def layer_values(setup, rounds, n_rounds):
    """Per-layer metric values: the traced set-up once plus one timed round.

    `setup` and `rounds` are Tracer snapshots; the round totals are divided
    by the number of rounds, which all perform identical work.  Maxima and
    gauges (such as the permutation cache's size) take the larger reading.
    """
    values = {}
    for module, groups in LAYERS.items():
        for group, fields in groups.items():
            key = f"{module}.{group}"
            for field in fields:
                name = f"{key}.{field}"
                if name in setup["maxima"] or name in rounds["maxima"]:
                    values[name] = max(setup["maxima"].get(name, 0), rounds["maxima"].get(name, 0))
                else:
                    table, ident = {"calls": ("calls", key), "self_s": ("self_s", key)}.get(
                        field, ("counts", name)
                    )
                    values[name] = _combine(
                        setup[table].get(ident, 0), rounds[table].get(ident, 0), n_rounds
                    )
    return values


def _combine(once, total, n_rounds):
    """Set-up value plus the per-round value; counts stay whole numbers when
    every round did the same work."""
    if isinstance(total, int) and total % n_rounds == 0:
        return once + total // n_rounds
    return once + total / n_rounds
