"""PASS/FAIL reports with deterministic ordering and exact counterexample witnesses."""

from dataclasses import dataclass

from .matrices import first_mismatch, unflatten_index

__all__ = [
    "CheckResult",
    "Report",
    "StructureError",
    "eq_check",
    "describe_basis",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None

    @property
    def verdict(self):
        return "PASS" if self.passed else "FAIL"


@dataclass(frozen=True)
class Report:
    """Ordered verdicts for one checker run; every axiom appears, not just failures."""

    title: str
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failures(self):
        return tuple(c for c in self.checks if not c.passed)

    def first_failure(self):
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def summarize(self, name):
        """One verdict named `name` for the whole report, witnessed by its
        first failing check."""
        fail = self.first_failure()
        witness = None if fail is None else f"{fail.name}: {fail.witness}"
        return CheckResult(name, fail is None, witness)

    def require(self, what):
        """This report if it passed; else refuse with `what` and the name of
        its first failing check."""
        if not self.passed:
            raise StructureError(f"{what}: {self.first_failure().name}", self)
        return self

    def prefixed(self, prefix):
        return Report(
            self.title,
            tuple(CheckResult(prefix + c.name, c.passed, c.witness) for c in self.checks),
        )

    def lines(self, witnesses=False):
        out = [f"== {self.title}"]
        width = max((len(c.name) for c in self.checks), default=0)
        for c in self.checks:
            line = f"  {c.name.ljust(width)}  {c.verdict}"
            if witnesses and not c.passed and c.witness:
                line += f"  [{c.witness}]"
            out.append(line)
        out.append(f"== RESULT {'PASS' if self.passed else 'FAIL'}")
        return out

    def render(self, witnesses=False):
        return "\n".join(self.lines(witnesses))


class StructureError(Exception):
    """A construction gate or structural invariant was violated."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def describe_basis(legs, flat):
    """Label a flattened basis index of a tensor product of labelled legs."""
    dims = tuple(len(leg) for leg in legs)
    idx = unflatten_index(dims, flat)
    return "⊗".join(legs[pos][i] for pos, i in enumerate(idx))


def eq_check(name, lhs, rhs, in_legs=None, out_legs=None):
    """Compare two maps exactly; on failure decode the witness to basis labels.

    in_legs/out_legs are tuples of per-leg basis label tuples matching the
    global flattening, or None for raw indices.
    """
    mm = first_mismatch(lhs, rhs)
    if mm is None:
        return CheckResult(name, True)
    fmt = lhs.field.format
    src = describe_basis(in_legs, mm.col) if in_legs else f"column {mm.col}"
    dst = describe_basis(out_legs, mm.row) if out_legs else f"row {mm.row}"
    witness = f"at {src} -> {dst}: {fmt(mm.lhs)} != {fmt(mm.rhs)}"
    return CheckResult(name, False, witness)
