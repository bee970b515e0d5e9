"""kz-ladder: the group algebras KZ_n and their Yau twists along g -> g^s.

Rungs run over GF(7) from n = 4 up to n = 24, where one check builds
331,776-row intermediates and peaks near 150 MB, plus one middle rung over
Q, so that a fast path for prime fields alone cannot hide a slowdown over Q.
Every verdict is PASS, so the n^4-column composites of `check_hom_bialgebra`
run to completion.  n = 32 (about 450 MB a check) is left out: its
million-row operands make the timings follow the memory traffic of whatever
else shares the machine, and runs of it were too unsteady to compare.

The seed picks each rung's involution s (s^2 = 1 mod n, s != 1) and the
order of the operations.
"""

import random
from dataclasses import dataclass

from homhopf import catalog, fields, matrices, structures

from common import Incorrect, Op

NAME = "kz-ladder"
GF_RUNGS = (4, 6, 8, 12, 16, 24)
Q_RUNG = 16

BIALGEBRA_CHECKS = tuple(
    [f"algebra.{c}" for c in ("twist.invertible", "HA1.mult", "HA1.unit", "HA2.assoc",
                              "HA2.unit-left", "HA2.unit-right")]
    + [f"coalgebra.{c}" for c in ("twist.invertible", "HC1.comult", "HC1.counit", "HC2.coassoc",
                                  "HC2.counit-left", "HC2.counit-right")]
    + ["compat.comult-mult", "compat.comult-unit", "compat.counit-mult", "compat.counit-unit"]
)
ANTIPODE_CHECKS = ("antipode.left", "antipode.right", "antipode.twist")


@dataclass(frozen=True)
class Instance:
    """KZ_n twisted along i -> s*i mod n (s = 1 is the classical algebra)."""

    field: object
    n: int
    s: int
    hopf: object

    @property
    def label(self):
        return f"KZ{self.n}/{self.field} s={self.s}"


def involutions(n):
    """The nontrivial involutions of Z_n: s != 1 with s^2 = 1 mod n."""
    return tuple(s for s in range(2, n) if (s * s) % n == 1)


def rungs():
    gf7 = fields.GF(7)
    return [(gf7, n) for n in GF_RUNGS] + [(fields.QQ, Q_RUNG)]


def build(seed):
    """Both instances of every rung, built with the default constructor checks."""
    rng = random.Random(seed)
    instances = []
    for field, n in rungs():
        base = catalog.cyclic_group_hopf(field, n)
        s = rng.choice(involutions(n))
        sigma = matrices.Matrix(field, n, n, {((s * i) % n, i): field.one for i in range(n)})
        instances.append(Instance(field, n, 1, base))
        instances.append(Instance(field, n, s, structures.yau_twist(base, sigma)))
    return {"seed": seed, "instances": instances}


def ops(inputs):
    out = []
    for inst in inputs["instances"]:
        hopf = inst.hopf
        out.append(Op(f"bialgebra {inst.label}", _bialgebra_op(hopf), inst))
        out.append(Op(f"antipode {inst.label}", _antipode_op(hopf), inst))
    random.Random(inputs["seed"]).shuffle(out)
    return out


def _bialgebra_op(hopf):
    return lambda: structures.check_hom_bialgebra(hopf.bialgebra)


def _antipode_op(hopf):
    return lambda: structures.check_antipode(hopf.bialgebra, hopf.antipode)


def verify_inputs(inputs):
    """Element-wise: each instance's tables are the twisted group law, and
    that law makes a Hom-Hopf algebra with s a Hopf automorphism."""
    for inst in inputs["instances"]:
        _tables_match_group_law(inst)
        _group_law_is_hom_hopf(inst.n, inst.s)


def _tables_match_group_law(inst):
    h, n, s, field = inst.hopf, inst.n, inst.s, inst.field
    one, zero = field.one, field.zero

    def expect(matrix, what, rows, cols, target):
        if (matrix.rows, matrix.cols) != (rows, cols):
            raise Incorrect(f"{inst.label}: {what} has shape {matrix.rows}x{matrix.cols}")
        for col in range(cols):
            hit = target(col)
            for row in range(rows):
                want = one if row == hit else zero
                if matrix.entry(row, col) != want:
                    raise Incorrect(f"{inst.label}: {what} differs at ({row},{col})")

    expect(h.twist, "twist", n, n, lambda i: (s * i) % n)
    expect(h.mult, "multiplication", n, n * n, lambda c: (s * (c // n + c % n)) % n)
    expect(h.comult, "comultiplication", n * n, n, lambda i: ((s * i) % n) * n + (s * i) % n)
    expect(h.unit, "unit", n, 1, lambda _: 0)
    expect(h.antipode, "antipode", n, n, lambda i: (-i) % n)
    if any(h.counit.entry(0, i) != one for i in range(n)):
        raise Incorrect(f"{inst.label}: counit is not 1 on every group element")


def _group_law_is_hom_hopf(n, s):
    """Hom-Hopf axioms of (Z_n, i*j = s(i+j), Delta(i) = si (x) si, eps = 1,
    S(i) = -i, alpha = s) on basis elements.  Group-likes send every basis
    tuple to one basis tuple, so each axiom is an equation in Z_n."""
    alpha = lambda i: (s * i) % n
    mult = lambda i, j: (s * (i + j)) % n
    delta = lambda i: (alpha(i), alpha(i))
    neg = lambda i: (-i) % n
    label = f"KZ{n} s={s}"

    def require(ok, what):
        if not ok:
            raise Incorrect(f"{label}: {what}")

    require((s * s) % n == 1, "s is not an involution, so not invertible")
    require(alpha(0) == 0, "the twist moves the unit")
    for i in range(n):
        require(mult(0, i) == alpha(i) == mult(i, 0), f"unit law fails at {i}")
        d1, d2 = delta(i)
        require(delta(alpha(i)) == (alpha(d1), alpha(d2)), f"HC1 fails at {i}")
        require((alpha(d1),) + delta(d2) == delta(d1) + (alpha(d2),), f"HC2 fails at {i}")
        require(d2 == alpha(i) == d1, f"counit law fails at {i}")
        require(mult(neg(d1), d2) == 0 == mult(d1, neg(d2)), f"antipode fails at {i}")
        require(alpha(neg(i)) == neg(alpha(i)), f"S does not commute with s at {i}")
        for j in range(n):
            require(alpha((i + j) % n) == (alpha(i) + alpha(j)) % n, f"s not additive at {i},{j}")
            require(alpha(mult(i, j)) == mult(alpha(i), alpha(j)), f"HA1 fails at {i},{j}")
            (a1, a2), (b1, b2) = delta(i), delta(j)
            require(delta(mult(i, j)) == (mult(a1, b1), mult(a2, b2)), f"compat fails at {i},{j}")
            for k in range(n):
                require(
                    mult(alpha(i), mult(j, k)) == mult(mult(i, j), alpha(k)),
                    f"Hom-associativity fails at {i},{j},{k}",
                )


def judge(inputs, op, output):
    """Every verdict PASS, in the fixed axiom order; no operation may fail."""
    expected = BIALGEBRA_CHECKS if op.label.startswith("bialgebra") else ANTIPODE_CHECKS
    names = tuple(c.name for c in output.checks)
    if names != expected:
        raise Incorrect(f"{op.label}: checks {names} differ from the axiom order")
    failing = [c.name for c in output.checks if not c.passed]
    if failing:
        raise Incorrect(f"{op.label}: {failing} fail on a Hom-Hopf algebra")
    return False


def describe(output):
    return output.render(witnesses=True)
