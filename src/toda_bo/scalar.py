"""Exact rational scalars, sampled parameter points, symmetric-function helpers.

Everything symbolic in this package is computed over `Scalar`
(= `fractions.Fraction`), so identities are decided exactly.  Square roots of
the deformation parameter q never appear: the sampler draws s and derives
q = s**2, keeping all arithmetic rational.
"""

from __future__ import annotations

import decimal
import math
import random
import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class ParamError(ValueError):
    """A parameter point violates a non-degeneracy constraint."""


class PoleError(ZeroDivisionError):
    """A requested value sits on a pole (e.g. q**i == 1)."""


class BudgetError(RuntimeError):
    """A computation would exceed its configured size budget."""


GUARD_RANGE = 8


def scalar_str(x: Scalar) -> str:
    """Render as 'p/q' in lowest terms; integers render as 'k/1'.

    The digits come from `decimal`, which the interpreter's int-to-str digit
    limit does not bind, so every exact value renders."""
    return f"{decimal.Decimal(x.numerator)}/{decimal.Decimal(x.denominator)}"


def parse_scalar(text: str) -> Scalar:
    """Inverse of scalar_str; also accepts plain integers like '3'.

    The grammar is an optional sign, digits and an optional '/digits';
    anything else raises ValueError, an exponent such as '1e5000' included
    (Fraction would expand it to all its digits before any size check).
    Reads untrusted spec text, so the interpreter's int-to-str digit limit,
    where the interpreter has one, stays in force: past it, ValueError."""
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        raise ValueError(f"{reprlib.repr(text)} is not an integer or a fraction p/q")
    return Fraction(text)


def scalar_decimal(x: Scalar) -> str:
    """Decimal rendering with 30 significant digits, round-half-even."""
    with decimal.localcontext() as ctx:
        ctx.prec = 30
        d = decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)
    return str(d)


def numerators(values) -> tuple[list[int], int]:
    """Integer numerators of Fractions over L, the lcm of their
    denominators, and L."""
    L = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (L // v.denominator) for v in values], L


def newton_p_from_e(e: list) -> list:
    """Power sums p_1..p_k from elementary symmetric values e_1..e_k.

    Newton's identities p_m = sum_{i<m} (-1)**(i-1) e_i p_{m-i}
    + (-1)**(m-1) m e_m, for m = 1..k.  Division-free and free of ring
    constants, so any commutative ring with +, - and * (an int on the
    right) works: the slot-0 mode series of iom's charges included, whose
    window-cut products equal the cut of the uncut ones.
    """
    if not e:
        raise ValueError("need at least e_1")
    p: list = []
    for m in range(1, len(e) + 1):
        acc = e[m - 1] * m if m % 2 else -(e[m - 1] * m)
        for i in range(1, m):
            t = e[i - 1] * p[m - i - 1]
            acc = acc + t if i % 2 else acc - t
        p.append(acc)
    return p


@lru_cache(maxsize=None)
def q_pochhammer(q: Scalar, k: int) -> Scalar:
    """prod_{i=1..k}(1 - q**i); raises PoleError when a factor vanishes.
    Cached: a run asks for it at a few (q, k) many times."""
    out = ONE
    for i in range(1, k + 1):
        f = ONE - q**i
        if f == 0:
            raise PoleError(f"q**{i} == 1")
        out *= f
    return out


@lru_cache(maxsize=None)
def _guard_powers(q: Scalar) -> frozenset:
    """q**m for |m| <= GUARD_RANGE, once per q."""
    return frozenset(q**m for m in range(-GUARD_RANGE, GUARD_RANGE + 1))


@dataclass(frozen=True)
class ParamPoint:
    """A sampled parameter assignment (s, eps, a_1..a_n) with q = s**2.

    The constraints keep every interaction coefficient, shift factor and tau
    denominator used downstream finite: a entries distinct and separated by
    the q-multiplication orbit, and q**m * eps clear of every a entry for
    |m| <= GUARD_RANGE.
    """

    s: Scalar
    eps: Scalar
    a: tuple[Scalar, ...] = ()

    def __post_init__(self) -> None:
        s, eps = self.s, self.eps
        if s in (0, 1, -1):
            raise ParamError("s must avoid {0, 1, -1}")
        q = self.q
        if eps == 0:
            raise ParamError("eps must be nonzero")
        a = self.a
        for i, ai in enumerate(a):
            if ai == 0:
                raise ParamError("a entries must be nonzero")
            for j in range(i):
                aj = a[j]
                if ai == aj or ai == q * aj or aj == q * ai:
                    raise ParamError("a entries hit an interaction pole")
        # a_k == q**m * eps exactly when a_k / eps is one of those powers
        powers = _guard_powers(q)
        if any(ai / eps in powers for ai in a):
            raise ParamError("q**m * eps hits an a entry")

    @cached_property
    def q(self) -> Scalar:
        """s**2, taken once per point; not a field, so equality, hashing
        and to_json see s, eps and a only."""
        return self.s * self.s

    @property
    def n(self) -> int:
        return len(self.a)

    def inverted(self) -> "ParamPoint":
        """Mirror point s -> 1/s, eps -> 1/eps, a_k -> 1/a_k.

        The mirrored closed forms for the bar-side charges are plain closed
        forms evaluated here; validity of the guards transfers exactly.
        """
        return ParamPoint(1 / self.s, 1 / self.eps, tuple(1 / x for x in self.a))

    def to_json(self) -> dict:
        return {
            "s": scalar_str(self.s),
            "eps": scalar_str(self.eps),
            "a": [scalar_str(x) for x in self.a],
        }


def sample_param_point(
    rng: random.Random,
    n: int,
    s: Scalar = Fraction(1, 2),
) -> ParamPoint:
    """Draw a valid point with |a_k| in [1/8, 1/4] and |eps| in [1/16, 1/8].

    The exact checks draw here.  The bounds do not make the tau ratio's
    modes decay, so the convergent checks draw with soliton.sample_decaying,
    which also tests the amplitudes against decay_report's margins.
    """
    for _ in range(1000):
        a = []
        for _k in range(n):
            num = rng.randint(1, 9)
            den = rng.randint(4 * num, 8 * num)
            a.append(Fraction(rng.choice((1, -1)) * num, den))
        num = rng.randint(1, 9)
        den = rng.randint(8 * num, 16 * num)
        eps = Fraction(rng.choice((1, -1)) * num, den)
        try:
            return ParamPoint(s, eps, tuple(a))
        except ParamError:
            continue
    raise ParamError("sampler failed to find a valid point")


def sample_amplitudes(rng: random.Random, n: int) -> tuple[Scalar, ...]:
    """Draw n amplitudes with |b_k| in [1/4, 3/4] (inside the unit disc)."""
    out = []
    for _k in range(n):
        num = rng.randint(1, 3)
        den = rng.randint(max(2, (4 * num + 2) // 3), 4 * num)
        out.append(Fraction(rng.choice((1, -1)) * num, den))
    return tuple(out)


def sample_shift_amount(rng: random.Random) -> Scalar:
    """Draw a nonzero shift parameter with |alpha| <= 1/8."""
    num = rng.randint(1, 9)
    den = rng.randint(8 * num, 24 * num)
    return Fraction(rng.choice((1, -1)) * num, den)
