"""Exact Laurent polynomials and the one split the tau ratio needs.

A Laurent polynomial is a dict {degree: Fraction} of its nonzero
coefficients, so it is zero off its keys.  series_mul is the exact product,
series_bezout the Bezout pair of two coprime polynomials, by Euclid's
algorithm on the same dicts, and series_split the split of a tau ratio into
one part over each tau factor.

Division runs on Python ints, one long division per quotient h / t, t
one-sided with unit constant term and 1/t expanded on t's side (d = +1
upward, -1 downward).  Let e0 be h's lowest degree when d = +1 and its
highest when d = -1: the quotient vanishes beyond e0 on the other side.
With H the lcm of h's denominators, L that of the terms of t the asked
degrees reach, hn_e = h_e H and T_j = t_{d j} L, degree e is Q_e over
H L**|e - e0|, where

    Q_e = hn_e L**|e - e0| - sum_j T_j L**(j-1) Q_{e - d j},

the Fraction recurrence q_e = h_e - sum_j t_{d j} q_{e - d j} multiplied
through by H L**|e - e0|: integral, and one small-by-big product per term
of t.  series_inv(h, t, lo, hi) runs it from e0 to the asked degree
farthest from e0, so each returned coefficient is the whole finite sum of
its contributions: exact, with no window to track.
"""

from __future__ import annotations

from .scalar import ONE, ZERO, PoleError, Scalar, numerators

Laurent = dict[int, Scalar]


def series_mul(f: Laurent, g: Laurent) -> Laurent:
    """Exact product of two Laurent polynomials."""
    out: Laurent = {}
    for d1, c1 in f.items():
        for d2, c2 in g.items():
            d = d1 + d2
            v = out.get(d)
            out[d] = c1 * c2 if v is None else v + c1 * c2
    return {d: c for d, c in out.items() if c}


def _minus_product(p: Laurent, a: Laurent, b: Laurent) -> Laurent:
    """p - a b."""
    out = dict(p)
    for d, c in series_mul(a, b).items():
        out[d] = out.get(d, ZERO) - c
    return {d: c for d, c in out.items() if c}


def _divmod(f: Laurent, g: Laurent) -> tuple[Laurent, Laurent]:
    """Euclid's step: quo, rem with f == quo g + rem and max(rem) < max(g)."""
    quo, rem = {}, f
    while rem and max(rem) >= max(g):
        step = {max(rem) - max(g): rem[max(rem)] / g[max(g)]}
        quo.update(step)
        rem = _minus_product(rem, step, g)
    return quo, rem


def series_bezout(f: Laurent, g: Laurent) -> tuple[Laurent, Laurent]:
    """Polynomials u, v with u f + v g == {0: 1}, for coprime polynomials
    f, g (no negative degree), by the extended Euclid algorithm.

    deg u < deg g and deg v < deg f, which makes the pair unique; when f and
    g are both constants, u = 0 and v = 1 / g.  A shared root raises
    PoleError.
    """
    # rows (r, s, t) with s f + t g == r; Euclid's step r0 = quo r1 + rem
    # replaces the first row by the second and the second by the remainder's
    rows = (f, {0: ONE}, {}), (g, {}, {0: ONE})
    while rows[1][0]:
        (r0, s0, t0), (r1, s1, t1) = rows
        quo, rem = _divmod(r0, r1)
        rows = rows[1], (rem, _minus_product(s0, quo, s1), _minus_product(t0, quo, t1))
    (r, u, v), _ = rows
    if set(r) != {0}:
        raise PoleError("tau factors share a root; expansion annulus is empty")
    return {d: x / r[0] for d, x in u.items()}, {d: x / r[0] for d, x in v.items()}


def series_split(num: Laurent, tm: Laurent, tp: Laurent) -> tuple[Laurent, Laurent]:
    """hm, hp with num == hm tp + hp tm and max(hm) < 0 <= min(hp), for
    coprime tm, a polynomial in 1/var, and tp, one in var: hm is num v
    reduced mod tm (top degree 0), v from the series_bezout pair of
    var**-min(tm) tm and tp, and hp the quotient (num - hm tp) / tm, exact.
    A num reaching below min(tm) raises ArithmeticError, and a root tm and
    tp share PoleError.
    """
    if min(num, default=0) < min(tm):
        raise ArithmeticError("numerator reaches below the lower tau's lowest degree")
    _, v = series_bezout({d - min(tm): c for d, c in tm.items()}, tp)
    _, hm = _divmod(series_mul(num, v), tm)
    hp, _ = _divmod(_minus_product(num, hm, tp), tm)
    return hm, hp


def series_inv(h: Laurent, t: Laurent, lo: int, hi: int) -> dict[int, tuple]:
    """Degrees lo..hi of h times the inverse of t, 1/t expanded on t's side,
    as unreduced integer pairs {e: (Q_e, H L**|e - e0|)}; zeros left out.

    t is one-sided with unit constant term; e0 is h's lowest degree when t
    is a polynomial in var (d = +1) and its highest when t is one in 1/var
    (d = -1).  The recurrence is in the module docstring.
    """
    if t.get(0) != ONE:
        raise ValueError("constant term must be one (normalize first)")
    if min(t) >= 0:
        d = 1
    elif max(t) <= 0:
        d = -1
    else:
        raise ValueError("series_inv needs one-sided support touching degree 0")
    if not h:
        return {}
    e0 = min(h) if d == 1 else max(h)
    # the farthest index |e - e0| an asked degree reaches
    reach = hi - e0 if d == 1 else e0 - lo
    tj = [(j, t[d * j]) for j in range(1, reach + 1) if d * j in t]
    tnums, L = numerators([c for _, c in tj])
    steps = [(j, n * L ** (j - 1)) for (j, _), n in zip(tj, tnums)]
    hnums, H = numerators(h.values())
    hn = dict(zip(h, hnums))
    # Q[k] is the numerator at degree e0 + d k, over den = H L**k
    Q: list[int] = []
    out = {}
    den = H
    for k in range(reach + 1):
        e = e0 + d * k
        q = -sum(s * Q[k - j] for j, s in steps if j <= k)
        if e in hn:
            q += hn[e] * L**k
        Q.append(q)
        if q and lo <= e <= hi:
            out[e] = (q, den)
        den *= L
    return out
