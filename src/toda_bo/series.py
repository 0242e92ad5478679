"""Exact Laurent polynomials and the one division the tau ratio needs.

A Laurent polynomial is a dict {degree: Fraction} of its nonzero
coefficients, so it is zero off its keys.  series_mul is the exact product,
and series_bezout the Bezout pair of two coprime polynomials, by Euclid's
algorithm on the same dicts.

Division runs on Python ints.  series_inv inverts a one-sided t with unit
constant term: with L the lcm of t's denominators and T_j = t_j L, the
recurrence C_0 = 1, C_k = -sum_j T_j L**(j-1) C_{k-j} is integral and
[w**k] 1/t = C_k / L**k, the Fraction recurrence c_k = -sum_j t_j c_{k-j}
multiplied through by L**k.  series_div(parts, lo, hi) returns degrees
lo..hi of a sum of quotients h / t.  In each quotient, with H the lcm of h's
denominators, degree e is one integer numerator over H L**top, top the
largest inverse index its sum reaches; the quotients' numerators at e are
summed over the product of their denominators, and that unreduced pair
(num, den) is handed to the caller's constructor once: Fraction(num, den)
keeps the coefficient exact, and num / den rounds it straight to the
nearest double (CPython's int true division is correctly rounded, so it is
float(Fraction(num, den)) without the gcd).  Each inverse is taken as far
as an asked degree reaches from h's far end, so each returned coefficient
is the whole finite sum of its contributions: exact, with no window to
track.
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
        quo, rem = {}, r0
        while rem and max(rem) >= max(r1):
            step = {max(rem) - max(r1): rem[max(rem)] / r1[max(r1)]}
            quo.update(step)
            rem = _minus_product(rem, step, r1)
        rows = rows[1], (rem, _minus_product(s0, quo, s1), _minus_product(t0, quo, t1))
    (r, u, v), _ = rows
    if set(r) != {0}:
        raise PoleError("tau factors share a root; expansion annulus is empty")
    return {d: x / r[0] for d, x in u.items()}, {d: x / r[0] for d, x in v.items()}


def series_inv(t: Laurent, order: int):
    """Inverse of a one-sided t with unit constant term, to `order`, on
    Python ints: (d, C, P) with [var**(d k)] 1/t = C[k] / P[k], P[k] = L**k.

    d is +1 when t is a polynomial in var and -1 when it is one in 1/var.
    """
    if t.get(0) != ONE:
        raise ValueError("constant term must be one (normalize first)")
    if min(t) >= 0:
        d = 1
    elif max(t) <= 0:
        d = -1
    else:
        raise ValueError("series_inv needs one-sided support touching degree 0")
    # C[0] = 1 and C[k] = -sum_j T_j L**(j-1) C[k-j], where T_j = t_j L
    tj = [(j, t[d * j]) for j in range(1, order + 1) if d * j in t]
    nums, L = numerators([c for _, c in tj])
    lpow = [1]
    for _ in range(order):
        lpow.append(lpow[-1] * L)
    steps = [(j, n * lpow[j - 1]) for (j, _), n in zip(tj, nums)]
    inv = [1]
    for k in range(1, order + 1):
        inv.append(-sum(p * inv[k - j] for j, p in steps if j <= k))
    return d, inv, lpow


def _quotient(h: Laurent, t: Laurent, lo: int, hi: int) -> dict[int, tuple]:
    """Degrees lo..hi of h / t, 1/t expanded on t's side, as unreduced
    integer pairs (numerator, denominator); zeros left out."""
    # the largest inverse index any asked degree reaches from a degree of h
    if min(t, default=0) >= 0:
        order = hi - min(h, default=hi)
    else:
        order = max(h, default=lo) - lo
    d, inv, lpow = series_inv(t, order)
    # [var**e] h/t = sum over d1 of h_{d1} [var**(e-d1)] 1/t, on the common
    # denominator H L**top, top the largest inverse index the sum reaches
    hnums, H = numerators(h.values())
    hn = list(zip(h, hnums))
    out = {}
    for e in range(lo, hi + 1):
        terms = [(n, d * (e - d1)) for d1, n in hn if 0 <= d * (e - d1) <= order]
        if not terms:
            continue
        top = max(k for _, k in terms)
        num = sum(n * inv[k] * lpow[top - k] for n, k in terms)
        if num:
            out[e] = (num, H * lpow[top])
    return out


def series_div(parts, lo: int, hi: int, make=Scalar) -> Laurent:
    """The nonzero [var**e] of the sum of h / t over parts (h, t), for
    lo <= e <= hi, each 1/t expanded on its t's side; on Python ints, one
    make(num, den) per output degree from its unreduced integer pair
    (module docstring).
    """
    quotients = [_quotient(h, t, lo, hi) for h, t in parts]
    out: Laurent = {}
    for e in range(lo, hi + 1):
        num, den = 0, 1
        for q in quotients:
            if e in q:
                n, d = q[e]
                num, den = num * d + n * den, den * d
        if num:
            out[e] = make(num, den)
    return out
