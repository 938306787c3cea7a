"""Enumeration kernel behind the brute-force index oracle.

The inner loop of the oracle sweeps, kept apart from the geometry so it
runs on plain integers: no Fraction or Class2 is built per candidate.
It computes on arbitrary-precision integers, so it has no overflow
ceiling.
"""

from __future__ import annotations


def best_index_bound(
    beta_num: int,
    gamma_num: int,
    scale: int,
    m: int,
    b1: int,
    d_max: int,
    c_max: int,
) -> tuple[int, int, int, int]:
    """Maximize min(beta/d, (m*beta + gamma)/(c + m*d)) over integral (d, c).

    beta = beta_num/scale and gamma = gamma_num/scale with scale > 0; the candidate
    range is 1 <= d <= d_max with b1*d + 1 <= c <= c_max, which is the
    set of integral ample classes d*L + c*F inside the bounds.  Returns
    (num, den, d, c): the maximum as num/den (den > 0, not necessarily
    reduced) and the lexicographically first argmax.  Raises ValueError
    when no (d, c) lies in range.
    """
    a = beta_num
    b = m * beta_num + gamma_num
    # Candidates run over e = c + m*d, and both bounds are compared
    # without the common factor 1/scale: min(a/d, b/e) by cross-
    # multiplication (d and e are positive, so signs are safe), the
    # running best likewise.  scale enters the result once, at the end.
    best_num = best_den = best_d = best_e = 0
    for d in range(1, d_max + 1):
        md = m * d
        bd = b * d
        for e in range(b1 * d + 1 + md, c_max + 1 + md):
            if a * e <= bd:
                num, den = a, d
            else:
                num, den = b, e
            if best_den == 0 or num * best_den > best_num * den:
                best_num, best_den, best_d, best_e = num, den, d, e
    if best_den == 0:
        raise ValueError("empty enumeration range for (d_max, c_max)")
    return best_num, scale * best_den, best_d, best_e - m * best_d
