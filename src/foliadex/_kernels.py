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

    beta = beta_num/scale and gamma = gamma_num/scale; the candidate
    range is 1 <= d <= d_max with b1*d + 1 <= c <= c_max, which is the
    set of integral ample classes d*L + c*F inside the bounds.  Returns
    (num, den, d, c): the maximum as num/den (den > 0, not necessarily
    reduced) and the lexicographically first argmax.  Raises ValueError
    when no (d, c) lies in range.
    """
    a = beta_num
    b = m * beta_num + gamma_num
    best_num = 0
    best_den = 0
    best_d = 0
    best_c = 0
    for d in range(1, d_max + 1):
        lo = b1 * d + 1
        for c in range(lo, c_max + 1):
            # min of the two bounds by cross-multiplication; both
            # denominators are positive, so signs are safe.
            if a * (c + m * d) <= b * d:
                num, den = a, scale * d
            else:
                num, den = b, scale * (c + m * d)
            if best_den == 0 or num * best_den > best_num * den:
                best_num, best_den, best_d, best_c = num, den, d, c
    if best_den == 0:
        raise ValueError("empty enumeration range for (d_max, c_max)")
    return best_num, best_den, best_d, best_c
