"""Closed-form perverse-Hodge cube from the LLV representation.

Written without phl, so it can judge phl's output. For a model of half
dimension n with second Betti number b2, the cohomology generated by H^2
is the traceless part of Sym^n of the standard representation of
so(b2 + 2), and the cube entry h^{i,k,d} is the multiplicity of the weight
mu = (i, k, d - n):

    h^{i,k,d} = m_n(mu) - m_{n-2}(mu)

where m_j(mu) counts the degree-j monomials in b2 + 2 variables whose
weights sum to mu. Six of the variables have the weights +-e1, +-e2,
+-e3; the other b2 - 4 have weight 0.
"""

from __future__ import annotations

import json
from math import comb


def monomial_count(j: int, mu, b2: int) -> int:
    """m_j(mu): degree-j monomials of weight mu."""
    if j < 0:
        return 0
    zeros = b2 - 4
    total = 0
    # For each axis, the exponents (a, a + |mu_r|) of the pair +-e_r.
    for a1 in range(j + 1):
        t1 = 2 * a1 + abs(mu[0])
        for a2 in range(j + 1):
            t2 = t1 + 2 * a2 + abs(mu[1])
            for a3 in range(j + 1):
                used = t2 + 2 * a3 + abs(mu[2])
                if used > j:
                    break
                rest = j - used
                total += comb(rest + zeros - 1, zeros - 1) if zeros else int(rest == 0)
    return total


def llv_cube(n: int, b2: int) -> dict:
    """{(i, k, d): h} over the nonzero entries."""
    out = {}
    for d in range(2 * n + 1):
        for k in range(-n, n + 1):
            for i in range(-n, n + 1):
                mu = (i, k, d - n)
                h = monomial_count(n, mu, b2) - monomial_count(n - 2, mu, b2)
                if h:
                    out[(i, k, d)] = h
    return out


def cube_json(n: int, entries: dict) -> str:
    """The bytes `phl cube` writes for these entries: sorted by (d, k, i),
    indented by two, with a final newline."""
    rows = [
        {"i": i, "k": k, "d": d, "h": entries[(i, k, d)]}
        for (i, k, d) in sorted(entries, key=lambda t: (t[2], t[1], t[0]))
    ]
    return json.dumps({"n": n, "entries": rows}, indent=2) + "\n"


def vertices(n: int, b2: int) -> dict:
    """The six octahedron vertices, labelled as `phl check` labels them."""
    c = llv_cube(n, b2)
    points = {
        "unit": (0, 0, 0),
        "point": (0, 0, 2 * n),
        "sigma_power": (n, 0, n),
        "sigma_bar_power": (-n, 0, n),
        "perverse_min": (0, n, n),
        "perverse_max": (0, -n, n),
    }
    return {label: c.get(v, 0) for label, v in points.items()}


def so_dim(m: int) -> int:
    """dim so(m)."""
    return m * (m - 1) // 2
