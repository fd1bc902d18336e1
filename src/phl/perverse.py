"""Hodge and perverse filtrations of a model, and the 3D table h^{i,k,d}.

Both filtrations are renumbered views of centered weight filtrations:

* the Hodge side comes from cup product with the anti-symplectic class
  sigma-bar, and must reproduce the bigrading formula
  W_k = (+) over q >= 2n-k of H^{p,q} -- this is re-checked exactly;

* the perverse side comes from cup product with the isotropic (1,1)
  class beta, renumbered per cohomological degree m as
  P_j H^m = W_{j-m+2n} ∩ H^m.

The cube entry h^{i,k,d} is the dimension jump of P_{d+k} inside the
(d+i, d-i) bigraded part of H^{2d}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .filtration import NilpotentOperator, WeightFiltration, weight_filtration
from .linalg import MatrixQ, Subspace, kernel
from .models import GradedAlgebraModel, ModelError, lefschetz

__all__ = [
    "FiltrationOnGraded",
    "PerverseFiltration",
    "PerverseHodgeCube",
    "hodge_filtration_via_sigma_bar",
    "hodge_item1_comparison",
    "perverse_filtration",
    "cube",
    "diamond_and_betti",
]


CUBE_MAX_N = 16


def _restrict_to_coords(s: Subspace, coords) -> Subspace:
    """Intersection of s with the span of the given coordinate axes.

    Solves for combinations of the basis rows vanishing outside `coords`;
    equivalent to meet() with a coordinate span but much cheaper.
    """
    if s.dim == 0:
        return s
    keep = set(coords)
    outside = [c for c in range(s.ambient_dim) if c not in keep]
    if not outside:
        return s
    # row c of the system is coordinate c of every basis row
    coeffs = kernel(MatrixQ.from_rows([[row[c] for row in s.grid] for c in outside], s.dim))
    if coeffs.dim == 0:
        return Subspace.zero(s.ambient_dim)
    return Subspace.span(coeffs.basis() @ s.basis())


@dataclass(frozen=True)
class FiltrationOnGraded:
    """Per cohomological degree m: an increasing chain of subspaces of the
    total space supported on the degree-m piece, with its index range."""

    steps: dict  # m -> {index: Subspace}
    ranges: dict  # m -> (lo, hi)

    def step(self, m: int, j: int) -> Subspace:
        lo, hi = self.ranges[m]
        chain = self.steps[m]
        if j < lo:
            return Subspace.zero(chain[lo].ambient_dim)
        if j > hi:
            return chain[hi]
        return chain[j]

    def graded_dims(self, m: int):
        lo, hi = self.ranges[m]
        out = []
        prev = 0
        for j in range(lo, hi + 1):
            d = self.steps[m][j].dim
            out.append(d - prev)
            prev = d
        return out


@dataclass(frozen=True)
class PerverseFiltration:
    """Renumbered perverse chains plus the underlying weight filtration."""

    graded: FiltrationOnGraded
    weight: WeightFiltration
    operator: NilpotentOperator


def _degree_chain(model, wf: WeightFiltration, renumber) -> FiltrationOnGraded:
    steps, ranges = {}, {}
    for d in range(model.pieces):
        m = 2 * d
        block = list(model.block_indices(d))
        lo, hi = renumber(m)
        chain = {}
        cache = {}
        for j in range(lo, hi + 1):
            k = j - lo
            wk = wf.step(k)
            if wk.dim not in cache:
                cache[wk.dim] = _restrict_to_coords(wk, block)
            chain[j] = cache[wk.dim]
        steps[m] = chain
        ranges[m] = (lo, hi)
    return FiltrationOnGraded(steps=steps, ranges=ranges)


def hodge_item1_comparison(model: GradedAlgebraModel):
    """Weight chain of L_{sigma-bar} per degree, compared exactly against
    the bigrading span of the basis vectors with Hodge index q >= 2n - k.

    Returns (filtration, mismatches); the filtration is None when the
    nilpotency index already deviates from n.
    """
    n = model.n
    op = lefschetz(model, model.classes.sigma_bar)
    if op.index != n:
        return None, [("index", op.index, n)]
    wf = weight_filtration(op, n)
    filt = _degree_chain(model, wf, lambda m: (0, 2 * n))
    mismatches = []
    split_dims = dict.fromkeys(range(0, 2 * n + 1), 0)
    for d in range(model.pieces):
        m = 2 * d
        for k in range(0, 2 * n + 1):
            expected_coords = [
                c
                for p in range(0, m + 1)
                for c in model.bidegree_coords(d, p)
                if m - p >= 2 * n - k
            ]
            expected = Subspace.coordinates(model.total_dim, expected_coords)
            if filt.steps[m][k] != expected:
                mismatches.append((m, k))
            split_dims[k] += expected.dim
    # W_k must not exceed the sum of its degree pieces, or it would not be
    # the direct sum the bigrading formula asserts
    for k in range(0, 2 * n + 1):
        if wf.step(k).dim != split_dims[k]:
            mismatches.append(("total", k, wf.step(k).dim, split_dims[k]))
    return filt, mismatches


def hodge_filtration_via_sigma_bar(model: GradedAlgebraModel) -> FiltrationOnGraded:
    """Hodge-side filtration; any deviation from the bigrading formula is a
    model inconsistency and raises."""
    filt, mismatches = hodge_item1_comparison(model)
    if filt is None:
        raise ModelError(
            f"nilpotency index of L_sigma_bar is {mismatches[0][1]}, expected n = {model.n}"
        )
    if mismatches:
        raise ModelError(
            f"weight filtration of L_sigma_bar deviates from the bigrading at {mismatches[:4]}"
        )
    return filt


def perverse_filtration(model: GradedAlgebraModel) -> PerverseFiltration:
    """Perverse chains P_j H^m = W^beta_{j-m+2n} ∩ H^m."""
    n = model.n
    op = lefschetz(model, model.classes.beta)
    if op.index != n:
        raise ModelError(
            f"nilpotency index of L_beta is {op.index}, expected n = {n}; "
            "beta does not behave as a nonzero isotropic (1,1) class"
        )
    wf = weight_filtration(op, n)
    filt = _degree_chain(model, wf, lambda m: (m - 2 * n, m))
    return PerverseFiltration(graded=filt, weight=wf, operator=op)


@dataclass(frozen=True)
class PerverseHodgeCube:
    """Finite map (i, k, d) -> h^{i,k,d} >= 0 for a model of dimension 2n."""

    n: int
    entries: dict

    def get(self, i: int, k: int, d: int) -> int:
        return self.entries.get((i, k, d), 0)

    def support(self):
        return sorted(self.entries, key=lambda t: (t[2], t[1], t[0]))

    def total(self) -> int:
        return sum(self.entries.values())

    def slice(self, d: int) -> dict:
        return {(i, k): h for (i, k, dd), h in self.entries.items() if dd == d}

    def to_json_dict(self) -> dict:
        entries = [
            {"i": i, "k": k, "d": d, "h": self.entries[(i, k, d)]}
            for (i, k, d) in self.support()
        ]
        return {"n": self.n, "entries": entries}

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PerverseHodgeCube":
        if not isinstance(doc, dict) or set(doc) != {"n", "entries"}:
            raise ValueError("cube document must have exactly the fields 'n' and 'entries'")
        n = doc["n"]
        # JSON true/false are ints to Python; the cap keeps an ASCII render,
        # which grows as n^3, at desk scale
        if type(n) is not int or not 0 <= n <= CUBE_MAX_N:
            raise ValueError(f"cube field 'n' must be an integer from 0 to {CUBE_MAX_N}")
        if not isinstance(doc["entries"], list):
            raise ValueError("cube field 'entries' must be a list")
        entries = {}
        for rec in doc["entries"]:
            if not isinstance(rec, dict) or set(rec) != {"i", "k", "d", "h"}:
                raise ValueError(f"bad cube entry: {rec}")
            i, k, d, h = rec["i"], rec["k"], rec["d"], rec["h"]
            if not all(type(x) is int for x in (i, k, d, h)):
                raise ValueError(f"cube entry fields must be integers: {rec}")
            if h < 0:
                raise ValueError(f"negative cube entry: {rec}")
            if not 0 <= d <= 2 * n or max(abs(i), abs(k)) > 2 * n:
                raise ValueError(f"cube entry outside 0 <= d <= {2 * n}, |i|, |k| <= {2 * n}: {rec}")
            if h:
                entries[(i, k, d)] = h
        return cls(n=n, entries=entries)


def cube(model: GradedAlgebraModel, perv: PerverseFiltration | None = None, check: bool = True) -> PerverseHodgeCube:
    """Assemble h^{i,k,d} = dim jump of P_{d+k} in the (d+i, d-i) part.

    With check=True the bookkeeping identities are re-verified: every
    chain step bigraded, row sums equal to perverse graded dimensions,
    and the grand total equal to the model dimension.
    """
    n = model.n
    if perv is None:
        perv = perverse_filtration(model)
    entries = {}
    hodge_p = [p for d in range(model.pieces) for p, _ in model.bidegrees[d]]
    for d in range(model.pieces):
        m = 2 * d
        lo, hi = perv.graded.ranges[m]
        ps = [p for p in range(max(0, m - 2 * n), min(m, 2 * n) + 1) if model.bidegree_coords(d, p)]
        prev_dims = {p: 0 for p in ps}
        for j in range(lo, hi + 1):
            step = perv.graded.steps[m][j]
            # the step lies in piece d, where the Hodge index p fixes the bidegree
            if check and not step.is_graded(hodge_p):
                raise ModelError(f"filtration step is not bigraded at {(m, j)}")
            row_total = 0
            for p in ps:
                cut = _restrict_to_coords(step, model.bidegree_coords(d, p))
                h = cut.dim - prev_dims[p]
                prev_dims[p] = cut.dim
                if h < 0:
                    raise ModelError(f"negative cube entry at degree {m}, step {j}, p = {p}")
                row_total += h
                if h:
                    entries[(p - d, j - d, d)] = h
            if check:
                graded = perv.graded.graded_dims(m)[j - lo]
                if row_total != graded:
                    raise ModelError(
                        f"bigraded slices of Gr_{j} H^{m} sum to {row_total}, expected {graded}"
                    )
    out = PerverseHodgeCube(n=n, entries=entries)
    if check and out.total() != model.total_dim:
        raise ModelError(f"cube total {out.total()} != model dimension {model.total_dim}")
    return out


def diamond_and_betti(c: PerverseHodgeCube):
    """Recover (hodge numbers, Betti numbers) by summing cube rows.

    hodge maps (p, q) -> h^{p,q} (even total degree only; the models carry
    no odd cohomology); betti is the list b_0..b_{4n} with zero odd part.
    """
    hodge = {}
    betti = [0] * (4 * c.n + 1)
    for (i, k, d), h in c.entries.items():
        p, q = d + i, d - i
        hodge[(p, q)] = hodge.get((p, q), 0) + h
        betti[2 * d] += h
    return hodge, betti
