"""Hodge and perverse filtrations of a model, and the 3D table h^{i,k,d}.

Both filtrations are renumbered views of centered weight filtrations of
cup products with degree-2 classes.  A cup product raises the degree by
exactly 2, so both are computed one degree piece H^{2d} at a time and
held in the local coordinates of each piece:

* the Hodge side comes from cup product with the anti-symplectic class
  sigma-bar, and must reproduce the bigrading formula
  W_k ∩ H^{2d} = (+) over q >= 2n-k of H^{p,q} -- this is re-checked
  exactly;

* the perverse side comes from cup product with the isotropic (1,1)
  class beta, renumbered per degree as P_j H^{2d} = W_{j-2d+2n} ∩ H^{2d}.

The cube entry h^{i,k,d} is the dimension jump of P_{d+k} inside the
(d+i, d-i) bigraded part of H^{2d}.  A subspace is bigraded exactly when
each of its canonical RREF rows has a single bidegree, so for a bigraded
step that dimension is the number of its pivots with Hodge index d+i.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .filtration import NilpotentOperator, WeightFiltration, weight_filtration
from .linalg import Subspace
from .models import GradedAlgebraModel, ModelError, lefschetz

__all__ = [
    "PerverseFiltration",
    "PerverseHodgeCube",
    "hodge_item1_comparison",
    "perverse_filtration",
    "cube",
    "diamond_and_betti",
]


CUBE_MAX_N = 16


@dataclass(frozen=True)
class PerverseFiltration:
    """Perverse chains P_j H^{2d} = W_{j-2d+2n} ∩ H^{2d}, read off the weight
    filtration of L_beta."""

    weight: WeightFiltration
    operator: NilpotentOperator

    def step(self, j: int, d: int) -> Subspace:
        """P_j H^{2d} in the local coordinates of piece d."""
        return self.weight.step(j - 2 * d + 2 * self.weight.center, d)


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
    mismatches = []
    split_dims = dict.fromkeys(range(0, 2 * n + 1), 0)
    for d in range(model.pieces):
        for k in range(0, 2 * n + 1):
            expected = Subspace.coordinates(
                model.dims[d], [c for c, (_, q) in enumerate(model.bidegrees[d]) if q >= 2 * n - k]
            )
            if wf.step(k, d) != expected:
                mismatches.append((2 * d, k))
            split_dims[k] += expected.dim
    # the dimension of W_k, summed over the pieces, against the bigrading count
    for k in range(0, 2 * n + 1):
        total = sum(wf.step(k, d).dim for d in range(model.pieces))
        if total != split_dims[k]:
            mismatches.append(("total", k, total, split_dims[k]))
    return wf, mismatches


def perverse_filtration(model: GradedAlgebraModel) -> PerverseFiltration:
    """Perverse chains P_j H^{2d} = W^beta_{j-2d+2n} ∩ H^{2d}."""
    n = model.n
    op = lefschetz(model, model.classes.beta)
    if op.index != n:
        raise ModelError(
            f"nilpotency index of L_beta is {op.index}, expected n = {n}; "
            "beta does not behave as a nonzero isotropic (1,1) class"
        )
    return PerverseFiltration(weight=weight_filtration(op, n), operator=op)


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


def cube(model: GradedAlgebraModel, perv: PerverseFiltration | None = None) -> PerverseHodgeCube:
    """Assemble h^{i,k,d} = dim jump of P_{d+k} in the (d+i, d-i) part.

    Every chain step must be bigraded.  Its canonical RREF rows then each
    have one bidegree, so its (p, 2d-p) part has dimension the number of
    its pivots with Hodge index p.  No entry may be negative, and the
    grand total must equal the model dimension.
    """
    n = model.n
    if perv is None:
        perv = perverse_filtration(model)
    entries = {}
    for d in range(model.pieces):
        m = 2 * d
        hodge_p = [p for p, _ in model.bidegrees[d]]
        prev = Counter()
        for j in range(m - 2 * n, m + 1):
            step = perv.step(j, d)
            if not step.is_graded(hodge_p):
                raise ModelError(f"filtration step is not bigraded at {(m, j)}")
            counts = Counter(hodge_p[c] for c in step.pivots)
            for p in sorted(set(hodge_p)):
                h = counts[p] - prev[p]
                if h < 0:
                    raise ModelError(f"negative cube entry at degree {m}, step {j}, p = {p}")
                if h:
                    entries[(p - d, j - d, d)] = h
            prev = counts
    out = PerverseHodgeCube(n=n, entries=entries)
    if out.total() != model.total_dim:
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
