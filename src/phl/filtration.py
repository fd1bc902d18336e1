"""Nilpotent operators and their centered weight filtrations.

The filtration of a nilpotent endomorphism N with nilpotency index l is
the increasing chain

    W_k = sum over i >= 0, j <= 0, i + j = k - l  of  ker N^(i+1) ∩ im N^(-j)

for k = 0..2l.  It is the unique chain with N W_k ⊆ W_{k-2} whose k-th
power induces isomorphisms Gr_{l+k} -> Gr_{l-k}; both properties are
re-checked exactly by verify_weight_axioms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .linalg import (
    MatrixQ,
    Subspace,
    image,
    join,
    kernel,
    map_subspace,
    meet,
)
from .report import CheckReport

__all__ = [
    "NotNilpotentError",
    "NilpotentOperator",
    "WeightFiltration",
    "weight_filtration",
    "verify_weight_axioms",
    "jordan_partition",
]


class NotNilpotentError(ValueError):
    pass


class NilpotentOperator:
    """Square matrix validated to be nilpotent at construction."""

    __slots__ = ("matrix", "index", "_powers")

    def __init__(self, matrix: MatrixQ):
        if not isinstance(matrix, MatrixQ):
            matrix = MatrixQ(matrix)
        if matrix.rows != matrix.cols:
            raise ValueError("nilpotent operator must be square")
        self.matrix = matrix
        n = matrix.rows
        powers = [MatrixQ.identity(n)]
        index = None
        for k in range(1, n + 2):
            powers.append(powers[-1] @ matrix)
            if powers[-1].is_zero():
                index = k - 1
                break
        if index is None:
            raise NotNilpotentError(
                f"operator is not nilpotent: N^{n + 1} has rank {powers[-1].rank()} on a "
                f"{n}-dimensional space"
            )
        self.index = index
        self._powers = powers

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def power(self, k: int) -> MatrixQ:
        """N^k (zero matrix for k past the vanishing power)."""
        if k < len(self._powers):
            return self._powers[k]
        return MatrixQ.zeros(self.dim, self.dim)


@dataclass(frozen=True)
class WeightFiltration:
    """Centered weight filtration W_0 ⊆ ... ⊆ W_{2l} = V."""

    center: int
    chain: tuple  # Subspace values, indices 0..2*center
    graded_dims: tuple

    def step(self, k: int) -> Subspace:
        """W_k with the conventions W_k = 0 for k < 0, = V for k >= 2l."""
        if k < 0:
            return Subspace.zero(self.chain[0].ambient_dim)
        if k >= len(self.chain):
            return self.chain[-1]
        return self.chain[k]


def weight_filtration(n: NilpotentOperator, l: int) -> WeightFiltration:
    """Deligne weight filtration of n centered at its nilpotency index."""
    if l != n.index:
        raise ValueError(f"center {l} does not match nilpotency index {n.index}")
    dim = n.dim
    kernels = {i: kernel(n.power(i)) for i in range(1, l + 2)}
    images = {j: image(n.power(j)) for j in range(0, l + 1)}
    chain = []
    for k in range(0, 2 * l + 1):
        wk = Subspace.zero(dim)
        for i in range(0, l + 1):
            j = k - l - i
            if j > 0 or -j > l:
                continue
            wk = join(wk, meet(kernels[i + 1], images[-j]))
        chain.append(wk)
    dims = [chain[0].dim] + [chain[k].dim - chain[k - 1].dim for k in range(1, len(chain))]
    return WeightFiltration(center=l, chain=tuple(chain), graded_dims=tuple(dims))


def _graded_image_dim(n_op, k, upper, lower_prev):
    """dim of the image of N^k(W_upper) in the quotient by W_{lower-1}."""
    img = map_subspace(n_op.power(k), upper)
    return join(img, lower_prev).dim - lower_prev.dim


def verify_weight_axioms(n: NilpotentOperator, w: WeightFiltration) -> CheckReport:
    """Exact verification of the two characterizing filtration axioms.

    (a) N W_k ⊆ W_{k-2}; (b) N^k induces Gr_{l+k} ≅ Gr_{l-k}, checked by
    dimension counts of images in quotients.  The chain itself (monotone,
    top step full) is checked first.
    """
    report = CheckReport()
    l = w.center
    t0 = time.perf_counter()
    bad_chain = []
    for k in range(1, 2 * l + 1):
        if not w.chain[k].contains_subspace(w.chain[k - 1]):
            bad_chain.append(k)
    if w.chain[-1].dim != n.dim:
        bad_chain.append("top")
    report.add(
        "weight_chain_monotone",
        not bad_chain,
        witnesses=bad_chain,
        seconds=time.perf_counter() - t0,
    )

    t0 = time.perf_counter()
    bad_shift = []
    for k in range(0, 2 * l + 1):
        img = map_subspace(n.matrix, w.step(k))
        if not w.step(k - 2).contains_subspace(img):
            bad_shift.append(k)
    report.add(
        "weight_axiom_shift",
        not bad_shift,
        witnesses=bad_shift,
        seconds=time.perf_counter() - t0,
    )

    t0 = time.perf_counter()
    bad_iso = []
    for k in range(0, l + 1):
        up, up_prev = w.step(l + k), w.step(l + k - 1)
        lo, lo_prev = w.step(l - k), w.step(l - k - 1)
        target = up.dim - up_prev.dim
        if target != lo.dim - lo_prev.dim:
            bad_iso.append((k, "graded dims differ"))
            continue
        # rank of the induced map Gr_{l+k} -> Gr_{l-k}
        rank = _graded_image_dim(n, k, up, join(map_subspace(n.power(k), up_prev), lo_prev))
        if rank != target:
            bad_iso.append((k, f"induced rank {rank} != {target}"))
    report.add(
        "weight_axiom_graded_iso",
        not bad_iso,
        witnesses=bad_iso,
        seconds=time.perf_counter() - t0,
    )
    return report


def jordan_partition(n: NilpotentOperator):
    """Multiset of Jordan block sizes, recovered from ranks of powers.

    The count of blocks of size >= s is rank(N^(s-1)) - rank(N^s).
    """
    ranks = [n.power(k).rank() for k in range(0, n.index + 2)]
    parts = []
    for s in range(1, n.index + 2):
        at_least_s = ranks[s - 1] - ranks[s]
        at_least_s1 = ranks[s] - ranks[s + 1] if s + 1 < len(ranks) else 0
        parts.extend([s] * (at_least_s - at_least_s1))
    parts.sort(reverse=True)
    assert sum(parts) == n.dim
    return tuple(parts)
