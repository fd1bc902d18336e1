"""Nilpotent operators and their centered weight filtrations.

The filtration of a nilpotent endomorphism N with nilpotency index l is
the increasing chain

    W_k = sum over i >= 0, j <= 0, i + j = k - l  of  ker N^(i+1) ∩ im N^(-j)

for k = 0..2l.  It is the unique chain with N W_k ⊆ W_{k-2} whose k-th
power induces isomorphisms Gr_{l+k} -> Gr_{l-k}; both properties are
re-checked exactly by verify_weight_axioms.

Operators are graded: N sends each piece V_d of V = V_0 ⊕ ... ⊕ V_(r-1)
into V_(d+1), and is stored as those blocks.  Its kernels and images are
then direct sums over the pieces, and so is W_k, so the filtration is
computed, held and checked one piece at a time in the local coordinates
of each piece.  A square matrix is the one-piece case, mapping V_0 into
itself.  Operators and filtrations take the power or step first and the
piece second; the piece may be left out only when there is one.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .linalg import (
    DimensionMismatch,
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


def _only_piece(d, pieces: int) -> int:
    if d is None:
        if pieces != 1:
            raise DimensionMismatch(f"name the piece: the space has {pieces} pieces")
        return 0
    return d


class NilpotentOperator:
    """Graded nilpotent operator, validated at construction.

    The space is V = V_0 ⊕ ... ⊕ V_(r-1) with dims[d] = dim V_d, and blocks[d]
    is the matrix of N from V_d to V_(d+1), for d = 0..r-2, so N raises
    the piece by ``shift`` = 1.  ``NilpotentOperator(m)`` for a square
    matrix m is the one-piece case, with ``shift`` = 0.
    """

    __slots__ = ("dims", "shift", "blocks", "index", "_powers")

    def __init__(self, blocks, dims=None):
        if dims is None:
            m = blocks if isinstance(blocks, MatrixQ) else MatrixQ(blocks)
            if m.rows != m.cols:
                raise ValueError("nilpotent operator must be square")
            self.dims, self.shift, self.blocks = (m.rows,), 0, (m,)
        else:
            self.dims, self.shift, self.blocks = tuple(dims), 1, tuple(blocks)
            if len(self.blocks) != max(len(self.dims) - 1, 0) or any(
                (b.rows, b.cols) != (self.dims[d + 1], self.dims[d]) for d, b in enumerate(self.blocks)
            ):
                raise DimensionMismatch("blocks do not match the piece dimensions")
        # _powers[d][k] is N^k on V_d, up to the last nonzero power; a graded
        # power vanishes once it passes the top piece, so only a square
        # matrix can fail to be nilpotent
        n = self.dim
        self._powers = []
        for d, dim in enumerate(self.dims):
            powers, e = [MatrixQ.identity(dim)], d
            while e + self.shift < len(self.dims):
                nxt = self.blocks[e] @ powers[-1]
                if nxt.is_zero():
                    break
                if len(powers) > n:
                    raise NotNilpotentError(
                        f"operator is not nilpotent: N^{n + 1} has rank {nxt.rank()} on a "
                        f"{n}-dimensional space"
                    )
                powers.append(nxt)
                e += self.shift
            self._powers.append(powers)
        self.index = max((len(p) - 1 for p in self._powers), default=0)

    @property
    def dim(self) -> int:
        return sum(self.dims)

    def power(self, k: int, d: int | None = None) -> MatrixQ:
        """N^k on V_d as the matrix V_d -> V_(d + k*shift); past the last
        nonzero power a zero matrix, with no rows past the top piece."""
        d = _only_piece(d, len(self.dims))
        powers = self._powers[d]
        if k < len(powers):
            return powers[k]
        e = d + k * self.shift
        return MatrixQ.zeros(self.dims[e] if e < len(self.dims) else 0, self.dims[d])


class WeightFiltration(NamedTuple):
    """Centered weight filtration W_0 ⊆ ... ⊆ W_{2l} = V, held per piece:
    chains[d][k] is W_k ∩ V_d in the local coordinates of V_d."""

    center: int
    chains: tuple  # per piece, Subspace values at indices 0..2*center

    def step(self, k: int, d: int | None = None) -> Subspace:
        """W_k ∩ V_d with the conventions W_k = 0 for k < 0, = V for k >= 2l."""
        chain = self.chains[_only_piece(d, len(self.chains))]
        if k < 0:
            return Subspace.zero(chain[0].ambient_dim)
        return chain[min(k, len(chain) - 1)]

    @property
    def graded_dims(self) -> tuple:
        """dim Gr_k = dim W_k - dim W_(k-1) for k = 0..2l, over all pieces."""
        dims = [sum(chain[k].dim for chain in self.chains) for k in range(2 * self.center + 1)]
        return tuple(b - a for a, b in zip([0] + dims, dims))


def weight_filtration(n: NilpotentOperator, l: int) -> WeightFiltration:
    """Deligne weight filtration of n centered at its nilpotency index.

    N is homogeneous, so its kernels and images are direct sums over the
    pieces and W_k ∩ V_d comes from the kernels of N^(i+1) on V_d and the
    images of N^j landing in V_d alone.
    """
    if l != n.index:
        raise ValueError(f"center {l} does not match nilpotency index {n.index}")
    chains = []
    for d, dim in enumerate(n.dims):
        kernels = {i: kernel(n.power(i, d)) for i in range(1, l + 2)}
        images = {
            j: image(n.power(j, d - j * n.shift)) if d >= j * n.shift else Subspace.zero(dim)
            for j in range(0, l + 1)
        }
        chain = []
        for k in range(0, 2 * l + 1):
            wk = Subspace.zero(dim)
            for i in range(0, l + 1):
                j = k - l - i
                if j > 0 or -j > l:
                    continue
                wk = join(wk, meet(kernels[i + 1], images[-j]))
            chain.append(wk)
        chains.append(tuple(chain))
    return WeightFiltration(center=l, chains=tuple(chains))


def verify_weight_axioms(n: NilpotentOperator, w: WeightFiltration) -> CheckReport:
    """Exact verification of the two characterizing filtration axioms.

    (a) N W_k ⊆ W_{k-2}; (b) N^k induces Gr_{l+k} ≅ Gr_{l-k}, checked by
    dimension counts of images in quotients.  The chain itself (monotone,
    top step full) is checked first.  N and the steps are homogeneous, so
    each property is checked block by block: (a) from V_d into V_(d+1),
    and the ranks in (b) are summed over the pieces.  A witness is the k
    of the whole space.
    """
    pieces = tuple(chain[0].ambient_dim for chain in w.chains)
    if pieces != n.dims:
        raise DimensionMismatch(f"filtration pieces {pieces} != operator pieces {n.dims}")
    report = CheckReport()
    l = w.center
    r = len(n.dims)
    t0 = time.perf_counter()
    bad_chain = [
        k
        for k in range(1, 2 * l + 1)
        if not all(chain[k].contains_subspace(chain[k - 1]) for chain in w.chains)
    ]
    if any(chain[-1].dim != dim for chain, dim in zip(w.chains, n.dims)):
        bad_chain.append("top")
    report.add(
        "weight_chain_monotone",
        not bad_chain,
        witnesses=bad_chain,
        seconds=time.perf_counter() - t0,
    )

    t0 = time.perf_counter()
    bad_shift = [
        k
        for k in range(0, 2 * l + 1)
        if not all(
            w.step(k - 2, d + n.shift).contains_subspace(map_subspace(block, w.step(k, d)))
            for d, block in enumerate(n.blocks)
        )
    ]
    report.add(
        "weight_axiom_shift",
        not bad_shift,
        witnesses=bad_shift,
        seconds=time.perf_counter() - t0,
    )

    t0 = time.perf_counter()
    bad_iso = []
    graded = w.graded_dims
    for k in range(0, l + 1):
        target = graded[l + k]
        if target != graded[l - k]:
            bad_iso.append((k, "graded dims differ"))
            continue
        # rank of the induced map Gr_{l+k} -> Gr_{l-k}, from V_d to V_e
        rank = 0
        for d in range(r):
            e = d + k * n.shift
            if e >= r:
                continue
            nk = n.power(k, d)
            below = join(map_subspace(nk, w.step(l + k - 1, d)), w.step(l - k - 1, e))
            rank += join(map_subspace(nk, w.step(l + k, d)), below).dim - below.dim
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
    ranks = [sum(n.power(k, d).rank() for d in range(len(n.dims))) for k in range(0, n.index + 2)]
    parts = []
    for s in range(1, n.index + 2):
        at_least_s = ranks[s - 1] - ranks[s]
        at_least_s1 = ranks[s] - ranks[s + 1] if s + 1 < len(ranks) else 0
        parts.extend([s] * (at_least_s - at_least_s1))
    parts.sort(reverse=True)
    assert sum(parts) == n.dim
    return tuple(parts)
