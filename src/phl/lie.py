"""sl2 completions, bracket closures and the so(6) consistency report.

``sl2_complete`` produces, for a raising operator L and a diagonal grading
H with [H, L] = 2L satisfying hard Lefschetz, the unique lowering partner
with [H, Λ] = -2Λ and [L, Λ] = H.  Both operators are homogeneous, so the
construction runs one grading block at a time: L is sliced into its blocks
from grading g to g+2, the restricted powers L^k from grading -k are
products of those blocks, and the primitives of grading -k are the kernel
of L^(k+1) there.  Over the strings L^j p of a primitive of lowest weight
-k, Λ(L^j p) = j(k-j+1) L^(j-1) p, which gives each block of Λ as
S_(g-2) C S_g^(-1) with S_g the string vectors of grading g.  Uniqueness
is classical sl2 theory; [L, Λ] = H is re-verified exactly on every
diagonal block before returning.

``lie_closure`` span-saturates iterated brackets.  Operators are kept as
sparse primitive integer dicts {i*D + j: entry}, the row-major flattening
of the matrix, and reduced by ``linalg.SpanReducer``, the same exact
elimination that computes every subspace, so independence and membership
decisions are certified, never numerical.  Block products are
``linalg._dot``, the product behind ``MatrixQ @``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .filtration import NilpotentOperator, NotNilpotentError
from .linalg import (
    DimensionMismatch,
    MatrixQ,
    SpanReducer,
    _dot,
    _integer_row,
    _primitive,
    inverse,
    kernel,
)
from .report import CheckReport

__all__ = [
    "Sl2CompletionError",
    "GradingOperator",
    "degree_grading",
    "hodge_q_grading",
    "pq_difference_grading",
    "sl2_complete",
    "LieSubalgebra",
    "lie_closure",
    "membership",
    "bracket",
    "so6_generators",
    "so6_report",
    "lefschetz_spanning_set",
]


class Sl2CompletionError(ValueError):
    pass


@dataclass(frozen=True)
class GradingOperator:
    """Diagonal grading on the total space of a model."""

    kind: str
    diag: tuple

    def matrix(self) -> MatrixQ:
        n = len(self.diag)
        a = np.zeros((n, n), dtype=object)
        for i, v in enumerate(self.diag):
            a[i, i] = Fraction(v)
        return MatrixQ.from_array(a)


def degree_grading(model) -> GradingOperator:
    return GradingOperator("H0_degree", model.degree_diag())


def hodge_q_grading(model) -> GradingOperator:
    return GradingOperator("Hq_hodge", model.hodge_q_diag())


def pq_difference_grading(model) -> GradingOperator:
    return GradingOperator("Hpq_difference", model.pq_difference_diag())


def _as_array(op) -> np.ndarray:
    if isinstance(op, NilpotentOperator):
        return op.matrix.array
    if isinstance(op, MatrixQ):
        return op.array
    return np.asarray(op, dtype=object)


def _sparse(a: np.ndarray) -> dict:
    """Nonzero entries of a square array as {i*D + j: entry}, row-major."""
    D = a.shape[1]
    rows, cols = np.nonzero(a)
    return {i * D + j: a[i, j] for i, j in zip(rows.tolist(), cols.tolist())}


def sl2_complete(L, H: GradingOperator) -> MatrixQ:
    """The unique Λ with [H, Λ] = -2Λ and [L, Λ] = H.

    Works on the grading blocks of L: checks [H, L] = 2L on its nonzero
    entries, checks hard Lefschetz on each restricted power L^k from
    grading -k, builds the primitive strings in local coordinates, inverts
    the string matrix of each grading and forms Λ block by block.
    """
    A = _as_array(L)
    lam = H.diag
    D = A.shape[0]
    if A.shape != (D, D) or len(lam) != D:
        raise DimensionMismatch("operator and grading sizes differ")
    coords: dict[int, list] = {}
    for c, v in enumerate(lam):
        coords.setdefault(v, []).append(c)
    local = {c: t for cs in coords.values() for t, c in enumerate(cs)}

    def zeros(g, width):
        return np.zeros((len(coords.get(g, ())), width), dtype=object)

    blocks = {g: zeros(g + 2, len(cs)) for g, cs in coords.items()}
    for key, x in _sparse(A).items():
        i, j = divmod(key, D)
        if lam[i] - lam[j] != 2:
            raise Sl2CompletionError(
                f"[H, L] != 2L: entry ({i}, {j}) connects grading {lam[j]} to {lam[i]}"
            )
        blocks[lam[j]][local[i], local[j]] = x

    def block(g):  # L from grading g to grading g + 2
        return blocks[g] if g in blocks else zeros(g + 2, 0)

    # strings over primitives: P_k = (grading -k) ∩ ker L^(k+1); per grading
    # g, the string vectors L^j p lying there and their images under Λ
    strings: dict[int, list] = {g: [] for g in coords}
    images: dict[int, list] = {g: [] for g in coords}
    kmax = max((abs(v) for v in lam), default=0)
    for k in range(kmax + 1):
        lo = coords.get(-k, [])
        hi = coords.get(k, [])
        if len(lo) != len(hi):
            raise Sl2CompletionError(
                f"hard Lefschetz fails: grading -{k} has dimension {len(lo)} but "
                f"grading {k} has dimension {len(hi)}"
            )
        if not lo:
            continue
        powers = [None, block(-k)]  # powers[j] = L^j restricted to grading -k
        for j in range(1, k + 1):
            powers.append(_dot(block(2 * j - k), powers[-1]))
        if k:
            r = MatrixQ.from_array(powers[k]).rank()
            if r != len(lo):
                raise Sl2CompletionError(
                    f"hard Lefschetz fails: L^{k} maps the grading -{k} piece (dim {len(lo)}) "
                    f"to a rank-{r} image in the grading {k} piece; no sl2 partner exists"
                )
        prim = kernel(MatrixQ.from_array(powers[k + 1])).basis_array().T
        string = [prim] + [_dot(powers[j], prim) for j in range(1, k + 1)]
        for j, vecs in enumerate(string):
            strings[2 * j - k].append(vecs)
            images[2 * j - k].append(
                string[j - 1] * (j * (k - j + 1)) if j else zeros(-k - 2, prim.shape[1])
            )
    spanned = sum(v.shape[1] for vs in strings.values() for v in vs)
    if spanned != D:
        raise Sl2CompletionError(f"primitive strings span {spanned} of {D} dimensions")

    # Λ from grading g to g - 2 is S_(g-2) C S_g^(-1); then [L, Λ] = H blockwise
    partner = {
        g: _dot(np.hstack(images[g]), inverse(MatrixQ.from_array(np.hstack(strings[g]))).array)
        for g in coords
    }
    out = np.zeros((D, D), dtype=object)
    for g, cs in coords.items():
        comm = _dot(block(g - 2), partner[g]) - _dot(partner.get(g + 2, zeros(g, 0)), block(g))
        if not np.array_equal(comm, g * np.identity(len(cs), dtype=int)):
            raise Sl2CompletionError("internal: [L, partner] != H")
        if g - 2 in coords:
            out[np.ix_(coords[g - 2], cs)] = partner[g]
    return MatrixQ.from_array(out)


def _integer_entries(x) -> dict:
    """Nonzero entries of an operator as a primitive integer dict {i*D + j: entry}."""
    return _integer_row(_as_array(x).ravel())


def _indexed(v: dict, D: int):
    """Entries of a sparse operator grouped by row and by column."""
    by_row, by_col = {}, {}
    for key, x in v.items():
        i, j = divmod(key, D)
        by_row.setdefault(i, []).append((j, x))
        by_col.setdefault(j, []).append((i, x))
    return by_row, by_col


def _bracket(a: dict, b_rows: dict, b_cols: dict, D: int) -> dict:
    """[a, b] = ab - ba with a sparse and b indexed by row and by column."""
    out = {}
    for key, x in a.items():
        r, c = divmod(key, D)
        for j, y in b_rows.get(c, ()):
            k = r * D + j
            out[k] = out.get(k, 0) + x * y
        for i, y in b_cols.get(r, ()):
            k = i * D + c
            out[k] = out.get(k, 0) - x * y
    return {k: x for k, x in out.items() if x}


def bracket(a, b) -> MatrixQ:
    aa, bb = _as_array(a), _as_array(b)
    D = aa.shape[0]
    if aa.shape != (D, D) or bb.shape != (D, D):
        raise DimensionMismatch("bracket of operators of different sizes")
    out = np.zeros((D, D), dtype=object)
    for key, x in _bracket(_sparse(aa), *_indexed(_sparse(bb), D), D).items():
        out[divmod(key, D)] = x
    return MatrixQ.from_array(out)


class LieSubalgebra:
    """Bracket-closed span of operators, held as an exact sparse RREF."""

    def __init__(self, op_dim: int, reducer: SpanReducer):
        self.op_dim = op_dim
        self._reducer = reducer

    @property
    def dim(self) -> int:
        return self._reducer.dim

    def contains_operator(self, x) -> bool:
        return self._reducer.contains(_integer_entries(x))

    def basis_matrices(self):
        out = []
        D = self.op_dim
        for row in self._reducer.canonical_rows():
            a = np.zeros((D, D), dtype=object)
            for c, x in row.items():
                a[c // D, c % D] = x
            out.append(MatrixQ.from_array(a))
        return out


def lie_closure(generators) -> LieSubalgebra:
    """Smallest bracket-closed subspace containing the generators.

    New elements are bracketed against the generators only; by the Jacobi
    identity that already saturates the generated subalgebra.  Terminates
    since the dimension is bounded by (ambient dim)^2.
    """
    arrays = [_as_array(g) for g in generators]
    if not arrays:
        raise ValueError("empty generator list")
    D = arrays[0].shape[0]
    for g in arrays:
        if g.shape != (D, D):
            raise DimensionMismatch("generators must be square of equal size")
    gens = [_integer_entries(g) for g in arrays]
    indexed = [_indexed(g, D) for g in gens]
    reducer = SpanReducer()
    queue = [g for g in gens if reducer.insert(g)]
    while queue:
        a = queue.pop()
        for rows, cols in indexed:
            c = _primitive(_bracket(a, rows, cols, D))
            if reducer.insert(c):
                queue.append(c)
    return LieSubalgebra(D, reducer)


def membership(algebra: LieSubalgebra, x) -> bool:
    """Exact test that x lies in the span of the algebra basis."""
    a = _as_array(x)
    if a.shape != (algebra.op_dim, algebra.op_dim):
        raise DimensionMismatch(
            f"operator is {a.shape}, algebra acts on {algebra.op_dim}x{algebra.op_dim}"
        )
    return algebra.contains_operator(a)


# ---------------------------------------------------------------------------
# model-level reports
# ---------------------------------------------------------------------------


def so6_generators(model):
    """The four Lefschetz classes sigma+sigma_bar, sigma-sigma_bar, omega,
    beta+omega used to generate the rank-3 symmetry algebra."""
    c = model.classes
    return [
        c.sigma + c.sigma_bar,
        c.sigma - c.sigma_bar,
        c.omega,
        c.beta + c.omega,
    ]


def lefschetz_spanning_set(model):
    """A deterministic basis of H^2 made of classes with q(x, x) != 0."""
    b2 = model.quad.b2
    found = []
    span = SpanReducer()

    def candidates():
        for i in range(b2):
            v = np.zeros(b2, dtype=object)
            v[i] = 1
            yield v
        for s in (1, -1, 2):
            for i in range(b2):
                for j in range(i + 1, b2):
                    v = np.zeros(b2, dtype=object)
                    v[i] = 1
                    v[j] = s
                    yield v

    for v in candidates():
        if len(found) == b2:
            break
        if model.q(v, v) == 0:
            continue
        if span.insert({c: int(x) for c, x in enumerate(v) if x}):
            found.append(v)
    if len(found) != b2:
        raise Sl2CompletionError("could not span H^2 by classes of nonzero square")
    return found


def so6_report(model, lam_sigma_bar=None) -> CheckReport:
    """Closure of the four Lefschetz sl2 triples: dimension 15 = dim so(6),
    membership of the distinguished operators, nilpotency of the commutator."""
    import time

    rep = CheckReport()
    q = model.q
    gens = so6_generators(model)

    t0 = time.perf_counter()
    bad = [str(i) for i, x in enumerate(gens) if q(x, x) == 0]
    rep.add(
        "lefschetz_generators_nondegenerate",
        not bad,
        witnesses=bad,
        seconds=time.perf_counter() - t0,
    )

    t0 = time.perf_counter()
    c = model.classes
    span4 = [c.sigma, c.sigma_bar, c.beta, c.omega]
    gram4 = np.empty((4, 4), dtype=object)
    for i in range(4):
        for j in range(4):
            gram4[i, j] = q(span4[i], span4[j])
    q4_ok = MatrixQ.from_array(gram4).rank() == 4
    rep.add("q_restriction_nondegenerate", q4_ok, seconds=time.perf_counter() - t0)
    if bad or not q4_ok:
        return rep

    h0 = degree_grading(model)
    h0_mat = h0.matrix()
    t0 = time.perf_counter()
    ops = []
    for x in gens:
        lx = model.lefschetz_matrix(x)
        ops.append(lx)
        ops.append(sl2_complete(lx, h0))
    ops.append(h0_mat)
    algebra = lie_closure(ops)
    rep.add(
        "so6_dimension",
        algebra.dim == 15,
        witnesses=[] if algebra.dim == 15 else [algebra.dim],
        data={"dim": algebra.dim},
        seconds=time.perf_counter() - t0,
    )

    l_beta = model.lefschetz_matrix(c.beta)
    if lam_sigma_bar is None:
        lam_sigma_bar = sl2_complete(
            model.lefschetz_matrix(c.sigma_bar), hodge_q_grading(model)
        )
    for name, op in (
        ("llv_contains_l_beta", l_beta),
        ("llv_contains_lambda_sigma_bar", lam_sigma_bar),
        ("llv_contains_h_degree", h0_mat),
        ("llv_contains_pq_difference", pq_difference_grading(model).matrix()),
    ):
        t0 = time.perf_counter()
        rep.add(name, membership(algebra, op), seconds=time.perf_counter() - t0)

    t0 = time.perf_counter()
    comm = bracket(l_beta, lam_sigma_bar)
    rep.add("llv_commutator_member", membership(algebra, comm), seconds=time.perf_counter() - t0)
    t0 = time.perf_counter()
    try:
        NilpotentOperator(comm)
        ok = True
    except NotNilpotentError:
        ok = False
    rep.add("llv_commutator_nilpotent", ok, seconds=time.perf_counter() - t0)
    return rep
