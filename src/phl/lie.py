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

from .filtration import NilpotentOperator, NotNilpotentError
from .linalg import (
    DimensionMismatch,
    MatrixQ,
    SpanReducer,
    _dot,
    _integer_row,
    _matrix,
    _primitive,
    _transpose,
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
        rows = [[Fraction(v) if i == j else 0 for j in range(n)] for i, v in enumerate(self.diag)]
        return MatrixQ.from_rows(rows, n)


def degree_grading(model) -> GradingOperator:
    return GradingOperator("H0_degree", model.degree_diag())


def hodge_q_grading(model) -> GradingOperator:
    return GradingOperator("Hq_hodge", model.hodge_q_diag())


def pq_difference_grading(model) -> GradingOperator:
    return GradingOperator("Hpq_difference", model.pq_difference_diag())


def _sparse(m: MatrixQ) -> dict:
    """Nonzero entries of a matrix as {i*D + j: entry}, row-major, D = m.cols."""
    D = m.cols
    return {i * D + j: x for i, row in enumerate(m.array) for j, x in enumerate(row) if x}


def _dense(v: dict, D: int) -> MatrixQ:
    """The D x D matrix of a sparse operator {i*D + j: entry}."""
    out = [[0] * D for _ in range(D)]
    for key, x in v.items():
        i, j = divmod(key, D)
        out[i][j] = x
    return MatrixQ.from_rows(out, D)


def sl2_complete(L, H: GradingOperator) -> MatrixQ:
    """The unique Λ with [H, Λ] = -2Λ and [L, Λ] = H.

    Works on the grading blocks of L: checks [H, L] = 2L on its nonzero
    entries, checks hard Lefschetz on each restricted power L^k from
    grading -k, builds the primitive strings in local coordinates, inverts
    the string matrix of each grading and forms Λ block by block.
    """
    A = _matrix(L)
    lam = H.diag
    D = A.rows
    if A.cols != D or len(lam) != D:
        raise DimensionMismatch("operator and grading sizes differ")
    coords: dict[int, list] = {}
    for c, v in enumerate(lam):
        coords.setdefault(v, []).append(c)
    local = {c: t for cs in coords.values() for t, c in enumerate(cs)}

    def dim(g):
        return len(coords.get(g, ()))

    def zeros(g, width):  # rows of a zero block with values in grading g
        return [[0] * width for _ in range(dim(g))]

    blocks = {g: zeros(g + 2, len(cs)) for g, cs in coords.items()}
    for key, x in _sparse(A).items():
        i, j = divmod(key, D)
        if lam[i] - lam[j] != 2:
            raise Sl2CompletionError(
                f"[H, L] != 2L: entry ({i}, {j}) connects grading {lam[j]} to {lam[i]}"
            )
        blocks[lam[j]][local[i]][local[j]] = x

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
        w = len(lo)
        powers = [None, block(-k)]  # powers[j] = L^j restricted to grading -k
        for j in range(1, k + 1):
            powers.append(_dot(block(2 * j - k), powers[-1], w))
        if k:
            r = MatrixQ.from_rows(powers[k], w).rank()
            if r != len(lo):
                raise Sl2CompletionError(
                    f"hard Lefschetz fails: L^{k} maps the grading -{k} piece (dim {len(lo)}) "
                    f"to a rank-{r} image in the grading {k} piece; no sl2 partner exists"
                )
        prim = list(kernel(MatrixQ.from_rows(powers[k + 1], w)).grid)
        string = [prim] + [
            _dot(prim, _transpose(powers[j], w), dim(2 * j - k)) for j in range(1, k + 1)
        ]
        for j, vecs in enumerate(string):
            strings[2 * j - k].extend(vecs)
            images[2 * j - k].extend(
                [[x * (j * (k - j + 1)) for x in v] for v in string[j - 1]]
                if j
                else [[0] * dim(-k - 2) for _ in prim]
            )
    spanned = sum(len(vs) for vs in strings.values())
    if spanned != D:
        raise Sl2CompletionError(f"primitive strings span {spanned} of {D} dimensions")

    # Λ from grading g to g - 2 is S_(g-2) C S_g^(-1), with the string and
    # image vectors of grading g as the columns of S_g and S_(g-2) C; its
    # transpose is inverse(S_g^T) times the image vectors as rows.  Then
    # [L, Λ] = H is checked blockwise.
    partner = {
        g: _transpose(
            _dot(inverse(MatrixQ.from_rows(strings[g], len(cs))).array, images[g], dim(g - 2)),
            dim(g - 2),
        )
        for g, cs in coords.items()
    }
    out = [[0] * D for _ in range(D)]
    for g, cs in coords.items():
        n = len(cs)
        up = _dot(block(g - 2), partner[g], n)
        down = _dot(partner.get(g + 2, zeros(g, 0)), block(g), n)
        comm = [[x - y for x, y in zip(ru, rd)] for ru, rd in zip(up, down)]
        if comm != [[g * (r == c) for c in range(n)] for r in range(n)]:
            raise Sl2CompletionError("internal: [L, partner] != H")
        for r, i in enumerate(coords.get(g - 2, ())):
            for c, j in enumerate(cs):
                out[i][j] = partner[g][r][c]
    return MatrixQ.from_rows(out, D)


def _integer_entries(x) -> dict:
    """Nonzero entries of an operator as a primitive integer dict {i*D + j: entry}."""
    return _integer_row(e for row in _matrix(x).array for e in row)


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
    aa, bb = _matrix(a), _matrix(b)
    D = aa.rows
    if (aa.cols, bb.rows, bb.cols) != (D, D, D):
        raise DimensionMismatch("bracket of operators of different sizes")
    return _dense(_bracket(_sparse(aa), *_indexed(_sparse(bb), D), D), D)


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
        return [_dense(row, self.op_dim) for row in self._reducer.canonical_rows()]


def lie_closure(generators) -> LieSubalgebra:
    """Smallest bracket-closed subspace containing the generators.

    New elements are bracketed against the generators only; by the Jacobi
    identity that already saturates the generated subalgebra.  Terminates
    since the dimension is bounded by (ambient dim)^2.
    """
    mats = [_matrix(g) for g in generators]
    if not mats:
        raise ValueError("empty generator list")
    D = mats[0].rows
    for g in mats:
        if (g.rows, g.cols) != (D, D):
            raise DimensionMismatch("generators must be square of equal size")
    gens = [_integer_entries(g) for g in mats]
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
    a = _matrix(x)
    if (a.rows, a.cols) != (algebra.op_dim, algebra.op_dim):
        raise DimensionMismatch(
            f"operator is {(a.rows, a.cols)}, algebra acts on {algebra.op_dim}x{algebra.op_dim}"
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
        tuple(x + y for x, y in zip(c.sigma, c.sigma_bar)),
        tuple(x - y for x, y in zip(c.sigma, c.sigma_bar)),
        c.omega,
        tuple(x + y for x, y in zip(c.beta, c.omega)),
    ]


def lefschetz_spanning_set(model):
    """A deterministic basis of H^2 made of classes with q(x, x) != 0."""
    b2 = model.quad.b2
    found = []
    span = SpanReducer()

    def candidates():
        for i in range(b2):
            yield tuple(int(c == i) for c in range(b2))
        for s in (1, -1, 2):
            for i in range(b2):
                for j in range(i + 1, b2):
                    yield tuple(1 if c == i else s if c == j else 0 for c in range(b2))

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
    q4_ok = MatrixQ([[q(x, y) for y in span4] for x in span4]).rank() == 4
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
