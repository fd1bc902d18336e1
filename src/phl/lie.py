"""sl2 completions, bracket closures and the so(6) consistency report.

``sl2_complete`` produces, for a raising operator L and a diagonal grading
H with [H, L] = 2L satisfying hard Lefschetz, the unique lowering partner
with [H, Λ] = -2Λ and [L, Λ] = H.  Both operators are homogeneous, so the
construction runs one grading block at a time: L is sliced into its blocks
from grading g to g+2, the restricted powers L^k from grading -k are
products of those blocks, and the primitives of grading -k are the kernel
of L^(k+1) there.  Over the strings L^j p of a primitive of lowest weight
-k, Λ(L^j p) = j(k-j+1) L^(j-1) p, which gives each block of Λ as
S_(g-2) C S_g^(-1) with S_g the string vectors of grading g.  Λ is unique
(classical sl2 theory), so any basis of the primitives will do; [L, Λ] = H
is re-verified exactly on every diagonal block before returning.

Every operator here is sparse: a dict {(row, col): entry} of its nonzero
exact entries on the total space, carrying no size.  ``lie_closure``
brackets each element found once against each generator not in the span
at its turn; the span then holds this kept set S, is ad(S)-stable and is
made of brackets of S, so it is Lie(S) and holds the skipped generators.
Operators are primitive integer dicts reduced in ``linalg.SpanReducer``,
the same exact elimination that computes every subspace, so keep/skip,
independence and membership decisions are certified, never numerical;
the (row, col) keys sort row-major.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .linalg import (
    DimensionMismatch,
    MatrixQ,
    SpanReducer,
    _dot,
    _integer,
    _integer_row,
    _null_vectors,
    _primitive,
    _span_of,
    _transpose,
    solve,
)
from .report import CheckReport

__all__ = [
    "Sl2CompletionError",
    "GradingOperator",
    "degree_grading",
    "hodge_q_grading",
    "pq_difference_grading",
    "sl2_complete",
    "lie_closure",
    "membership",
    "bracket",
    "so6_generators",
    "so6_report",
    "lefschetz_spanning_set",
]


class Sl2CompletionError(ValueError):
    pass


class GradingOperator(NamedTuple):
    """Diagonal grading on the total space of a model."""

    kind: str
    diag: tuple

    def matrix(self) -> dict:
        """The grading as a sparse operator {(i, i): eigenvalue}."""
        return {(i, i): v for i, v in enumerate(self.diag) if v}


def degree_grading(model) -> GradingOperator:
    return GradingOperator("H0_degree", model.degree_diag())


def hodge_q_grading(model) -> GradingOperator:
    return GradingOperator("Hq_hodge", model.hodge_q_diag())


def pq_difference_grading(model) -> GradingOperator:
    return GradingOperator("Hpq_difference", model.pq_difference_diag())


def sl2_complete(L: dict, H: GradingOperator) -> dict:
    """The unique Λ with [H, Λ] = -2Λ and [L, Λ] = H.

    Works on the grading blocks of L: checks [H, L] = 2L on its nonzero
    entries, checks hard Lefschetz on each restricted power L^k from
    grading -k, builds the primitive strings in local coordinates and
    solves for each block of Λ from the string vectors of its grading.
    """
    lam = H.diag
    D = len(lam)
    coords: dict[int, list] = {}
    for c, v in enumerate(lam):
        coords.setdefault(v, []).append(c)
    local = {c: t for cs in coords.values() for t, c in enumerate(cs)}

    def dim(g):
        return len(coords.get(g, ()))

    def zeros(g, width):  # rows of a zero block with values in grading g
        return [[0] * width for _ in range(dim(g))]

    blocks = {g: zeros(g + 2, len(cs)) for g, cs in coords.items()}
    for (i, j), x in L.items():
        if not (0 <= i < D and 0 <= j < D):
            raise DimensionMismatch(f"operator entry ({i}, {j}) outside a grading of size {D}")
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
        null = _null_vectors(_span_of(map(_integer_row, powers[k + 1])), w)
        prim = [[v.get(c, 0) for c in range(w)] for v in null]
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
    # transpose X solves S_g^T X = images as rows.  [L, Λ] = H is checked below.
    partner = {}
    for g, cs in coords.items():
        xt = solve(MatrixQ.from_rows(strings[g], len(cs)), MatrixQ.from_rows(images[g], dim(g - 2)))
        partner[g] = _transpose(xt.array, dim(g - 2))
    out = {}
    for g, cs in coords.items():
        n = len(cs)
        up = _dot(block(g - 2), partner[g], n)
        down = _dot(partner.get(g + 2, zeros(g, 0)), block(g), n)
        comm = [[x - y for x, y in zip(ru, rd)] for ru, rd in zip(up, down)]
        if comm != [[g * (r == c) for c in range(n)] for r in range(n)]:
            raise Sl2CompletionError("internal: [L, partner] != H")
        for i, row in zip(coords.get(g - 2, ()), partner[g]):
            out.update({(i, j): x for j, x in zip(cs, row) if x})
    return out


def _indexed(v: dict):
    """Entries of a sparse operator grouped by row and by column."""
    by_row, by_col = {}, {}
    for (i, j), x in v.items():
        by_row.setdefault(i, []).append((j, x))
        by_col.setdefault(j, []).append((i, x))
    return by_row, by_col


def _bracket(a: dict, b_rows: dict, b_cols: dict) -> dict:
    """[a, b] = ab - ba with a sparse and b indexed by row and by column."""
    out = {}
    for (r, c), x in a.items():
        for j, y in b_rows.get(c, ()):
            out[(r, j)] = out.get((r, j), 0) + x * y
        for i, y in b_cols.get(r, ()):
            out[(i, c)] = out.get((i, c), 0) - x * y
    return {k: x for k, x in out.items() if x}


def bracket(a: dict, b: dict) -> dict:
    """[a, b] = ab - ba of sparse operators."""
    return _bracket(a, *_indexed(b))


def _nilpotent(a: dict) -> bool:
    """Whether a sparse operator is nilpotent: a acts on the span of the m
    coordinates its entries touch and is zero off it, so the test is a^m = 0,
    by sparse powers."""
    rows, _ = _indexed(a)
    power = a
    for _ in range(len({i for key in a for i in key}) - 1):
        power = _bracket(power, rows, {})  # with no columns of a, the product power·a
    return not power


def lie_closure(generators) -> SpanReducer:
    """Smallest bracket-closed subspace containing the generators, as the
    ``SpanReducer`` of its primitive integer operators.

    Walks the generators in order, skipping for good one the span already
    holds, and brackets each element found once against each kept one.
    The span V then holds the kept set S, is ad(S)-stable and is made of
    brackets of S, so V = Lie(S), which holds the skipped generators too.
    """
    gens = [_integer(g) for g in generators]
    if not gens:
        raise ValueError("empty generator list")
    reducer, elements, kept = SpanReducer(), [], []
    for g in gens:
        if reducer.insert(g):
            elements.append(g)
            kept.append(_indexed(g))
            old = len(elements)  # the elements up to g still have to meet g only
            for i, a in enumerate(elements):  # also visits the elements appended below
                for k in kept[-1:] if i < old else kept:
                    c = _primitive(_bracket(a, *k))
                    if c and reducer.insert(c):
                        elements.append(c)
    return reducer


def membership(algebra: SpanReducer, x: dict) -> bool:
    """Exact test that the operator x lies in the span of the algebra."""
    return algebra.contains(_integer(x))


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
    t0 = time.perf_counter()
    ops = []
    for x in gens:
        lx = model.lefschetz_matrix(x)
        ops.append(lx)
        ops.append(sl2_complete(lx, h0))
    ops.append(h0.matrix())
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
        ("llv_contains_h_degree", h0.matrix()),
        ("llv_contains_pq_difference", pq_difference_grading(model).matrix()),
    ):
        t0 = time.perf_counter()
        rep.add(name, membership(algebra, op), seconds=time.perf_counter() - t0)

    t0 = time.perf_counter()
    comm = bracket(l_beta, lam_sigma_bar)
    rep.add("llv_commutator_member", membership(algebra, comm), seconds=time.perf_counter() - t0)
    t0 = time.perf_counter()
    rep.add("llv_commutator_nilpotent", _nilpotent(comm), seconds=time.perf_counter() - t0)
    return rep
