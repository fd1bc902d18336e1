"""Graded Frobenius-algebra models of hyperkahler-type cohomology.

One construction serves every spec.  ``build_model`` builds the
subalgebra generated by degree 2 in half complex dimension n: degree 2d
is Sym^d(H^2) for d <= n and the quotient of Sym^d(H^2) by the kernel K_d
of the top-degree pairing for d > n.  The pairing is the perfect-matching
sum ``int x_1...x_{2n} = sum over matchings M of prod_{(a,b) in M} q(x_a, x_b)``
(Fujiki constant normalized to 1; rescaling it moves no kernel and hence
no dimension below).  A K3 surface is the case n = 1: degrees (0, 2, 4)
with dims (1, b2, 1) and int e_i e_j = q(e_i, e_j).  Each quotient piece
is read off the RREF of the pairing map Sym^d -> (Sym^{2n-d})^*, so K_d
is never formed (``_quotient_piece``).

Everything is exact: complex conjugation is modeled as the basis
involution swapping the sigma and sigma-bar tags, which is enough for
every dimension count downstream.  ``conj[d]`` holds it on piece d as
sparse columns {t: {r: value}}, the image of basis vector t, in the form
of ``_Piece.proj``.

The structure constants are stored sparse: ``mult[(a, b)]`` maps a pair
(i, j) of basis indices of pieces a and b to the product e_i * e_j as
{k: value} over the basis of piece a+b, and holds only the nonzero
constants.  One product over the nonzeros (``_product``, on the sparse
column application ``linalg._combine``) serves ``cup``, the Lefschetz
blocks and the checks in ``validate``; the Poincare pairings read their
constants off ``mult`` directly.

Cup product with a degree-2 class raises the degree by exactly 2, so
``lefschetz`` hands its blocks H^{2d} -> H^{2d+2} to ``NilpotentOperator``
and the filtrations are computed one piece at a time;
``lefschetz_matrix`` gives the same entries as one sparse operator
{(row, col): entry} on the total space for the sl2 and Lie layer and the
commutator checks.
"""

from __future__ import annotations

import itertools
import re
import time
from fractions import Fraction
from operator import add
from typing import NamedTuple

from .filtration import NilpotentOperator
from .linalg import MatrixQ, _combine, _frac, _integer_row, _span_of
from .report import CheckReport

__all__ = [
    "SpecError",
    "ModelError",
    "QuadraticSpace",
    "DistinguishedClasses",
    "ModelSpec",
    "GradedAlgebraModel",
    "default_gram",
    "build_model",
    "lefschetz",
    "validate",
    "matching_integral",
    "monomials",
    "monomial_bidegree",
]


class SpecError(ValueError):
    """Malformed model spec document (schema/type level)."""


class ModelError(ValueError):
    """Spec parsed but the requested model is invalid or out of scale."""


# ---------------------------------------------------------------------------
# quadratic space on degree 2
# ---------------------------------------------------------------------------


def default_gram(b2: int) -> list:
    """Two hyperbolic pairs (sigma, sigma-bar) and (beta, beta-dual), then a
    diagonal tail: (+1, -1 x 17) for b2 = 22, all -1 otherwise.  Returned
    as rows of int entries."""
    g = [[0] * b2 for _ in range(b2)]
    g[0][1] = g[1][0] = g[2][3] = g[3][2] = 1
    for i in range(4, b2):
        g[i][i] = 1 if (b2, i) == (22, 4) else -1
    return g


class QuadraticSpace:
    """Degree-2 coordinate space with its pairing and Hodge tags."""

    __slots__ = ("b2", "gram", "labels", "_entries")

    def __init__(self, b2: int, gram, labels):
        self.b2 = b2
        self.gram = gram  # rows of exact entries
        self.labels = tuple(labels)
        if len(gram) != b2 or any(len(row) != b2 for row in gram):
            raise ModelError(f"gram must be {b2}x{b2}")
        if self.labels.count("sigma") != 1 or self.labels.count("sigma_bar") != 1:
            raise ModelError("exactly one basis vector must carry each of sigma, sigma_bar")
        for i in range(b2):
            for j in range(i, b2):
                if gram[i][j] != gram[j][i]:
                    raise ModelError("gram is not symmetric")
        if MatrixQ(gram).rank() != b2:
            raise ModelError("gram is degenerate")
        self._entries = [(i, j, g) for i, row in enumerate(gram) for j, g in enumerate(row) if g]
        s, sb = self.sigma_index, self.sigma_bar_index
        if gram[s][s] != 0 or gram[sb][sb] != 0:
            raise ModelError("sigma and sigma_bar must be isotropic")
        if gram[s][sb] == 0:
            raise ModelError("q(sigma, sigma_bar) must be nonzero")

    @property
    def sigma_index(self) -> int:
        return self.labels.index("sigma")

    @property
    def sigma_bar_index(self) -> int:
        return self.labels.index("sigma_bar")

    def pair(self, x, y) -> int | Fraction:
        """q(x, y) = Σ x_i g_ij y_j over the nonzero gram entries g_ij."""
        x, y = tuple(x), tuple(y)
        return _frac(sum(x[i] * g * y[j] for i, j, g in self._entries))

    def bidegree(self, i: int):
        return {"sigma": (2, 0), "sigma_bar": (0, 2)}.get(self.labels[i], (1, 1))


class DistinguishedClasses(NamedTuple):
    """Coordinates (in the degree-2 basis) of sigma, sigma-bar, beta, omega,
    as tuples of exact entries."""

    sigma: tuple
    sigma_bar: tuple
    beta: tuple
    omega: tuple

    def as_rows(self):
        return [self.sigma, self.sigma_bar, self.beta, self.omega]


def _default_classes(b2: int) -> DistinguishedClasses:
    def e(*idx):
        return tuple(int(i in idx) for i in range(b2))

    return DistinguishedClasses(sigma=e(0), sigma_bar=e(1), beta=e(2), omega=e(2, 3))


# ---------------------------------------------------------------------------
# model spec (JSON surface)
# ---------------------------------------------------------------------------

_SPEC_KEYS = {"kind", "n", "b2", "gram"}
# no exponent: as a string, "9e999999" would be a million-digit integer
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _rational(x) -> int | Fraction:
    """A gram entry, in canonical form: a JSON integer (not true or false),
    or a string "p" or "p/q" of an optional sign and decimal digits."""
    if type(x) is int or (isinstance(x, str) and _RATIONAL.fullmatch(x)):
        try:
            return _frac(x)
        except (ValueError, ZeroDivisionError):  # p/0, or past the digit limit
            pass
    raise SpecError(f"not a rational: {x!r}")


class ModelSpec(NamedTuple):
    kind: str
    n: int
    b2: int
    gram: list | None = None  # rows of exact entries

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModelSpec":
        if not isinstance(doc, dict):
            raise SpecError("spec document must be a JSON object")
        unknown = set(doc) - _SPEC_KEYS
        if unknown:
            raise SpecError(f"unknown spec fields: {sorted(unknown)}")
        kind = doc.get("kind")
        if kind not in ("k3", "verbitsky"):
            raise SpecError("spec field 'kind' must be 'k3' or 'verbitsky'")
        n = doc.get("n", 1 if kind == "k3" else None)
        if n is None:
            raise SpecError("spec field 'n' is required for verbitsky models")
        if type(n) is not int:  # JSON true/false are ints to Python
            raise SpecError("spec field 'n' must be an integer")
        b2 = doc.get("b2", 22 if kind == "k3" else None)
        if b2 is None:
            raise SpecError("spec field 'b2' is required for verbitsky models")
        if type(b2) is not int:
            raise SpecError("spec field 'b2' must be an integer")
        gram = None
        if "gram" in doc:
            raw = doc["gram"]
            if not isinstance(raw, list) or not raw or any(not isinstance(r, list) for r in raw):
                raise SpecError("spec field 'gram' must be a matrix of rational strings")
            gram = []
            for row in raw:
                if len(row) != len(raw[0]):
                    raise SpecError("gram rows have unequal lengths")
                gram.append([_rational(x) for x in row])
        return cls(kind=kind, n=n, b2=b2, gram=gram)

    def validate_scale(self) -> None:
        if self.b2 == 4:
            raise ModelError(
                "b2 = 4 is rejected: with four degree-2 directions the special orthogonal "
                "group of (H^2, q) need not act transitively on isotropic classes, so the "
                "symmetry guarantees used by the checks fail"
            )
        if self.b2 < 5:
            raise ModelError(f"b2 must be at least 5, got {self.b2}")
        if self.kind == "k3":
            if self.n != 1:
                raise ModelError("k3 models have n = 1")
            if self.b2 > 22:
                raise ModelError(f"k3 models support b2 <= 22, got b2 = {self.b2}")
        else:
            if not 1 <= self.n <= 3:
                raise ModelError(f"verbitsky models support 1 <= n <= 3, got n = {self.n}")
            cap = 22 if self.n == 1 else 8
            if self.b2 > cap:
                raise ModelError(
                    f"verbitsky models support b2 <= {cap} at n = {self.n}, got b2 = {self.b2}"
                )
        if self.gram is not None and (
            len(self.gram) != self.b2 or any(len(row) != self.b2 for row in self.gram)
        ):
            raise ModelError(f"gram must be {self.b2}x{self.b2}")


# ---------------------------------------------------------------------------
# symmetric-power combinatorics
# ---------------------------------------------------------------------------


def monomials(b2: int, d: int):
    """Exponent tuples of the degree-d monomial basis of Sym^d(Q^b2).

    Ordered by the sorted variable-index tuples from
    itertools.combinations_with_replacement, which is deterministic.
    """
    out = []
    for comb in itertools.combinations_with_replacement(range(b2), d):
        exp = [0] * b2
        for i in comb:
            exp[i] += 1
        out.append(tuple(exp))
    return out


def _expand(exp) -> list:
    idxs = []
    for i, e in enumerate(exp):
        idxs.extend([i] * e)
    return idxs


def monomial_bidegree(exp):
    """Hodge bidegree of a monomial: sigma counts (2,0), sigma-bar (0,2),
    every other variable (1,1); indices 0 and 1 are sigma and sigma-bar."""
    rest = sum(exp[2:])
    return (2 * exp[0] + rest, 2 * exp[1] + rest)


def matching_integral(gram, indices) -> int | Fraction:
    """Sum over perfect matchings of prod q(x_a, x_b) for the given factor
    list; zero for an odd number of factors, and an int for an int gram.
    The first factor is matched with each later one it pairs with nonzero,
    and the rest recursively."""
    if len(indices) % 2:
        return 0
    if not indices:
        return 1
    first, rest = indices[0], indices[1:]
    total = 0
    for i, other in enumerate(rest):
        g = gram[first][other]
        if g:
            total += g * matching_integral(gram, rest[:i] + rest[i + 1 :])
    return total


# ---------------------------------------------------------------------------
# sparse structure constants
# ---------------------------------------------------------------------------


def _sparse(v) -> dict:
    """Nonzero entries of a coordinate vector as {index: value}."""
    return {i: x for i, x in enumerate(v) if x}


def _product(t, u: dict, v: dict) -> dict:
    """u * v for sparse vectors under the sparse structure tensor t."""
    return _combine(t, {(i, j): x * y for i, x in u.items() for j, y in v.items()})


# ---------------------------------------------------------------------------
# the model object
# ---------------------------------------------------------------------------


class GradedAlgebraModel:
    """Graded commutative algebra with bigrading tags and marked classes.

    Degrees are the even numbers 0, 2, ..., 4n; piece d holds degree 2d.
    ``mult[(a, b)]`` is the sparse structure tensor of piece a times piece
    b with values in piece a+b (absent above the top degree).  All data is
    exact and immutable after construction.

    ``validation`` is the ``validate`` report that ``build_model`` produced;
    it is None for a model built any other way, including a
    ``rescale_classes`` copy, so such a model is validated afresh.
    """

    def __init__(
        self, kind, n, quad, dims, bidegrees, mult, integral_vec, classes, conj, quotients
    ):
        self.kind = kind
        self.n = n
        self.quad = quad
        self.dims = dims  # list, piece d -> dimension
        self.bidegrees = bidegrees  # list of lists of (p, q)
        self.mult = mult  # {(a, b): {(i, j): {k: value}}}, nonzero constants only
        self.integral_vec = integral_vec  # functional on the top piece
        self.classes = classes
        self.conj = conj  # per piece d, sparse columns {t: {r: value}}
        self.quotients = quotients  # list of _Piece, piece d
        self.validation = None
        self.pieces = 2 * n + 1
        self.offsets = [0]
        for d in range(self.pieces):
            self.offsets.append(self.offsets[-1] + dims[d])
        self.total_dim = self.offsets[-1]

    # -- algebra operations ---------------------------------------------------

    def cup(self, da: int, va, db: int, vb):
        """Product of a piece-da vector with a piece-db vector; None above
        the top degree."""
        if da + db >= self.pieces:
            return None
        out = [0] * self.dims[da + db]
        for k, x in _product(self.mult[(da, db)], _sparse(va), _sparse(vb)).items():
            out[k] = x
        return out

    def integral(self, v_top) -> int | Fraction:
        return _frac(sum(x * y for x, y in zip(v_top, self.integral_vec)))

    def q(self, x, y) -> int | Fraction:
        return self.quad.pair(x, y)

    def _lefschetz_entries(self, x, d: int) -> dict:
        """Cup product with a degree-2 class x from H^{2d} to H^{2d+2}, as
        its nonzero entries {(row, col): entry} in the local coordinates."""
        xs, t = _sparse(x), self.mult[(1, d)]
        return {(k, j): y for j in range(self.dims[d]) for k, y in _product(t, xs, {j: 1}).items()}

    def _lefschetz_blocks(self, x) -> list:
        """Cup product with a degree-2 class x, as its blocks H^{2d} -> H^{2d+2}."""
        out = []
        for d in range(self.pieces - 1):
            rows = [[0] * self.dims[d] for _ in range(self.dims[d + 1])]
            for (k, j), y in self._lefschetz_entries(x, d).items():
                rows[k][j] = y
            out.append(MatrixQ.from_rows(rows, self.dims[d]))
        return out

    def lefschetz_matrix(self, x) -> dict:
        """Cup product with a degree-2 class x as a sparse operator
        {(row, col): entry} on the total space, its blocks
        H^{2d} -> H^{2d+2} placed below the diagonal."""
        off = self.offsets
        return {
            (off[d + 1] + k, off[d] + j): y
            for d in range(self.pieces - 1)
            for (k, j), y in self._lefschetz_entries(x, d).items()
        }

    # -- gradings -------------------------------------------------------------

    def degree_diag(self):
        """Eigenvalue m - 2n on the degree-m piece."""
        return tuple(2 * d - 2 * self.n for d in range(self.pieces) for _ in range(self.dims[d]))

    def hodge_q_diag(self):
        """Eigenvalue q - n on a (p, q) basis vector."""
        return tuple(
            pq[1] - self.n for d in range(self.pieces) for pq in self.bidegrees[d]
        )

    def pq_difference_diag(self):
        return tuple(pq[0] - pq[1] for d in range(self.pieces) for pq in self.bidegrees[d])

    # -- distinguished-class surgery -------------------------------------------

    def rescale_classes(self, beta_scale=1, sigma_scale=1) -> "GradedAlgebraModel":
        """Copy of the model with beta scaled by beta_scale and the
        symplectic pair sigma, sigma-bar jointly scaled by sigma_scale
        (joint so that conj still swaps them exactly)."""
        b = _frac(beta_scale)
        s = _frac(sigma_scale)
        if b == 0 or s == 0:
            raise ModelError("class rescalings must be nonzero")
        c = self.classes
        cls = DistinguishedClasses(
            sigma=tuple(_frac(x * s) for x in c.sigma),
            sigma_bar=tuple(_frac(x * s) for x in c.sigma_bar),
            beta=tuple(_frac(x * b) for x in c.beta),
            omega=c.omega,
        )
        clone = object.__new__(GradedAlgebraModel)
        clone.__dict__.update(self.__dict__)
        clone.classes = cls
        clone.validation = None
        return clone


def lefschetz(model: GradedAlgebraModel, x) -> NilpotentOperator:
    """Cup product with a degree-2 class as a validated nilpotent operator,
    held as its blocks H^{2d} -> H^{2d+2}."""
    return NilpotentOperator(model._lefschetz_blocks(x), model.dims)


# ---------------------------------------------------------------------------
# the builder
# ---------------------------------------------------------------------------


def _quad_from_spec(spec: ModelSpec) -> QuadraticSpace:
    gram = default_gram(spec.b2) if spec.gram is None else [[_frac(x) for x in r] for r in spec.gram]
    labels = ["sigma", "sigma_bar"] + ["hodge11"] * (spec.b2 - 2)
    return QuadraticSpace(spec.b2, gram, labels)


def _check_classes(quad: QuadraticSpace, classes: DistinguishedClasses) -> list:
    """Invariant violations of the distinguished classes, as witness strings."""
    bad = []
    q = quad.pair
    if q(classes.beta, classes.beta) != 0:
        bad.append("q(beta, beta) != 0")
    s, sb = quad.sigma_index, quad.sigma_bar_index
    if classes.beta[s] != 0 or classes.beta[sb] != 0:
        bad.append("beta is not of type (1,1)")
    if q(classes.omega, classes.omega) == 0:
        bad.append("q(omega, omega) == 0")
    if q(classes.beta, classes.omega) == 0:
        bad.append("q(beta, omega) == 0")
    if q(classes.sigma, classes.sigma_bar) == 0:
        bad.append("q(sigma, sigma_bar) == 0")
    if MatrixQ(classes.as_rows()).rank() != 4:
        bad.append("sigma, sigma_bar, beta, omega are linearly dependent")
    return bad


def _pairing_matrix(gram, mono_a, mono_b) -> MatrixQ:
    """Matching-sum pairing of the monomials mono_a (rows) with mono_b."""
    rows = []
    for a in mono_a:
        ia = _expand(a)
        rows.append([matching_integral(gram, ia + _expand(b)) for b in mono_b])
    return MatrixQ.from_rows(rows, len(mono_b))


class _Piece:
    """Degree 2d of the model: the monomials of Sym^d with their index, the
    basis monomials of the quotient, and the projection of Sym^d onto them
    as sparse columns {monomial index: {basis index: value}} (a monomial
    without a column lies in the kernel)."""

    def __init__(self, mono, basis_monomials, proj):
        self.mono = mono
        self.idx = {m: c for c, m in enumerate(mono)}
        self.basis_monomials = basis_monomials
        self.proj = proj

    @property
    def dim(self):
        return len(self.basis_monomials)


def _quotient_piece(gram, d: int, mono, dual) -> _Piece:
    """Sym^d modulo the kernel K_d of its pairing with the monomials dual of
    Sym^{2n-d}, read off the RREF of the pairing map Sym^d -> (Sym^{2n-d})^*
    with its columns taken right to left; K_d itself is never formed.

    Monomial c is a pivot exactly when its column is independent of the
    columns to its right, that is, when no vector of K_d has its leading
    entry at c: the pivots are the monomials that the RREF of K_d leaves
    free.  Column c of the RREF writes the pairing of x_c through the pivot
    columns, so it is the projection of x_c onto that basis.
    """
    span = _span_of(map(_integer_row, _pairing_matrix(gram, dual, mono[::-1]).array))
    if span.dim != len(dual):
        raise ModelError(
            f"pairing kernel in degree {2 * d} has codimension {span.dim}, expected {len(dual)}"
        )
    # K_d must be spanned by pure-bidegree vectors, or the quotient
    # bigrading would be meaningless; it is bigraded exactly when its
    # orthogonal complement, the row space of the map, is
    if not span.is_graded([monomial_bidegree(e) for e in reversed(mono)]):
        raise ModelError(f"pairing kernel in degree {2 * d} is not bigraded")
    last = len(mono) - 1
    proj = {}
    # canonical rows come by pivot, right to left in monomial order
    for t, row in enumerate(reversed(span.canonical_rows())):
        for col, x in row.items():
            proj.setdefault(last - col, {})[t] = x
    return _Piece(mono, sorted(last - p for p in span.rows), proj)


_GRAM_CONVENTION = (
    "a custom gram must follow the basis convention: coordinate 0 is sigma, "
    "1 is sigma_bar, 2 is beta, and omega = beta + coordinate 3"
)


def build_model(spec: ModelSpec) -> GradedAlgebraModel:
    """The validated model of a spec: degree 2d is Sym^d(H^2) modulo the
    kernel of the top-degree pairing, and a k3 spec is the case n = 1.
    With a custom gram, every error names the basis convention it is read in."""
    spec.validate_scale()
    try:
        model = _symmetric_power_model(spec)
        _require_valid(model)
    except ModelError as exc:
        if spec.gram is None:
            raise
        raise ModelError(f"{exc}; {_GRAM_CONVENTION}") from None
    return model


def _symmetric_power_model(spec: ModelSpec) -> GradedAlgebraModel:
    """The model of a spec, before validation."""
    quad = _quad_from_spec(spec)
    n, b2 = spec.n, spec.b2
    P = 2 * n + 1
    mono = [monomials(b2, d) for d in range(P)]
    pieces = []
    for d in range(P):
        if d > n:
            pieces.append(_quotient_piece(quad.gram, d, mono[d], mono[2 * n - d]))
        else:
            every = range(len(mono[d]))
            pieces.append(_Piece(mono[d], list(every), {c: {c: 1} for c in every}))

    dims = [p.dim for p in pieces]
    bidegrees = [[monomial_bidegree(p.mono[c]) for c in p.basis_monomials] for p in pieces]

    mult = {}
    for da in range(P):
        for db in range(P - da):
            A, B, C = pieces[da], pieces[db], pieces[da + db]
            t = mult[(da, db)] = {}
            for i, ca in enumerate(A.basis_monomials):
                ea = A.mono[ca]
                for j, cb in enumerate(B.basis_monomials):
                    col = C.proj.get(C.idx[tuple(map(add, ea, B.mono[cb]))])
                    if col:
                        t[(i, j)] = dict(col)

    top = pieces[2 * n]
    if top.dim != 1:
        raise ModelError(f"top piece has dimension {top.dim}, expected 1")
    top_int = matching_integral(quad.gram, _expand(top.mono[top.basis_monomials[0]]))
    if top_int == 0:
        raise ModelError("top-degree integral vanishes; gram is unusable")

    # conjugation swaps the exponents of sigma and sigma-bar, coordinates 0
    # and 1; column t is the projection of the swapped basis monomial
    conj = []
    for piece in pieces:
        c = {}
        for t, cm in enumerate(piece.basis_monomials):
            e = piece.mono[cm]
            col = piece.proj.get(piece.idx[(e[1], e[0]) + e[2:]])
            if col:
                c[t] = dict(col)
        conj.append(c)

    return GradedAlgebraModel(
        kind=spec.kind,
        n=n,
        quad=quad,
        dims=dims,
        bidegrees=bidegrees,
        mult=mult,
        integral_vec=(_frac(top_int),),
        classes=_default_classes(b2),
        conj=conj,
        quotients=pieces,
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _require_valid(model: GradedAlgebraModel) -> None:
    """Keep the validate report on the model, or raise naming each failed
    check with its first witnesses."""
    rep = validate(model)
    if not rep.all_pass:
        failed = "; ".join(
            f"{r.name} ({', '.join(map(str, r.witnesses[:3]))})" if r.witnesses else r.name
            for r in rep.failures()
        )
        raise ModelError(f"model fails validation: {failed}")
    model.validation = rep


def validate(model: GradedAlgebraModel) -> CheckReport:
    """Exact structural checks: ring axioms, Poincare duality, bigradedness,
    conjugation, distinguished classes, and (for quotient models) that the
    pairing kernels form an ideal."""
    rep = CheckReport()
    P = model.pieces
    dims = model.dims
    mult = model.mult

    t0 = time.perf_counter()
    bad = []
    for d in range(P):
        t = mult[(0, d)]
        for j in range(dims[d]):
            prod = _product(t, {0: 1}, {j: 1})
            for k in sorted(prod.keys() | {j}):
                if prod.get(k, 0) != (1 if j == k else 0):
                    bad.append((d, j, k))
    rep.add("algebra_unit", not bad, witnesses=bad[:5], seconds=time.perf_counter() - t0)

    t0 = time.perf_counter()
    bad = []
    for da in range(P):
        for db in range(P - da):
            t_ab, t_ba = mult[(da, db)], mult[(db, da)]
            pairs = t_ab.keys() | {(j, i) for (i, j) in t_ba}
            if any(_product(t_ab, {i: 1}, {j: 1}) != _product(t_ba, {j: 1}, {i: 1}) for i, j in pairs):
                bad.append((2 * da, 2 * db))
    rep.add("algebra_commutative", not bad, witnesses=bad, seconds=time.perf_counter() - t0)

    t0 = time.perf_counter()
    bad = []
    for da in range(1, P):
        for db in range(1, P - da):
            for dc in range(1, P - da - db):
                t_ab, t_ab_c = mult[(da, db)], mult[(da + db, dc)]
                t_bc, t_a_bc = mult[(db, dc)], mult[(da, db + dc)]
                if any(
                    _product(t_ab_c, t_ab.get((i, j), {}), {k: 1})
                    != _product(t_a_bc, {i: 1}, t_bc.get((j, k), {}))
                    for i in range(dims[da])
                    for j in range(dims[db])
                    for k in range(dims[dc])
                ):
                    bad.append((2 * da, 2 * db, 2 * dc))
    rep.add("algebra_associative", not bad, witnesses=bad, seconds=time.perf_counter() - t0)

    t0 = time.perf_counter()
    bad = []
    iv = model.integral_vec
    for d in range(P):
        dd = P - 1 - d
        pairing = [[0] * dims[dd] for _ in range(dims[d])]
        for (i, j), col in mult[(d, dd)].items():
            pairing[i][j] = sum(x * iv[k] for k, x in col.items())
        if dims[d] != dims[dd] or MatrixQ(pairing).rank() != dims[d]:
            bad.append(2 * d)
    rep.add("poincare_nondegenerate", not bad, witnesses=bad, seconds=time.perf_counter() - t0)

    t0 = time.perf_counter()
    bad = []
    for (da, db), t in mult.items():
        for i, j in sorted(t):
            pa, pb = model.bidegrees[da][i], model.bidegrees[db][j]
            want = (pa[0] + pb[0], pa[1] + pb[1])
            for k in sorted(_product(t, {i: 1}, {j: 1})):
                if model.bidegrees[da + db][k] != want:
                    bad.append((2 * da, i, 2 * db, j, k))
    rep.add("mult_bigraded", not bad, witnesses=bad[:5], seconds=time.perf_counter() - t0)

    t0 = time.perf_counter()
    bad = []
    for d in range(P):
        c = model.conj[d]
        if any(_combine(c, _combine(c, {t: 1})) != {t: 1} for t in range(dims[d])):
            bad.append(("involution", 2 * d))
        for t, (p, q) in enumerate(model.bidegrees[d]):
            if any(model.bidegrees[d][r] != (q, p) for r in _combine(c, {t: 1})):
                bad.append(("bidegree_swap", 2 * d, t))
    rep.add("conj_involution", not bad, witnesses=bad[:5], seconds=time.perf_counter() - t0)

    t0 = time.perf_counter()
    bad = []
    for (da, db), t in mult.items():
        ca, cb, cc = model.conj[da], model.conj[db], model.conj[da + db]
        if any(
            _combine(cc, _product(t, {i: 1}, {j: 1})) != _product(t, ca.get(i, {}), cb.get(j, {}))
            for i in range(dims[da])
            for j in range(dims[db])
        ):
            bad.append((2 * da, 2 * db))
    c2 = model.conj[1]
    cls = model.classes
    if _combine(c2, _sparse(cls.sigma)) != _sparse(cls.sigma_bar):
        bad.append("conj(sigma) != sigma_bar")
    if _combine(c2, _sparse(cls.beta)) != _sparse(cls.beta):
        bad.append("conj(beta) != beta")
    if _combine(c2, _sparse(cls.omega)) != _sparse(cls.omega):
        bad.append("conj(omega) != omega")
    rep.add("conj_algebra_map", not bad, witnesses=bad[:5], seconds=time.perf_counter() - t0)

    t0 = time.perf_counter()
    bad = _check_classes(model.quad, model.classes)
    rep.add("distinguished_classes", not bad, witnesses=bad, seconds=time.perf_counter() - t0)

    if model.kind == "verbitsky":
        t0 = time.perf_counter()
        bad = _kernel_ideal_witnesses(model)
        rep.add("verbitsky_kernel_ideal", not bad, witnesses=bad[:5], seconds=time.perf_counter() - t0)
    return rep


def _kernel_ideal_witnesses(model: GradedAlgebraModel) -> list:
    """Probe K_d * Sym^1 ⊆ K_{d+1} on the generator
    x_c - sum_t proj(x_c)_t x_{b_t} of K_d of each non-basis monomial c of
    Sym^d; the r-th of them is row r of the RREF of K_d.  Its product with
    x_v lies in K_{d+1} exactly when it projects to zero, that is, when
    proj(x_c x_v) = sum_t proj(x_c)_t proj(x_{b_t} x_v)."""
    b2 = model.quad.b2
    bad = []
    for d in range(model.n + 1, 2 * model.n):
        piece, up = model.quotients[d], model.quotients[d + 1]
        basis = piece.basis_monomials
        free = set(basis)
        # times[c][v]: index in Sym^{d+1} of the monomial x_c * x_v
        times = [[up.idx[e[:v] + (e[v] + 1,) + e[v + 1 :]] for v in range(b2)] for e in piece.mono]
        others = (c for c in range(len(piece.mono)) if c not in free)
        for r, c in enumerate(others):
            gen = {c: 1, **{basis[t]: -x for t, x in piece.proj.get(c, {}).items()}}
            for v in range(b2):
                if _combine(up.proj, {times[m][v]: x for m, x in gen.items()}):
                    bad.append((2 * d, r, v))
    return bad
