"""Exact linear algebra over the rationals, on one elimination engine.

Matrices hold their rows as plain Python lists of exact entries, in one
canonical form (``_frac``): an int when integral, else a Fraction, which
compares and hashes as the equal int would.  All arithmetic is exact.
Products multiply nonzero entries only (``_dot``).

Every elimination runs in ``SpanReducer``: rows are scaled to primitive
integer vectors held as sparse dicts, reduced fraction-free by
cross-multiplication and gcd division, and kept fully back-reduced, one
per pivot column, with a positive pivot entry.  Division by the pivots
happens only when the canonical rows are read off.  The RREF is unique
and so is that scaling of its rows, so the rows do not depend on the
order in which they are inserted.  A ``Subspace`` is its reducer: two
subspaces are equal exactly when their reducer rows are, membership
reduces a vector against those rows, and the dense basis ``grid`` is a
view computed from them.  ``lie`` closes operator algebras on the same
reducer.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

__all__ = [
    "DimensionMismatch",
    "MatrixQ",
    "Subspace",
    "SpanReducer",
    "kernel",
    "image",
    "meet",
    "join",
    "map_subspace",
    "solve",
]


class DimensionMismatch(ValueError):
    """Operands live in different ambient spaces."""


def _frac(x) -> int | Fraction:
    """x in canonical form: an int when integral, else a Fraction; bool and float raise."""
    if type(x) is int:
        return x
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return int(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _transpose(rows, cols: int) -> list:
    """Rows of the transpose of a matrix with the given rows and column count."""
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(cols)]


def _primitive(v: dict) -> dict:
    """Sparse integer vector divided by the gcd of its entries."""
    g = 0
    for x in v.values():
        g = math.gcd(g, x if x > 0 else -x)
        if g == 1:
            break
    if g > 1:
        v = {c: x // g for c, x in v.items()}
    return v


def _eliminate(v: dict, row: dict, p: int) -> dict:
    """row[p] * v - v[p] * row, which clears column p of v."""
    c, rp = v[p], row[p]
    out = {col: x * rp for col, x in v.items()}
    for col, x in row.items():
        y = out.get(col, 0) - x * c
        if y:
            out[col] = y
        else:
            out.pop(col, None)
    return out


def _integer(v: dict) -> dict:
    """A sparse rational vector {key: nonzero entry}, with keys of any
    kind, scaled to a primitive integer vector."""
    if any(type(x) is not int for x in v.values()):
        denom = math.lcm(*(x.denominator for x in v.values()))
        v = {c: x.numerator * (denom // x.denominator) for c, x in v.items()}
    return _primitive(v)


def _integer_row(entries) -> dict:
    """Nonzero entries of a rational vector as {index: int}, scaled to a
    primitive integer vector."""
    return _integer({c: x for c, x in enumerate(entries) if x})


class SpanReducer:
    """Incremental exact RREF over sparse integer vectors.

    Rows are primitive integer dicts with a positive pivot entry, fully
    back-reduced, one per pivot column; a vector reduces to the empty dict
    exactly when it lies in the span.  A stored row is never changed in
    place, so reducers may share rows.
    """

    def __init__(self):
        self.rows: dict[int, dict] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, v: dict) -> dict:
        v = {c: x for c, x in v.items() if x}
        # rows are fully back-reduced, so clearing one pivot of v leaves the
        # others untouched and only the pivots v has on entry need clearing
        for p in [p for p in v if p in self.rows]:
            v = _eliminate(v, self.rows[p], p)
        return _primitive(v)

    def insert(self, v: dict) -> bool:
        r = self._reduce(v)
        if not r:
            return False
        piv = min(r)
        if r[piv] < 0:
            r = {c: -x for c, x in r.items()}
        for p, row in list(self.rows.items()):
            if piv in row:
                out = _primitive(_eliminate(row, r, piv))
                if out[p] < 0:
                    out = {col: -x for col, x in out.items()}
                self.rows[p] = out
        self.rows[piv] = r
        return True

    def contains(self, v: dict) -> bool:
        return not self._reduce(v)

    def is_graded(self, labels) -> bool:
        """Whether the span is graded by the labels of the coordinates.  The
        RREF of a graded span is the union of the RREFs of its graded parts,
        so this holds exactly when every row carries one label."""
        return all(len({labels[c] for c in row}) == 1 for row in self.rows.values())

    def canonical_rows(self):
        """RREF rows as {column: entry} dicts in canonical form, unit pivots, by pivot."""
        out = []
        for p in sorted(self.rows):
            row = self.rows[p]
            pv = row[p]
            out.append({c: x // pv if x % pv == 0 else Fraction(x, pv) for c, x in row.items()})
        return out


def _span_of(vectors) -> SpanReducer:
    """A fresh ``SpanReducer`` holding the RREF of the span of the given
    sparse integer vectors."""
    span = SpanReducer()
    for v in vectors:
        span.insert(v)
    return span


def _null_vectors(span: SpanReducer, cols: int) -> list:
    """One integer vector per non-pivot column f < cols of the RREF in span.
    With L the lcm of the pivot entries row[p] of the rows that have an
    entry at f, it is L at f and -row[f] * L / row[p] at each such pivot p.
    They span the null space of the rows."""
    out = []
    for f in range(cols):
        if f in span.rows:
            continue
        hits = [(p, row[p], row[f]) for p, row in span.rows.items() if f in row]
        lcm = math.lcm(*(pv for _, pv, _ in hits))
        out.append({f: lcm, **{p: -x * (lcm // pv) for p, pv, x in hits}})
    return out


def _dot(a, b, cols: int) -> list:
    """a @ b for matrices given by their rows, b with `cols` columns,
    multiplying nonzero entries only."""
    support = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * cols
        for k, x in enumerate(row):
            if x:
                for j, y in support[k]:
                    acc[j] += x * y
        out.append(acc)
    return out


class MatrixQ:
    """Immutable dense matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "_a", "_grid")

    def __init__(self, data):
        a = [[_frac(x) for x in row] for row in data]
        cols = len(a[0]) if a else 0
        if any(len(row) != cols for row in a):
            raise DimensionMismatch("matrix rows of unequal length")
        self._a = a
        self.rows, self.cols = len(a), cols
        self._grid = None

    @classmethod
    def from_rows(cls, rows, cols: int) -> "MatrixQ":
        """Matrix on the given rows of exact entries, taken without copying."""
        m = object.__new__(cls)
        m._a = rows
        m.rows, m.cols = len(rows), cols
        m._grid = None
        return m

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        return cls.from_rows([[int(i == j) for j in range(n)] for i in range(n)], n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "MatrixQ":
        return cls.from_rows([[0] * cols for _ in range(rows)], cols)

    @property
    def array(self):
        """The rows, as sequences of exact entries; treat as read-only."""
        return self._a

    def grid(self):
        if self._grid is None:
            self._grid = tuple(tuple(_frac(x) for x in row) for row in self._a)
        return self._grid

    def transpose(self) -> "MatrixQ":
        return MatrixQ.from_rows(_transpose(self._a, self.cols), self.rows)

    def __matmul__(self, other):
        if not isinstance(other, MatrixQ):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.cols} != {other.rows}")
        return MatrixQ.from_rows(_dot(self._a, other._a, other.cols), other.cols)

    def power(self, k: int) -> "MatrixQ":
        if self.rows != self.cols:
            raise DimensionMismatch("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        out = MatrixQ.identity(self.rows)
        for _ in range(k):
            out = out @ self
        return out

    def apply(self, v) -> tuple:
        """Matrix-vector product m @ v (column-vector convention)."""
        v = tuple(v)
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector of length {len(v)} for {self.cols} columns")
        return tuple(sum(x * y for x, y in zip(row, v) if x) for row in self._a)

    def is_zero(self) -> bool:
        return not any(x for row in self._a for x in row)

    def rank(self) -> int:
        return _span_of(map(_integer_row, self._a)).dim

    def __eq__(self, other):
        if not isinstance(other, MatrixQ):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.grid() == other.grid()

    def __hash__(self):
        return hash(self.grid())

    def __repr__(self):
        return f"MatrixQ({self.rows}x{self.cols})"


def _matrix(m) -> MatrixQ:
    return m if isinstance(m, MatrixQ) else MatrixQ(m)


class Subspace:
    """Rational subspace of Q^ambient_dim, held as the ``SpanReducer`` of
    its RREF.

    The reducer rows are unique, so two Subspace values are equal exactly
    when their rows are; ``grid`` and ``pivots`` are views computed from
    them.  A subspace never inserts into its reducer after construction.
    """

    __slots__ = ("ambient_dim", "reducer", "_constraints")

    def __init__(self, ambient_dim: int, reducer: SpanReducer):
        self.ambient_dim = ambient_dim
        self.reducer = reducer
        self._constraints = None

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, SpanReducer())

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls.coordinates(n, range(n))

    @classmethod
    def coordinates(cls, n: int, coords) -> "Subspace":
        """Span of the standard basis vectors e_c, c in coords, of Q^n."""
        span = SpanReducer()
        span.rows = {c: {c: 1} for c in coords}  # already an RREF
        return cls(n, span)

    @classmethod
    def span(cls, vectors, ambient_dim: int | None = None) -> "Subspace":
        """Canonical subspace spanned by the given row vectors."""
        m = _matrix(vectors)
        if m.rows == 0:
            if ambient_dim is None:
                raise ValueError("ambient_dim required for an empty span")
            return cls.zero(ambient_dim)
        return cls(m.cols, _span_of(map(_integer_row, m.array)))

    @property
    def dim(self) -> int:
        return self.reducer.dim

    @property
    def pivots(self) -> tuple:
        """The pivot columns of the RREF, increasing."""
        return tuple(sorted(self.reducer.rows))

    @property
    def grid(self) -> tuple:
        """The RREF basis as dense rows of canonical entries, unit pivots, by pivot."""
        out = []
        for row in self.reducer.canonical_rows():
            full = [0] * self.ambient_dim
            for c, x in row.items():
                full[c] = x
            out.append(tuple(full))
        return tuple(out)

    def basis(self) -> MatrixQ:
        return MatrixQ.from_rows(self.grid, self.ambient_dim)

    def contains(self, v) -> bool:
        """Exact membership of a vector (any iterable of rationals)."""
        w = [_frac(x) for x in v]
        if len(w) != self.ambient_dim:
            raise DimensionMismatch(f"vector of length {len(w)} in Q^{self.ambient_dim}")
        return self.reducer.contains(_integer_row(w))

    def is_graded(self, labels) -> bool:
        """Whether the subspace is graded by the labels of the coordinates
        (see ``SpanReducer.is_graded``)."""
        return self.reducer.is_graded(labels)

    def contains_subspace(self, other: "Subspace") -> bool:
        _check_same_ambient(self, other)
        return all(self.reducer.contains(row) for row in other.reducer.rows.values())

    def constraints(self) -> list:
        """Sparse integer rows {column: entry} of a matrix C with
        self == {x : C @ x == 0}, one per non-pivot column, read directly
        off the RREF; cached."""
        if self._constraints is None:
            self._constraints = _null_vectors(self.reducer, self.ambient_dim)
        return self._constraints

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.reducer.rows == other.reducer.rows

    def __hash__(self):
        rows = self.reducer.rows
        return hash((self.ambient_dim, tuple(frozenset(rows[p].items()) for p in sorted(rows))))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def kernel(m: MatrixQ) -> Subspace:
    """Null space {v : m @ v == 0} as a canonical subspace."""
    m = _matrix(m)
    rows = _span_of(map(_integer_row, m.array))
    return Subspace(m.cols, _span_of(_null_vectors(rows, m.cols)))


def image(m: MatrixQ) -> Subspace:
    """Column space of m, i.e. the span of m @ v over all v."""
    m = _matrix(m)
    return Subspace(m.rows, _span_of(map(_integer_row, zip(*m.array))))


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(f"ambient {a.ambient_dim} != {b.ambient_dim}")


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection a ∩ b: the null space of the constraints of both."""
    _check_same_ambient(a, b)
    ca, cb = a.constraints(), b.constraints()
    if not ca:
        return b
    if not cb:
        return a
    n = a.ambient_dim
    return Subspace(n, _span_of(_null_vectors(_span_of(ca + cb), n)))


def join(a: Subspace, b: Subspace) -> Subspace:
    """Sum a + b: the rows of the larger one, with the rows of the other inserted."""
    _check_same_ambient(a, b)
    if a.dim < b.dim:
        a, b = b, a
    if b.dim == 0:
        return a
    span = SpanReducer()
    span.rows = dict(a.reducer.rows)
    for row in b.reducer.rows.values():
        span.insert(row)
    return Subspace(a.ambient_dim, span)


def map_subspace(m: MatrixQ, s: Subspace) -> Subspace:
    """Image m(s) of a subspace under the operator m."""
    if s.ambient_dim != m.cols:
        raise DimensionMismatch(f"subspace ambient {s.ambient_dim} != matrix cols {m.cols}")
    if s.dim == 0:
        return Subspace.zero(m.rows)
    return Subspace.span(s.basis() @ m.transpose())


def solve(a: MatrixQ, b: MatrixQ) -> MatrixQ:
    """The X with a @ X == b, from one RREF of [a | b]; ValueError if a is singular."""
    if not a.rows == a.cols == b.rows:
        raise DimensionMismatch(f"solve needs a square a with b's rows: {a!r}, {b!r}")
    n = a.rows
    span = _span_of(_integer_row([*x, *y]) for x, y in zip(a.array, b.array))
    if sorted(span.rows)[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return MatrixQ.from_rows(
        [[row.get(c, 0) for c in range(n, n + b.cols)] for row in span.canonical_rows()], b.cols
    )
