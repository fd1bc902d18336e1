"""Exact linear algebra over the rationals, on one elimination engine.

Matrices hold their rows as plain Python lists of exact entries, in one
canonical form (``_frac``): an int when integral, else a Fraction, which
compares and hashes as the equal int would.  All arithmetic is exact.
Products multiply nonzero entries only (``_dot``).
Subspaces are stored as reduced row echelon bases with strictly increasing
pivot columns, so two subspaces are equal exactly when their basis grids
are equal.

Every elimination runs in ``SpanReducer``: rows are scaled to primitive
integer vectors held as sparse dicts, reduced fraction-free by
cross-multiplication and gcd division, and kept fully back-reduced, one
per pivot column.  Division by the pivots happens only when the canonical
rows are read off.  The RREF is unique, so the result does not depend on
the order in which rows are inserted.  Subspace membership reduces the
vector against a ``SpanReducer`` of the basis, cached on the subspace, and
``lie`` closes operator algebras on the same reducer.
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
    "reduce",
    "kernel",
    "image",
    "meet",
    "join",
    "map_subspace",
    "inverse",
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


def _integer_row(entries) -> dict:
    """Nonzero entries of a rational vector as {index: int}, scaled to a
    primitive integer vector."""
    v = {c: x for c, x in enumerate(entries) if x}
    if any(type(x) is not int for x in v.values()):
        denom = math.lcm(*(x.denominator for x in v.values()))
        v = {c: x.numerator * (denom // x.denominator) for c, x in v.items()}
    return _primitive(v)


class SpanReducer:
    """Incremental exact RREF over sparse integer vectors.

    Rows are primitive integer dicts, fully back-reduced, one per pivot
    column; a vector reduces to the empty dict exactly when it lies in the
    span.
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


def _rref(rows, cols: int):
    """Reduced row echelon form of an exact matrix given by its rows.

    Returns (rows, pivots) where rows is a tuple of tuples of canonical
    entries (the nonzero RREF rows, pivot entries equal to 1) and pivots the
    strictly increasing pivot column indices.
    """
    reducer = SpanReducer()
    for row in rows:
        reducer.insert(_integer_row(row))
    zero = (0,) * cols
    out = []
    for row in reducer.canonical_rows():
        full = list(zero)
        for c, x in row.items():
            full[c] = x
        out.append(tuple(full))
    return tuple(out), sorted(reducer.rows)


def _null_rows(grid, pivots, cols: int) -> list:
    """One vector per non-pivot column f of an RREF: e_f minus the entries
    of column f at the pivots.  They span the null space of the RREF."""
    piv = set(pivots)
    out = []
    for f in range(cols):
        if f in piv:
            continue
        v = [0] * cols
        v[f] = 1
        for row, p in zip(grid, pivots):
            v[p] = -row[f]
        out.append(v)
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
        return len(_rref(self._a, self.cols)[1])

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
    """Rational subspace given by its canonical reduced-row-echelon basis.

    Basis vectors are the rows of `grid`; two Subspace values are equal
    exactly when their grids are identical.
    """

    __slots__ = ("ambient_dim", "grid", "pivots", "_constraints", "_reducer")

    def __init__(self, ambient_dim: int, grid, pivots):
        self.ambient_dim = ambient_dim
        self.grid = grid
        self.pivots = tuple(pivots)
        self._constraints = None
        self._reducer = None

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, (), ())

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls.coordinates(n, range(n))

    @classmethod
    def coordinates(cls, n: int, coords) -> "Subspace":
        """Span of the standard basis vectors e_c, c in coords, of Q^n."""
        coords = sorted(coords)
        grid = tuple(tuple(int(j == c) for j in range(n)) for c in coords)
        return cls(n, grid, coords)

    @classmethod
    def span(cls, vectors, ambient_dim: int | None = None) -> "Subspace":
        """Canonical subspace spanned by the given row vectors."""
        m = _matrix(vectors)
        if m.rows == 0:
            if ambient_dim is None:
                raise ValueError("ambient_dim required for an empty span")
            return cls.zero(ambient_dim)
        grid, pivots = _rref(m.array, m.cols)
        return cls(m.cols, grid, pivots)

    @property
    def dim(self) -> int:
        return len(self.grid)

    def basis(self) -> MatrixQ:
        return MatrixQ.from_rows(self.grid, self.ambient_dim)

    def contains(self, v) -> bool:
        """Exact membership of a vector (any iterable of rationals)."""
        w = [_frac(x) for x in v]
        if len(w) != self.ambient_dim:
            raise DimensionMismatch(f"vector of length {len(w)} in Q^{self.ambient_dim}")
        return self.reducer().contains(_integer_row(w))

    def is_graded(self, labels) -> bool:
        """Whether the subspace is graded by the labels of the coordinates:
        whether every basis row carries one label (see
        ``SpanReducer.is_graded``)."""
        return all(len({labels[c] for c, x in enumerate(row) if x}) == 1 for row in self.grid)

    def reducer(self) -> SpanReducer:
        """The basis rows in a ``SpanReducer``, built once and cached."""
        if self._reducer is None:
            self._reducer = SpanReducer()
            for row in self.grid:
                self._reducer.insert(_integer_row(row))
        return self._reducer

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.grid)

    def constraints(self) -> list:
        """Rows of a matrix C with self == {x : C @ x == 0}; cached.

        One constraint per non-pivot column, read directly off the RREF
        basis, so no extra elimination is needed.
        """
        if self._constraints is None:
            self._constraints = _null_rows(self.grid, self.pivots, self.ambient_dim)
        return self._constraints

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.grid == other.grid

    def __hash__(self):
        return hash((self.ambient_dim, self.grid))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def reduce(m: MatrixQ):
    """Canonical row-space basis and rank of a matrix."""
    m = _matrix(m)
    grid, pivots = _rref(m.array, m.cols)
    return Subspace(m.cols, grid, pivots), len(pivots)


def kernel(m: MatrixQ) -> Subspace:
    """Null space {v : m @ v == 0} as a canonical subspace."""
    m = _matrix(m)
    vecs = _null_rows(*_rref(m.array, m.cols), m.cols)
    return Subspace.span(vecs) if vecs else Subspace.zero(m.cols)


def image(m: MatrixQ) -> Subspace:
    """Column space of m, i.e. the span of m @ v over all v."""
    m = _matrix(m)
    grid, pivots = _rref(_transpose(m.array, m.cols), m.rows)
    return Subspace(m.rows, grid, pivots)


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(f"ambient {a.ambient_dim} != {b.ambient_dim}")


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection a ∩ b."""
    _check_same_ambient(a, b)
    ca, cb = a.constraints(), b.constraints()
    if not ca:
        return b
    if not cb:
        return a
    return kernel(MatrixQ.from_rows(ca + cb, a.ambient_dim))


def join(a: Subspace, b: Subspace) -> Subspace:
    """Sum a + b."""
    _check_same_ambient(a, b)
    if a.dim == 0:
        return b
    if b.dim == 0:
        return a
    return Subspace.span(list(a.grid) + list(b.grid))


def map_subspace(m: MatrixQ, s: Subspace) -> Subspace:
    """Image m(s) of a subspace under the operator m."""
    if s.ambient_dim != m.cols:
        raise DimensionMismatch(f"subspace ambient {s.ambient_dim} != matrix cols {m.cols}")
    if s.dim == 0:
        return Subspace.zero(m.rows)
    return Subspace.span(s.basis() @ m.transpose())


def inverse(m: MatrixQ) -> MatrixQ:
    """Exact inverse of a square matrix; raises ValueError if singular."""
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.array)]
    grid, pivots = _rref(aug, 2 * n)
    if list(pivots) != list(range(n)):
        raise ValueError("matrix is singular")
    return MatrixQ.from_rows([row[n:] for row in grid], n)
