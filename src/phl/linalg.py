"""Exact linear algebra over the rationals, on one elimination engine.

Matrices hold Fraction (or plain int) entries inside numpy object arrays;
all arithmetic is exact.  Products multiply nonzero entries only (``_dot``).
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
from fractions import Fraction

import numpy as np

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


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _object_matrix(data) -> np.ndarray:
    if isinstance(data, np.ndarray) and data.dtype == object:
        return data
    rows = [[_frac(x) for x in row] for row in data]
    a = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    for i, row in enumerate(rows):
        a[i, :] = row
    return a


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
    denom = math.lcm(1, *(x.denominator for x in v.values() if isinstance(x, Fraction)))
    return _primitive(
        {c: int(x * denom) if isinstance(x, Fraction) else int(x) * denom for c, x in v.items()}
    )


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

    def canonical_rows(self):
        """RREF rows as {column: Fraction} dicts with unit pivots, by pivot."""
        out = []
        for p in sorted(self.rows):
            row = self.rows[p]
            pv = row[p]
            out.append({c: Fraction(x, pv) for c, x in row.items()})
        return out


def _rref(a: np.ndarray):
    """Reduced row echelon form of an exact matrix.

    Returns (rows, pivots) where rows is a tuple of Fraction-tuples (the
    nonzero RREF rows, pivot entries equal to 1) and pivots the strictly
    increasing pivot column indices.
    """
    reducer = SpanReducer()
    for row in a:
        reducer.insert(_integer_row(row))
    zero = (Fraction(0),) * a.shape[1]
    rows = []
    for row in reducer.canonical_rows():
        full = list(zero)
        for c, x in row.items():
            full[c] = x
        rows.append(tuple(full))
    return tuple(rows), sorted(reducer.rows)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for object arrays, multiplying nonzero entries only."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=object)
    support = [np.flatnonzero(row) for row in b]
    for i, k in zip(*np.nonzero(a)):
        cols = support[k]
        out[i, cols] += a[i, k] * b[k, cols]
    return out


class MatrixQ:
    """Immutable dense matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "_a", "_grid")

    def __init__(self, data):
        a = _object_matrix(data)
        self._a = a
        self.rows, self.cols = a.shape
        self._grid = None

    @classmethod
    def from_array(cls, a: np.ndarray) -> "MatrixQ":
        m = object.__new__(cls)
        m._a = a
        m.rows, m.cols = a.shape
        m._grid = None
        return m

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        a = np.zeros((n, n), dtype=object)
        for i in range(n):
            a[i, i] = 1
        return cls.from_array(a)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "MatrixQ":
        return cls.from_array(np.zeros((rows, cols), dtype=object))

    @property
    def array(self) -> np.ndarray:
        """Underlying object array; treat as read-only."""
        return self._a

    def grid(self):
        if self._grid is None:
            self._grid = tuple(tuple(_frac(x) for x in row) for row in self._a)
        return self._grid

    def entry(self, i: int, j: int) -> Fraction:
        return _frac(self._a[i, j])

    def transpose(self) -> "MatrixQ":
        return MatrixQ.from_array(self._a.T.copy())

    def __matmul__(self, other):
        if isinstance(other, MatrixQ):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.cols} != {other.rows}")
            return MatrixQ.from_array(_dot(self._a, other._a))
        other = np.asarray(other, dtype=object)
        return self._a @ other

    def __add__(self, other: "MatrixQ") -> "MatrixQ":
        return MatrixQ.from_array(self._a + other._a)

    def __sub__(self, other: "MatrixQ") -> "MatrixQ":
        return MatrixQ.from_array(self._a - other._a)

    def __neg__(self) -> "MatrixQ":
        return MatrixQ.from_array(-self._a)

    def scale(self, c) -> "MatrixQ":
        return MatrixQ.from_array(self._a * _frac(c))

    def power(self, k: int) -> "MatrixQ":
        if self.rows != self.cols:
            raise DimensionMismatch("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        out = MatrixQ.identity(self.rows)
        for _ in range(k):
            out = out @ self
        return out

    def apply(self, v) -> np.ndarray:
        """Matrix-vector product m @ v (column-vector convention)."""
        return self._a @ np.asarray(v, dtype=object)

    def is_zero(self) -> bool:
        return not any(x for x in self._a.flat)

    def rank(self) -> int:
        return len(_rref(self._a)[1])

    def __eq__(self, other):
        if not isinstance(other, MatrixQ):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.grid() == other.grid()

    def __hash__(self):
        return hash(self.grid())

    def __repr__(self):
        return f"MatrixQ({self.rows}x{self.cols})"


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
        grid = tuple(tuple(Fraction(int(j == c)) for j in range(n)) for c in coords)
        return cls(n, grid, coords)

    @classmethod
    def span(cls, vectors, ambient_dim: int | None = None) -> "Subspace":
        """Canonical subspace spanned by the given row vectors."""
        if isinstance(vectors, MatrixQ):
            a = vectors.array
        else:
            vectors = list(vectors)
            if not vectors:
                if ambient_dim is None:
                    raise ValueError("ambient_dim required for an empty span")
                return cls.zero(ambient_dim)
            a = _object_matrix(vectors)
        if a.shape[0] == 0:
            if ambient_dim is None:
                raise ValueError("ambient_dim required for an empty span")
            return cls.zero(ambient_dim)
        grid, pivots = _rref(a)
        return cls(a.shape[1], grid, pivots)

    @property
    def dim(self) -> int:
        return len(self.grid)

    def basis(self) -> MatrixQ:
        return MatrixQ.from_array(self.basis_array())

    def basis_array(self) -> np.ndarray:
        a = np.empty((self.dim, self.ambient_dim), dtype=object)
        for i, row in enumerate(self.grid):
            a[i, :] = row
        return a

    def contains(self, v) -> bool:
        """Exact membership of a vector (any iterable of rationals)."""
        w = [_frac(x) for x in v]
        if len(w) != self.ambient_dim:
            raise DimensionMismatch(f"vector of length {len(w)} in Q^{self.ambient_dim}")
        return self.reducer().contains(_integer_row(w))

    def is_graded(self, labels) -> bool:
        """Whether every basis row splits, by the label of each coordinate,
        into parts that lie in the subspace."""
        for row in self.grid:
            parts = {}
            for c, x in _integer_row(row).items():
                parts.setdefault(labels[c], {})[c] = x
            if len(parts) > 1 and not all(self.reducer().contains(part) for part in parts.values()):
                return False
        return True

    def reducer(self) -> SpanReducer:
        """The basis rows in a ``SpanReducer``, built once and cached."""
        if self._reducer is None:
            self._reducer = SpanReducer()
            for row in self.grid:
                self._reducer.insert(_integer_row(row))
        return self._reducer

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.grid)

    def constraints(self) -> np.ndarray:
        """Matrix C with self == {x : C @ x == 0}; cached.

        One constraint per non-pivot column, read directly off the RREF
        basis, so no extra elimination is needed.
        """
        if self._constraints is None:
            n = self.ambient_dim
            piv = set(self.pivots)
            free = [c for c in range(n) if c not in piv]
            C = np.zeros((len(free), n), dtype=object)
            for t, f in enumerate(free):
                C[t, f] = Fraction(1)
                for i, p in enumerate(self.pivots):
                    C[t, p] = -self.grid[i][f]
            self._constraints = C
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
    if isinstance(m, MatrixQ):
        a = m.array
    else:
        a = _object_matrix(m)
    grid, pivots = _rref(a)
    return Subspace(a.shape[1], grid, pivots), len(pivots)


def kernel(m: MatrixQ) -> Subspace:
    """Null space {v : m @ v == 0} as a canonical subspace."""
    a = m.array if isinstance(m, MatrixQ) else _object_matrix(m)
    nr, nc = a.shape
    grid, pivots = _rref(a)
    piv_set = set(pivots)
    free = [c for c in range(nc) if c not in piv_set]
    if not free:
        return Subspace.zero(nc)
    vecs = []
    for f in free:
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -grid[i][f]
        vecs.append(v)
    return Subspace.span(vecs)


def image(m: MatrixQ) -> Subspace:
    """Column space of m, i.e. the span of m @ v over all v."""
    a = m.array if isinstance(m, MatrixQ) else _object_matrix(m)
    grid, pivots = _rref(a.T)
    return Subspace(a.shape[0], grid, pivots)


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(f"ambient {a.ambient_dim} != {b.ambient_dim}")


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection a ∩ b."""
    _check_same_ambient(a, b)
    ca, cb = a.constraints(), b.constraints()
    if ca.shape[0] == 0:
        return b
    if cb.shape[0] == 0:
        return a
    stacked = np.vstack([ca, cb])
    return kernel(MatrixQ.from_array(stacked))


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
    aug = np.hstack([m.array, MatrixQ.identity(n).array])
    grid, pivots = _rref(aug)
    if list(pivots) != list(range(n)):
        raise ValueError("matrix is singular")
    inv = np.empty((n, n), dtype=object)
    for i in range(n):
        inv[i, :] = grid[i][n:]
    return MatrixQ.from_array(inv)
