import numbers
import random
from fractions import Fraction

import pytest

from phl.linalg import (
    DimensionMismatch,
    MatrixQ,
    SpanReducer,
    Subspace,
    _frac,
    _integer_row,
    image,
    join,
    kernel,
    map_subspace,
    meet,
    solve,
)

from conftest import random_invertible, random_matrix, random_rational_matrix


def ff_rank(grid):
    """Independent oracle: fraction-free Gaussian elimination (Bareiss-style
    cross multiplication on plain Fraction lists, first-nonzero pivoting)."""
    m = [[Fraction(x) for x in row] for row in grid]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if m[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, rows):
            if m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                for j in range(c, cols):
                    m[r][j] -= f * m[rank][j]
        rank += 1
    return rank


def span_of(rows, n=None):
    return Subspace.span(rows, ambient_dim=n)


def test_reduce_identity():
    s = Subspace.span(MatrixQ.identity(2))
    assert s.dim == 2
    assert s == Subspace.full(2)


def test_reduce_proportional_rows():
    s = Subspace.span(MatrixQ([[1, 2], [2, 4]]))
    assert s.dim == 1
    assert s.grid == ((Fraction(1), Fraction(2)),)


def test_reduce_rank_matches_ff_oracle():
    rng = random.Random(17)
    for _ in range(25):
        m = random_rational_matrix(rng, 4, 4)
        assert Subspace.span(m).dim == m.rank() == ff_rank(m.grid())


def test_reduce_canonical_under_row_equivalence():
    rng = random.Random(3)
    for _ in range(15):
        m = random_matrix(rng, 4, 6)
        g = random_invertible(rng, 4)
        s1 = Subspace.span(m)
        s2 = Subspace.span(g @ m)
        assert s1 == s2
        assert hash(s1) == hash(s2)


def test_kernel_zero_map():
    assert kernel(MatrixQ.zeros(3, 3)) == Subspace.full(3)


def test_kernel_injective():
    assert kernel(MatrixQ.identity(4)) == Subspace.zero(4)


def test_kernel_jordan_block():
    # J3 v = 0 forces v2 = v3 = 0 by hand
    j3 = MatrixQ([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert kernel(j3) == span_of([[1, 0, 0]])


def test_kernel_vectors_satisfy_equation_exactly():
    rng = random.Random(5)
    for _ in range(10):
        m = random_rational_matrix(rng, 3, 5)
        for row in kernel(m).grid:
            assert not any(m.apply(row))


def test_meet_idempotent():
    a = span_of([[1, 2, 3], [0, 1, 1]])
    assert meet(a, a) == a


def test_meet_transverse_lines():
    a = span_of([[1, 0]])
    b = span_of([[0, 1]])
    assert meet(a, b) == Subspace.zero(2)


def test_meet_join_dimension_formula():
    rng = random.Random(11)
    for _ in range(20):
        a = Subspace.span(random_matrix(rng, 3, 5))
        b = Subspace.span(random_matrix(rng, 3, 5))
        assert join(a, b).dim + meet(a, b).dim == a.dim + b.dim


def test_join_neutral_element():
    a = span_of([[1, 1, 0]])
    assert join(a, Subspace.zero(3)) == a


def test_join_two_lines_span_plane():
    assert join(span_of([[1, 0]]), span_of([[1, 1]])) == Subspace.full(2)


def test_lattice_laws_random_triples():
    rng = random.Random(23)
    for _ in range(10):
        a = Subspace.span(random_matrix(rng, 2, 4))
        b = Subspace.span(random_matrix(rng, 2, 4))
        c = Subspace.span(random_matrix(rng, 2, 4))
        assert meet(a, b) == meet(b, a)
        assert join(a, b) == join(b, a)
        assert meet(meet(a, b), c) == meet(a, meet(b, c))
        assert join(join(a, b), c) == join(a, join(b, c))
        # absorption
        assert join(a, meet(a, b)) == a
        assert meet(a, join(a, b)) == a


def test_meet_ambient_mismatch():
    with pytest.raises(DimensionMismatch):
        meet(Subspace.full(2), Subspace.full(3))
    with pytest.raises(DimensionMismatch):
        join(Subspace.full(2), Subspace.full(3))


def test_join_is_the_span_of_both_bases():
    rng = random.Random(71)
    for _ in range(30):
        cols = rng.randint(1, 6)
        a = Subspace.span(random_rational_matrix(rng, rng.randint(1, cols), cols, lo=-2, hi=2))
        b = Subspace.span(random_rational_matrix(rng, rng.randint(1, cols), cols, lo=-2, hi=2))
        for x, y in ((a, b), (a, Subspace.zero(cols)), (Subspace.full(cols), b), (Subspace.zero(cols), b)):
            rows = list(x.grid) + list(y.grid)
            assert join(x, y) == Subspace.span(rows, ambient_dim=cols)
            assert join(x, y).dim == ff_rank(rows)


def test_kernel_and_image_dimensions_match_ff_rank():
    rng = random.Random(73)
    for _ in range(30):
        m = random_rational_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), lo=-2, hi=2)
        rank = ff_rank(m.grid())
        assert kernel(m).dim == m.cols - rank
        assert image(m).dim == rank


def test_equality_and_hash_ignore_the_order_of_spanning_rows():
    rng = random.Random(79)
    for _ in range(30):
        m = random_rational_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), lo=-2, hi=2)
        s = Subspace.span(m)
        for _ in range(3):
            rows = [list(row) for row in m.array]
            rng.shuffle(rows)
            t = Subspace.span(rows)
            assert t == s
            assert hash(t) == hash(s)
            assert t.grid == s.grid and t.pivots == s.pivots


def test_map_subspace_matches_the_dense_product():
    # reference: the span of the RREF basis rows times m^T, through MatrixQ
    rng = random.Random(83)
    for _ in range(30):
        n, rows = rng.randint(1, 6), rng.randint(1, 6)
        m = random_rational_matrix(rng, rows, n, lo=-2, hi=2)
        s = Subspace.span(random_rational_matrix(rng, rng.randint(1, n), n, lo=-2, hi=2))
        for a in (m, MatrixQ.zeros(rows, n), MatrixQ.identity(n)):
            for t in (s, Subspace.zero(n), Subspace.full(n)):
                want = Subspace.span(MatrixQ.from_rows(t.grid, n) @ a.transpose(), ambient_dim=a.rows)
                assert map_subspace(a, t) == want
    with pytest.raises(DimensionMismatch):
        map_subspace(MatrixQ.zeros(2, 3), Subspace.full(2))


def test_image_is_column_space():
    m = MatrixQ([[1, 0], [2, 0], [0, 0]])
    assert image(m) == span_of([[1, 2, 0]])


def test_subspace_contains_dimension_guard():
    with pytest.raises(DimensionMismatch):
        Subspace.full(3).contains([1, 2])


class Count:
    """An integer type that is not int, registered as numbers.Integral."""

    def __init__(self, value):
        self.value = value

    def __int__(self):
        return self.value


numbers.Integral.register(Count)


def test_subspace_contains_rejects_inexact_entries():
    for v in ([Fraction(1, 2), 0.5], [True, 1]):
        with pytest.raises(TypeError):
            Subspace.full(2).contains(v)
    with pytest.raises(ValueError):
        Subspace.full(2).contains(["x", 1])
    # any other Integral converts through int()
    line = span_of([[1, 2]])
    assert line.contains([Count(3), Count(6)])
    assert not line.contains([Count(3), Count(5)])


def canonical(x) -> bool:
    """Whether an exact scalar is in canonical form: an int, or a Fraction
    with a denominator above 1."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def test_frac_gives_the_canonical_form():
    values = (3, Fraction(6, 3), Count(4), "8/4", Fraction(1, 2), "-1/3")
    assert [_frac(x) for x in values] == [3, 2, 4, 2, Fraction(1, 2), Fraction(-1, 3)]
    assert [type(_frac(x)) for x in values] == [int] * 4 + [Fraction] * 2
    for x in (True, False, 0.5, 2.0):
        with pytest.raises(TypeError):
            _frac(x)


def test_eliminations_give_canonical_entries():
    rng = random.Random(5)
    for _ in range(20):
        m = random_rational_matrix(rng, 4, 5)
        s = Subspace.span(m)
        grids = (m.array, s.grid, kernel(m).grid, image(m).grid)
        assert all(canonical(x) for g in grids for row in g for x in row)
        assert all(canonical(x) for row in s.reducer.canonical_rows() for x in row.values())
        # the constraints and the stored reducer rows are integer vectors
        sparse = (s.constraints(), s.reducer.rows.values())
        assert all(type(x) is int for rows in sparse for row in rows for x in row.values())
    # an integer matrix whose pivots divide every entry eliminates to ints
    m = MatrixQ([[Fraction(2), 4, 6], [1, 1, Fraction(3, 3)]])
    grids = (m.array, Subspace.span(m).grid, kernel(m).grid, Subspace.coordinates(3, [0, 2]).grid)
    assert all(type(x) is int for g in grids for row in g for x in row)
    assert _integer_row([0, 2, 4, -6]) == {1: 1, 2: 2, 3: -3}
    assert _integer_row([Fraction(1, 2), 0, Fraction(-2, 3)]) == {0: 3, 2: -4}


def test_subspace_contains_matches_rank_oracle():
    rng = random.Random(61)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(2, 6)
        s = Subspace.span(random_rational_matrix(rng, rows, cols, lo=-2, hi=2))
        basis = [list(row) for row in s.grid]
        inside = [sum(rng.randint(-2, 2) * row[c] for row in basis) for c in range(cols)]
        probe = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(cols)]
        for v in (inside, probe):
            assert s.contains(v) == (ff_rank(basis + [v]) == s.dim)


def test_is_graded_by_coordinate_labels():
    # labels (a, b, b) split the row e0 + e1 into e0 and e1, outside the span
    s = span_of([[1, 1, 0], [0, 0, 1]])
    assert s.is_graded(["a", "a", "b"])
    assert not s.is_graded(["a", "b", "b"])
    assert span_of([[1, 0, 0], [0, 1, 2]]).is_graded(["a", "b", "b"])


def test_is_graded_matches_the_splitting_definition():
    # one label per RREF row, against the definition: every basis row
    # splits by label into parts that lie in the subspace
    rng = random.Random(11)
    seen = set()
    for _ in range(60):
        cols = rng.randint(2, 6)
        labels = [rng.randint(0, 2) for _ in range(cols)]
        rows = []
        for _ in range(rng.randint(1, cols)):
            lab = rng.choice(labels)
            rows.append([rng.randint(-2, 2) if labels[c] == lab else 0 for c in range(cols)])
        if rng.random() < 0.5:
            rows.append([rng.randint(-2, 2) for _ in range(cols)])
        rows = [row for row in rows if any(row)] or [[1] * cols]
        s = span_of(rows)
        splits = all(
            s.contains([x if labels[c] == lab else 0 for c, x in enumerate(row)])
            for row in s.grid
            for lab in labels
        )
        span = SpanReducer()
        for row in rows:
            span.insert(_integer_row(row))
        assert s.is_graded(labels) == span.is_graded(labels) == splits
        seen.add(splits)
    assert seen == {True, False}


def test_inverse():
    m = MatrixQ([[2, 1], [1, 1]])
    inv = solve(m, MatrixQ.identity(2))
    assert inv @ m == MatrixQ.identity(2)
    with pytest.raises(ValueError):
        solve(MatrixQ([[1, 1], [1, 1]]), MatrixQ.identity(2))


def test_solve_satisfies_a_x_equals_b():
    rng = random.Random(41)
    for n in (1, 2, 4, 7):
        a = random_rational_matrix(rng, n, n)
        while a.rank() < n:
            a = random_rational_matrix(rng, n, n)
        for width in (0, 1, n, n + 3):
            b = random_rational_matrix(rng, n, width)
            x = solve(a, b)
            assert (x.rows, x.cols) == (n, width)
            assert a @ x == b


def test_solve_rejects_singular_and_non_square():
    rng = random.Random(43)
    for n in (2, 3, 5):
        rows = [list(r) for r in random_rational_matrix(rng, n, n).array]
        rows[-1] = [-2 * x for x in rows[0]]
        for width in (0, 2):
            with pytest.raises(ValueError, match="singular"):
                solve(MatrixQ(rows), random_rational_matrix(rng, n, width))
    with pytest.raises(DimensionMismatch):
        solve(MatrixQ.zeros(2, 3), MatrixQ.zeros(2, 1))
    with pytest.raises(DimensionMismatch):
        solve(MatrixQ.identity(2), MatrixQ.zeros(3, 1))


def mixed_matrix(rng: random.Random, rows, cols):
    """Entries mixing int and Fraction, mostly zero, with one zero row and
    one zero column when the shape has any."""
    a = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.5:
                x = rng.randint(-5, 5)
                a[i][j] = Fraction(x, rng.randint(1, 4)) if rng.random() < 0.5 else x
    if rows and cols:
        a[rng.randrange(rows)] = [0] * cols
        zero_col = rng.randrange(cols)
        for row in a:
            row[zero_col] = Fraction(0)
    return MatrixQ.from_rows(a, cols)


def loop_product(a: MatrixQ, b: MatrixQ):
    """Independent oracle: the schoolbook triple loop."""
    return [
        [sum((a.array[i][k] * b.array[k][j] for k in range(a.cols)), Fraction(0)) for j in range(b.cols)]
        for i in range(a.rows)
    ]


def test_product_matches_triple_loop():
    rng = random.Random(29)
    shapes = [(3, 4, 2), (4, 4, 4), (1, 5, 1), (0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0)]
    for r, k, c in shapes * 4:
        a, b = mixed_matrix(rng, r, k), mixed_matrix(rng, k, c)
        p = a @ b
        assert (p.rows, p.cols) == (r, c)
        assert [[Fraction(x) for x in row] for row in p.array] == loop_product(a, b)
    with pytest.raises(DimensionMismatch):
        MatrixQ.zeros(2, 3) @ MatrixQ.zeros(2, 3)


def test_matrix_power_and_scale():
    j = MatrixQ([[0, 1], [0, 0]])
    assert j.power(2).is_zero()
    assert MatrixQ([[x * Fraction(1, 2) for x in row] for row in j.array]).array[0][1] == Fraction(1, 2)
