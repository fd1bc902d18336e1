import random
from fractions import Fraction

import pytest

from phl.linalg import MatrixQ
from phl.models import ModelSpec, build_model
from phl.perverse import cube


# ---------------------------------------------------------------------------
# shipped models (session-scoped: construction re-validates the whole ring)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def k3():
    return build_model(ModelSpec(kind="k3", n=1, b2=22))


@pytest.fixture(scope="session")
def verb_n2_b5():
    return build_model(ModelSpec(kind="verbitsky", n=2, b2=5))


@pytest.fixture(scope="session")
def verb_n2_b7():
    return build_model(ModelSpec(kind="verbitsky", n=2, b2=7))


@pytest.fixture(scope="session")
def verb_n3_b5():
    return build_model(ModelSpec(kind="verbitsky", n=3, b2=5))


@pytest.fixture(scope="session")
def shipped_models(k3, verb_n2_b5, verb_n2_b7, verb_n3_b5):
    return {
        "k3_b22": k3,
        "verbitsky_n2_b5": verb_n2_b5,
        "verbitsky_n2_b7": verb_n2_b7,
        "verbitsky_n3_b5": verb_n3_b5,
    }


@pytest.fixture(scope="session")
def k3_cube(k3):
    return cube(k3)


@pytest.fixture(scope="session")
def shipped_cubes(shipped_models):
    return {name: cube(m) for name, m in shipped_models.items()}


# ---------------------------------------------------------------------------
# sparse operators {(row, col): entry} and their dense matrices
# ---------------------------------------------------------------------------


def dense(op: dict, D: int) -> MatrixQ:
    """The D x D matrix of a sparse operator."""
    rows = [[0] * D for _ in range(D)]
    for (i, j), x in op.items():
        rows[i][j] = x
    return MatrixQ(rows)


def sparse(m) -> dict:
    """The nonzero entries of a square matrix as a sparse operator."""
    m = m if isinstance(m, MatrixQ) else MatrixQ(m)
    return {(i, j): x for i, row in enumerate(m.array) for j, x in enumerate(row) if x}


# ---------------------------------------------------------------------------
# randomized-input helpers (all deterministic via explicit seeds)
# ---------------------------------------------------------------------------


def random_matrix(rng: random.Random, rows, cols, lo=-5, hi=5):
    data = [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]
    return MatrixQ(data)


def random_rational_matrix(rng: random.Random, rows, cols, lo=-6, hi=6, maxden=4):
    data = [
        [Fraction(rng.randint(lo, hi), rng.randint(1, maxden)) for _ in range(cols)]
        for _ in range(rows)
    ]
    return MatrixQ(data)


def random_invertible(rng: random.Random, n, lo=-3, hi=3):
    while True:
        m = random_matrix(rng, n, n, lo, hi)
        if m.rank() == n:
            return m


def jordan_nilpotent(parts):
    """Block-diagonal nilpotent matrix with the given Jordan block sizes."""
    n = sum(parts)
    a = [[0] * n for _ in range(n)]
    off = 0
    for p in parts:
        for r in range(p - 1):
            a[off + r][off + r + 1] = 1
        off += p
    return MatrixQ(a)


def random_partition(rng: random.Random, total):
    parts = []
    left = total
    while left:
        p = rng.randint(1, left)
        parts.append(p)
        left -= p
    parts.sort(reverse=True)
    return parts


def random_conjugated_nilpotent(rng: random.Random, parts):
    """Change-of-basis conjugate of the Jordan nilpotent with these parts."""
    from phl.linalg import solve

    j = jordan_nilpotent(parts)
    g = random_invertible(rng, j.rows)
    return g @ j @ solve(g, MatrixQ.identity(j.rows))
