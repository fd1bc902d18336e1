import random
from fractions import Fraction

import pytest

from phl.filtration import (
    NilpotentOperator,
    NotNilpotentError,
    WeightFiltration,
    jordan_partition,
    verify_weight_axioms,
    weight_filtration,
)
from phl.linalg import DimensionMismatch, MatrixQ, Subspace, image, join
from phl.models import lefschetz

from conftest import (
    dense,
    jordan_nilpotent,
    random_conjugated_nilpotent,
    random_invertible,
    random_partition,
)


def string_formula(parts, l):
    """Expected graded dims from the Jordan partition: one sl2 string per
    block, so Gr_{l+k} counts parts p >= k+1 with p = k+1 mod 2."""
    dims = []
    for k in range(-l, l + 1):
        a = abs(k)
        dims.append(sum(1 for p in parts if p >= a + 1 and (p - a - 1) % 2 == 0))
    return tuple(dims)


def test_nilpotency_index_zero_operator():
    op = NilpotentOperator(MatrixQ.zeros(3, 3))
    assert op.index == 0


def test_nilpotency_index_j2():
    assert NilpotentOperator(jordan_nilpotent([2])).index == 1


def test_nilpotency_index_j3_plus_j1():
    # direct power oracle
    m = jordan_nilpotent([3, 1])
    assert not m.power(2).is_zero()
    assert m.power(3).is_zero()
    assert NilpotentOperator(m).index == 2


def test_non_nilpotent_rejected_with_diagnostic():
    with pytest.raises(NotNilpotentError, match="not nilpotent"):
        NilpotentOperator(MatrixQ.identity(3))


def test_center_mismatch_rejected():
    op = NilpotentOperator(jordan_nilpotent([2]))
    with pytest.raises(ValueError, match="center"):
        weight_filtration(op, 2)


def test_weight_filtration_zero_operator():
    op = NilpotentOperator(MatrixQ.zeros(2, 2))
    w = weight_filtration(op, 0)
    assert len(w.chains[0]) == 1
    assert w.step(0) == Subspace.full(2)
    assert w.graded_dims == (2,)


def test_weight_filtration_j2():
    op = NilpotentOperator(jordan_nilpotent([2]))
    w = weight_filtration(op, 1)
    assert w.graded_dims == (1, 0, 1)
    assert w.step(0) == image(op.power(1))
    assert w.step(1) == w.step(0)
    assert w.step(2) == Subspace.full(2)
    # N W_2 inside W_0
    rep = verify_weight_axioms(op, w)
    assert rep.all_pass


def test_axioms_on_random_jordan_shapes():
    rng = random.Random(101)
    for _ in range(50):
        dim = rng.randint(2, 9)
        parts = random_partition(rng, dim)
        op = NilpotentOperator(random_conjugated_nilpotent(rng, parts))
        w = weight_filtration(op, op.index)
        assert verify_weight_axioms(op, w).all_pass
        assert w.graded_dims == string_formula(parts, op.index)


def test_corrupted_chain_fails_shift_axiom():
    op = NilpotentOperator(jordan_nilpotent([2, 1]))
    w = weight_filtration(op, 1)
    # swap W_0 for a line not sent into 0 by N
    bad_line = Subspace.span([[0, 1, 0]])
    corrupted = WeightFiltration(center=1, chains=((bad_line, w.step(1), w.step(2)),))
    rep = verify_weight_axioms(op, corrupted)
    assert not rep["weight_axiom_shift"].passed


def test_k3_corruption_fails_shift_axiom_at_its_k(k3):
    # W_1 ∩ H^2 is beta's orthogonal; all of H^2 still makes a chain, but
    # L_beta sends it onto H^4, outside W_{-1} = 0
    op = lefschetz(k3, k3.classes.beta)
    w = weight_filtration(op, 1)
    h2 = (w.step(0, 1), Subspace.full(22), w.step(2, 1))
    corrupted = WeightFiltration(center=1, chains=(w.chains[0], h2, w.chains[2]))
    rep = verify_weight_axioms(op, corrupted)
    assert rep["weight_chain_monotone"].passed
    assert not rep["weight_axiom_shift"].passed
    assert rep["weight_axiom_shift"].witnesses == [1]


def test_palindromic_graded_dims():
    rng = random.Random(55)
    for _ in range(10):
        parts = random_partition(rng, rng.randint(2, 8))
        op = NilpotentOperator(jordan_nilpotent(parts))
        dims = weight_filtration(op, op.index).graded_dims
        assert dims == dims[::-1]


def test_conjugation_invariance_of_graded_dims():
    rng = random.Random(77)
    base = jordan_nilpotent([3, 2, 1])
    w0 = weight_filtration(NilpotentOperator(base), 2).graded_dims
    from phl.linalg import solve

    for _ in range(5):
        g = random_invertible(rng, base.rows)
        op = NilpotentOperator(g @ base @ solve(g, MatrixQ.identity(base.rows)))
        assert weight_filtration(op, 2).graded_dims == w0


def test_uniqueness_by_perturbation_small_dims():
    # any chain differing from the computed one in one step fails an axiom
    rng = random.Random(31)
    for parts in [[2], [2, 1], [3], [3, 2], [2, 2, 1], [4, 1]]:
        op = NilpotentOperator(jordan_nilpotent(parts))
        l = op.index
        w = weight_filtration(op, l)
        n = op.dim
        pool = [Subspace.span([[Fraction(rng.randint(-2, 2)) for _ in range(n)]]) for _ in range(6)]
        pool = [s for s in pool if s.dim == 1]
        for k in range(2 * l):  # the top step W_{2l} = V is forced
            for line in pool:
                cand = join(w.step(k), line)
                if cand == w.step(k):
                    continue
                chain = list(w.chains[0])
                chain[k] = cand
                if any(not chain[i + 1].contains_subspace(chain[i]) for i in range(2 * l)):
                    continue  # not even a chain
                perturbed = WeightFiltration(center=l, chains=(tuple(chain),))
                assert not verify_weight_axioms(op, perturbed).all_pass


def test_filtration_of_other_pieces_rejected(k3):
    # a filtration of the assembled matrix has one piece, L_beta has three
    op = lefschetz(k3, k3.classes.beta)
    w = weight_filtration(NilpotentOperator(dense(k3.lefschetz_matrix(k3.classes.beta), 24)), 1)
    with pytest.raises(DimensionMismatch, match="pieces"):
        verify_weight_axioms(op, w)


def test_graded_power_and_step_need_their_piece(k3):
    # L_beta of K3 has three pieces: leaving the piece out is an error,
    # not piece 0; naming it gives the block product and the local step
    op = lefschetz(k3, k3.classes.beta)
    w = weight_filtration(op, 1)
    with pytest.raises(DimensionMismatch, match="3 pieces"):
        op.power(1)
    with pytest.raises(DimensionMismatch, match="3 pieces"):
        w.step(0)
    assert (op.power(2, 0).rows, op.power(2, 0).cols) == (1, 1)
    assert op.power(2, 0).is_zero()
    assert w.step(0, 0) == Subspace.zero(1)
    assert w.step(2, 1) == Subspace.full(22)


def test_blocks_must_fit_the_pieces():
    with pytest.raises(DimensionMismatch, match="piece dimensions"):
        NilpotentOperator([MatrixQ.zeros(2, 1)], [1, 3])
    with pytest.raises(DimensionMismatch, match="piece dimensions"):
        NilpotentOperator([MatrixQ.zeros(1, 1)], [1, 1, 1])


@pytest.mark.parametrize("name", ["k3", "verb_n2_b5"])
def test_graded_uniqueness_by_perturbation(request, name):
    # L_beta of a model: any chain differing from the computed one in one
    # step of one piece fails an axiom
    m = request.getfixturevalue(name)
    op = lefschetz(m, m.classes.beta)
    l = op.index
    w = weight_filtration(op, l)
    assert verify_weight_axioms(op, w).all_pass
    rng = random.Random(43)
    perturbed_count = 0
    for d, dim in enumerate(op.dims):
        pool = [Subspace.span([[Fraction(rng.randint(-2, 2)) for _ in range(dim)]]) for _ in range(4)]
        pool = [s for s in pool if s.dim == 1]
        for k in range(2 * l):  # the top step W_{2l} = V is forced
            for line in pool:
                cand = join(w.step(k, d), line)
                if cand == w.step(k, d):
                    continue
                chain = list(w.chains[d])
                chain[k] = cand
                if any(not chain[i + 1].contains_subspace(chain[i]) for i in range(2 * l)):
                    continue  # not even a chain
                chains = list(w.chains)
                chains[d] = tuple(chain)
                perturbed = WeightFiltration(center=l, chains=tuple(chains))
                assert not verify_weight_axioms(op, perturbed).all_pass, (d, k)
                perturbed_count += 1
    assert perturbed_count


def test_jordan_partition_zero_operator():
    assert jordan_partition(NilpotentOperator(MatrixQ.zeros(3, 3))) == (1, 1, 1)


def test_jordan_partition_by_construction():
    assert jordan_partition(NilpotentOperator(jordan_nilpotent([3, 1]))) == (3, 1)


def test_jordan_partition_of_random_conjugate():
    rng = random.Random(19)
    op = NilpotentOperator(random_conjugated_nilpotent(rng, [4, 2, 2]))
    assert jordan_partition(op) == (4, 2, 2)
