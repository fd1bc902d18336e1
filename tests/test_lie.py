import random
from fractions import Fraction

import pytest

from phl.filtration import NilpotentOperator, NotNilpotentError, weight_filtration
from phl.lie import (
    GradingOperator,
    Sl2CompletionError,
    bracket,
    degree_grading,
    hodge_q_grading,
    lefschetz_spanning_set,
    lie_closure,
    membership,
    pq_difference_grading,
    sl2_complete,
    so6_generators,
    so6_report,
)
from phl import lie
from phl.lie import _nilpotent
from phl.linalg import DimensionMismatch, MatrixQ, SpanReducer, Subspace, _integer, kernel
from phl.models import DistinguishedClasses

from conftest import (
    dense,
    random_conjugated_nilpotent,
    random_invertible,
    random_partition,
    random_rational_matrix,
    sparse,
)


def test_sl2_complete_j2_transpose():
    L = {(1, 0): 1}  # raises the grading diag(-1, 1)
    H = GradingOperator("test", (-1, 1))
    lam = sl2_complete(L, H)
    assert lam == {(0, 1): 1}  # the transpose of L


def test_k3_sigma_bar_triple_closes_exactly(k3):
    L = k3.lefschetz_matrix(k3.classes.sigma_bar)
    hq = hodge_q_grading(k3)
    lam = sl2_complete(L, hq)
    assert bracket(L, lam) == hq.matrix()
    # eigenvalues of [L, A] are exactly the grading integers
    comm = bracket(L, lam)
    assert all(comm.get((i, i), 0) == hq.diag[i] for i in range(24))


def test_k3_sigma_bar_fails_degree_grading(k3):
    L = k3.lefschetz_matrix(k3.classes.sigma_bar)
    with pytest.raises(Sl2CompletionError, match="L\\^2"):
        sl2_complete(L, degree_grading(k3))


def test_sl2_uniqueness_by_affine_solve(k3):
    # brute-force oracle on the K3 model: solve [L, X] = H over the
    # grading(-2) block and confirm the solution space is a single point
    L = dense(k3.lefschetz_matrix(k3.classes.sigma_bar), 24).array
    hq = hodge_q_grading(k3)
    lam = dense(sl2_complete(sparse(L), hq), 24)
    diag = hq.diag
    D = 24
    unknowns = [(i, j) for i in range(D) for j in range(D) if diag[i] - diag[j] == -2]
    rows, rhs = [], []
    for a in range(D):
        for b in range(D):
            row = [Fraction(0)] * len(unknowns)
            for t, (i, j) in enumerate(unknowns):
                coeff = Fraction(0)
                if j == b and diag[a] - 2 == diag[i]:
                    coeff += L[a][i]
                if i == a and diag[b] + 2 == diag[j]:
                    coeff -= L[j][b]
                if coeff:
                    row[t] = coeff
            want = Fraction(diag[a]) if a == b else Fraction(0)
            if any(row) or want:
                rows.append(row)
                rhs.append(want)
    system = MatrixQ(rows)
    # the entries of the partner solve the system, and the solution is unique
    assert list(system.apply([lam.array[i][j] for i, j in unknowns])) == rhs
    assert kernel(system).dim == 0  # affine solution space has dimension 1 - 1 = 0


def test_primitive_dimensions_from_kernel_of_lambda(k3):
    # ker(A) ∩ V_{-k} are the primitives: dim = dim V_{-k} - dim V_{-k-2}
    hq = hodge_q_grading(k3)
    L = k3.lefschetz_matrix(k3.classes.sigma_bar)
    lam = dense(sl2_complete(L, hq), 24).array
    diag = hq.diag
    D = 24
    level = {}
    for c, v in enumerate(diag):
        level.setdefault(v, []).append(c)
    kern = kernel(MatrixQ(lam))
    for kk in (0, 1):
        coords = level.get(-kk, [])
        below = level.get(-kk - 2, [])
        block = Subspace.span(
            [row for row in kern.grid if all(row[c] == 0 for c in range(D) if c not in coords)],
            ambient_dim=D,
        )
        assert block.dim == len(coords) - len(below)


def test_lie_closure_single_triple_is_sl2():
    L = {(1, 0): 1}
    H = GradingOperator("test", (-1, 1))
    lam = sl2_complete(L, H)
    alg = lie_closure([L, lam, H.matrix()])
    assert alg.dim == 3


def test_so6_report_all_models(shipped_models):
    for name, m in shipped_models.items():
        if name == "verbitsky_n3_b5":
            continue  # covered by the acceptance suite (slow)
        rep = so6_report(m)
        assert rep.all_pass, (name, [r.name for r in rep.failures()])
        assert rep["so6_dimension"].data["dim"] == 15


def test_full_lefschetz_closure_formula_n2():
    from phl.models import ModelSpec, build_model

    for b2, expect in ((5, 21), (6, 28), (7, 36)):
        m = build_model(ModelSpec(kind="verbitsky", n=2, b2=b2))
        h0 = degree_grading(m)
        ops = []
        for x in lefschetz_spanning_set(m):
            lx = m.lefschetz_matrix(x)
            ops.append(lx)
            ops.append(sl2_complete(lx, h0))
        ops.append(h0.matrix())
        assert lie_closure(ops).dim == expect == (b2 + 2) * (b2 + 1) // 2


def test_membership_generator_and_trace_obstruction(k3):
    h0 = degree_grading(k3)
    gens = []
    for x in so6_generators(k3):
        lx = k3.lefschetz_matrix(x)
        gens.extend([lx, sl2_complete(lx, h0)])
    gens.append(h0.matrix())
    alg = lie_closure(gens)
    assert alg.dim == 15
    for g in gens:
        assert membership(alg, g)
    # every basis element is trace-free, so the identity cannot belong
    for b in alg.canonical_rows():
        assert sum(b.get((i, i), 0) for i in range(24)) == 0
    assert not membership(alg, {(i, i): 1 for i in range(24)})
    # linearity of x -> L_x puts L_beta = L_{beta+omega} - L_omega in the span
    assert membership(alg, k3.lefschetz_matrix(k3.classes.beta))


def _reference_closure(gens):
    """Independent oracle: every element found is bracketed against every
    generator, and no generator is skipped."""
    span = SpanReducer()
    queue = [g for g in gens if span.insert(_integer(g))]
    while queue:
        a = queue.pop()
        for g in gens:
            c = bracket(a, g)
            if c and span.insert(_integer(c)):
                queue.append(c)
    return span


def _triples(model, classes):
    """L_x and its degree-graded partner for each class x, then the grading."""
    h0 = degree_grading(model)
    ops = []
    for x in classes:
        lx = model.lefschetz_matrix(x)
        ops += [lx, sl2_complete(lx, h0)]
    return ops + [h0.matrix()]


def test_lie_closure_matches_reference_in_any_generator_order(shipped_models):
    rng = random.Random(8)
    for name, m in shipped_models.items():
        for gens in (_triples(m, so6_generators(m)), _triples(m, lefschetz_spanning_set(m))):
            want = _reference_closure(gens).canonical_rows()
            shuffled = list(gens)
            rng.shuffle(shuffled)
            # prepended, 2 gens[0] - 6 gens[1] makes gens[1] a skipped generator
            combination = {k: 2 * gens[0].get(k, 0) - 6 * gens[1].get(k, 0) for k in {*gens[0], *gens[1]}}
            combination = {k: x for k, x in combination.items() if x}
            orders = [gens, gens[::-1], shuffled, [combination] + gens, [bracket(gens[0], gens[1])] + gens]
            for order in orders:
                assert lie_closure(order).canonical_rows() == want, name


def test_late_generator_outside_the_algebra_enlarges_the_closure(k3):
    assert lie_closure([{(1, 0): 1}]).dim == 1
    assert lie_closure([{(1, 0): 1}, {(0, 1): 1}]).dim == 3  # sl2
    early = _triples(k3, so6_generators(k3))
    base = lie_closure(early)
    assert base.dim == 15
    x = next(x for x in lefschetz_spanning_set(k3) if not membership(base, k3.lefschetz_matrix(x)))
    gens = early + [k3.lefschetz_matrix(x)]
    alg = lie_closure(gens)
    assert alg.dim > 15
    assert alg.canonical_rows() == _reference_closure(gens).canonical_rows()


def test_k3_closure_brackets_each_element_with_each_kept_generator_once(k3, monkeypatch):
    # 23 of the 45 generators are kept (L_e1 ... L_e22 and one partner), so
    # each of the 276 elements meets at most 23 of them
    gens = _triples(k3, lefschetz_spanning_set(k3))
    calls = []
    real = lie._bracket

    def counting(a, rows, cols):
        calls.append(1)
        return real(a, rows, cols)

    monkeypatch.setattr(lie, "_bracket", counting)
    assert lie_closure(gens).dim == 276
    assert len(calls) <= 276 * 23


def test_closure_idempotence(k3):
    h0 = degree_grading(k3)
    gens = []
    for x in so6_generators(k3):
        lx = k3.lefschetz_matrix(x)
        gens.extend([lx, sl2_complete(lx, h0)])
    gens.append(h0.matrix())
    alg = lie_closure(gens)
    again = lie_closure(alg.canonical_rows())
    assert again.dim == alg.dim


def test_closure_conjugation_equivariance():
    rng = random.Random(21)
    L = {(1, 0): 1, (2, 1): 1}  # J3-style raising chain
    H = GradingOperator("test", (-2, 0, 2))
    lam = sl2_complete(L, H)
    base = lie_closure([L, lam, H.matrix()])
    from phl.linalg import solve

    for _ in range(3):
        g = random_invertible(rng, 3)
        gi = solve(g, MatrixQ.identity(3))
        conj = [sparse(g @ dense(x, 3) @ gi) for x in (L, lam, H.matrix())]
        assert lie_closure(conj).dim == base.dim


def test_lambda_scale_covariance_and_weight_invariance(k3):
    hq = hodge_q_grading(k3)
    L = k3.lefschetz_matrix(k3.classes.sigma_bar)
    lam = sl2_complete(L, hq)
    lbeta = k3.lefschetz_matrix(k3.classes.beta)
    base = weight_filtration(
        NilpotentOperator(dense(bracket(lbeta, lam), 24)), 1
    ).graded_dims
    rng = random.Random(33)
    for _ in range(3):
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
        lam_scaled = sl2_complete({key: x * c for key, x in L.items()}, hq)
        assert lam_scaled == {key: x / c for key, x in lam.items()}
        w = weight_filtration(
            NilpotentOperator(dense(bracket(lbeta, lam_scaled), 24)), 1
        ).graded_dims
        assert w == base


def test_so6_report_isotropic_omega_fails_precondition(k3):
    broken = k3.rescale_classes()  # shallow copy
    broken.classes = DistinguishedClasses(
        sigma=k3.classes.sigma,
        sigma_bar=k3.classes.sigma_bar,
        beta=k3.classes.beta,
        omega=k3.classes.beta,  # isotropic, and dependent with beta
    )
    rep = so6_report(broken)
    assert not rep.all_pass
    assert not rep["lefschetz_generators_nondegenerate"].passed or not rep[
        "q_restriction_nondegenerate"
    ].passed


def test_pq_difference_grading_values(k3):
    diag = pq_difference_grading(k3).diag
    s = 1 + k3.quad.sigma_index
    sb = 1 + k3.quad.sigma_bar_index
    assert diag[s] == 2 and diag[sb] == -2
    assert diag[0] == 0 and diag[23] == 0


def test_bracket_matches_dense_products():
    # the sparse bracket against the dense reference ab - ba
    rng = random.Random(5)
    for n in (1, 3, 6):
        a, b = random_rational_matrix(rng, n, n), random_rational_matrix(rng, n, n)
        ab, ba = (a @ b).array, (b @ a).array
        want = MatrixQ([[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)])
        assert bracket(sparse(a), sparse(b)) == sparse(want)
    L = {(1, 0): 1}
    assert bracket(L, L) == {}


def _assert_sl2_triple(L, lam, H):
    h = H.matrix()
    assert bracket(L, lam) == h
    assert bracket(h, lam) == {key: -2 * x for key, x in lam.items()}


def test_partners_satisfy_sl2_relations_on_shipped_models(shipped_models):
    # the relations are re-checked here with bracket, outside sl2_complete
    for m in shipped_models.values():
        hq, h0 = hodge_q_grading(m), degree_grading(m)
        L = m.lefschetz_matrix(m.classes.sigma_bar)
        _assert_sl2_triple(L, sl2_complete(L, hq), hq)
        for x in so6_generators(m):
            lx = m.lefschetz_matrix(x)
            _assert_sl2_triple(lx, sl2_complete(lx, h0), h0)


def test_sl2_complete_rejects_operator_not_raising_by_two():
    L = {(0, 1): 1}  # lowers the grading diag(-1, 1)
    with pytest.raises(
        Sl2CompletionError, match=r"\[H, L\] != 2L: entry \(0, 1\) connects grading 1 to -1"
    ):
        sl2_complete(L, GradingOperator("test", (-1, 1)))


def test_sl2_complete_rejects_unbalanced_grading_dimensions():
    L = {(1, 0): 1}
    with pytest.raises(
        Sl2CompletionError, match="grading -1 has dimension 1 but grading 1 has dimension 2"
    ):
        sl2_complete(L, GradingOperator("test", (-1, 1, 1)))


def test_so6_basis_brackets_stay_in_closure(verb_n2_b5):
    h0 = degree_grading(verb_n2_b5)
    gens = [h0.matrix()]
    for x in so6_generators(verb_n2_b5):
        lx = verb_n2_b5.lefschetz_matrix(x)
        gens.extend([lx, sl2_complete(lx, h0)])
    alg = lie_closure(gens)
    basis = alg.canonical_rows()
    assert len(basis) == 15
    for i, a in enumerate(basis):
        for b in basis[i + 1 :]:
            assert membership(alg, bracket(a, b))


def test_sl2_complete_rejects_entry_outside_the_grading():
    with pytest.raises(DimensionMismatch, match=r"entry \(2, 0\) outside a grading of size 2"):
        sl2_complete({(2, 0): 1}, GradingOperator("test", (-1, 1)))


def test_sparse_nilpotency_agrees_with_nilpotent_operator():
    # conjugated Jordan nilpotents, and the same with one diagonal entry
    # added, which makes the trace nonzero; a single Jordan block needs
    # every power up to the size of the space
    rng = random.Random(13)
    verdicts = set()
    for n in (1, 2, 3, 5, 6):
        for _ in range(4):
            m = random_conjugated_nilpotent(rng, random_partition(rng, n))
            bumped = [list(row) for row in m.array]
            i = rng.randrange(n)
            bumped[i][i] += Fraction(rng.randint(1, 3), rng.randint(1, 2)) * rng.choice([1, -1])
            for a in (m, MatrixQ(bumped)):
                try:
                    NilpotentOperator(a)
                    want = True
                except NotNilpotentError:
                    want = False
                assert _nilpotent(sparse(a)) == want
                verdicts.add(want)
    assert verdicts == {True, False}
