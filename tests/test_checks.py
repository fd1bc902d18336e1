import random
from fractions import Fraction

from phl.checks import (
    CONJUGATION,
    POINCARE,
    SignedPermutation,
    bounds_check,
    commutator_nilpotency_check,
    octahedral_group,
    octahedral_symmetry_check,
    octahedron_conjecture_check,
    pf_symmetry_check,
    run_check_suite,
)
from phl.perverse import PerverseHodgeCube

from conftest import dense
from test_perverse import K3_GOLDEN


def test_group_has_48_elements_split_24_24():
    g = octahedral_group()
    assert len(g.rotations) == 24
    assert len(g.reflections) == 24
    assert len(set(g.elements)) == 48


def test_group_closed_and_contains_identity():
    g = octahedral_group()
    elements = set(g.elements)
    ident = SignedPermutation((0, 1, 2), (1, 1, 1))
    assert ident in elements
    rng = random.Random(2)
    sample = rng.sample(list(elements), 12)
    for a in sample:
        for b in sample:
            assert a.compose(b) in elements
    # rotations form a subgroup
    for a in g.rotations[:8]:
        for b in g.rotations[:8]:
            assert a.compose(b).determinant == 1


def test_passing_symmetries_compose():
    # cube invariant only under part of the group: the passing elements
    # form a stabilizer subgroup, so composites of passers pass
    entries = dict(K3_GOLDEN)
    entries[(1, 0, 1)] = 2
    entries[(-1, 0, 1)] = 2  # i-conjugation kept, i<->k swap broken
    c = PerverseHodgeCube(n=1, entries=entries)
    g = octahedral_group()
    passing = [el for el in g.elements if not _witnesses(c, el)]
    assert 0 < len(passing) < 48
    for a in passing[:10]:
        for b in passing[:10]:
            assert not _witnesses(c, a.compose(b))


def _witnesses(c, g):
    from phl.checks import _symmetry_witnesses

    return _symmetry_witnesses(c, g)


def test_conjugation_and_poincare_are_reflections():
    assert CONJUGATION.determinant == -1
    assert POINCARE.determinant == -1
    assert CONJUGATION.apply((1, 2, 3)) == (-1, 2, 3)
    assert POINCARE.apply((1, 2, 3)) == (-1, -2, -3)


def test_bounds_check_k3(k3_cube):
    rep = bounds_check(k3_cube)
    assert rep.all_pass
    assert rep["square_bounds"].data["observed"]["1"]["max_abs_i"] == 1


def test_bounds_check_injected_entry_fails():
    entries = dict(K3_GOLDEN)
    entries[(3, 0, 1)] = 1
    rep = bounds_check(PerverseHodgeCube(n=1, entries=entries))
    assert not rep.all_pass
    assert [3, 0, 1, 1] in rep["square_bounds"].witnesses


def test_bounds_check_shipped(shipped_cubes):
    for name, c in shipped_cubes.items():
        assert bounds_check(c).all_pass, name


def test_pf_symmetry_k3_and_shipped(shipped_cubes):
    for name, c in shipped_cubes.items():
        assert pf_symmetry_check(c).all_pass, name


def test_pf_symmetry_transpose_broken_fails():
    entries = dict(K3_GOLDEN)
    entries[(1, 0, 1)] = 2  # now h(1,0,1) != h(0,1,1)
    rep = pf_symmetry_check(PerverseHodgeCube(n=1, entries=entries))
    assert not rep.all_pass


def test_octahedral_symmetry_k3(k3_cube):
    rep = octahedral_symmetry_check(k3_cube)
    assert rep.all_pass
    assert rep["octahedral_rotations"].data == {"elements": 24, "failing": 0}
    assert rep["octahedral_reflections"].data == {"elements": 24, "failing": 0}


def test_octahedral_symmetry_shipped(shipped_cubes):
    for name, c in shipped_cubes.items():
        rep = octahedral_symmetry_check(c)
        assert rep.all_pass, (name, [r.name for r in rep.failures()])


def test_conjugation_broken_cube_fails_conjugation_element():
    entries = dict(K3_GOLDEN)
    entries[(1, 0, 1)] = 2
    entries[(-1, 0, 1)] = 0
    entries = {k: v for k, v in entries.items() if v}
    rep = octahedral_symmetry_check(PerverseHodgeCube(n=1, entries=entries))
    assert not rep["conjugation_symmetry"].passed


def test_conjecture_check_k3(k3_cube):
    rep = octahedron_conjecture_check(k3_cube)
    assert rep.all_pass
    assert rep["conjecture_vertices"].data["vertices"] == {
        "unit": 1,
        "point": 1,
        "sigma_power": 1,
        "sigma_bar_power": 1,
        "perverse_min": 1,
        "perverse_max": 1,
    }
    # support is exactly the six vertices plus the center
    assert set(k3_cube.entries) == {
        (0, 0, 0),
        (0, 0, 2),
        (1, 0, 1),
        (-1, 0, 1),
        (0, 1, 1),
        (0, -1, 1),
        (0, 0, 1),
    }


def test_conjecture_check_shipped(shipped_cubes):
    for name, c in shipped_cubes.items():
        assert octahedron_conjecture_check(c).all_pass, name


def test_conjecture_support_violation_witnessed():
    rep = octahedron_conjecture_check(
        PerverseHodgeCube(n=1, entries={(1, 1, 1): 1, (0, 0, 0): 1})
    )
    assert not rep["conjecture_support"].passed
    assert [1, 1, 1, 1] in rep["conjecture_support"].witnesses


def test_conjecture_missing_vertex_witnessed():
    entries = {k: v for k, v in K3_GOLDEN.items() if k != (0, 1, 1)}
    rep = octahedron_conjecture_check(PerverseHodgeCube(n=1, entries=entries))
    assert not rep["conjecture_vertices"].passed


def test_conjecture_pass_implies_bounds_pass(shipped_cubes):
    rng = random.Random(41)
    cubes = list(shipped_cubes.values())
    # plus random synthetic cubes supported inside the octahedron
    for _ in range(10):
        n = rng.randint(1, 3)
        entries = {(0, 0, 0): 1, (0, 0, 2 * n): 1, (n, 0, n): 1, (-n, 0, n): 1,
                   (0, n, n): 1, (0, -n, n): 1}
        for _ in range(rng.randint(0, 6)):
            d = rng.randint(0, 2 * n)
            w = min(d, 2 * n - d)
            if w == 0:
                continue
            i = rng.randint(-w, w)
            k = rng.randint(-(w - abs(i)), w - abs(i))
            entries[(i, k, d)] = rng.randint(1, 4)
        cubes.append(PerverseHodgeCube(n=n, entries=entries))
    for c in cubes:
        if octahedron_conjecture_check(c).all_pass:
            assert bounds_check(c).all_pass


def test_commutator_check_k3(k3, k3_cube):
    rep = commutator_nilpotency_check(k3, k3_cube)
    assert rep.all_pass, [r.name for r in rep.failures()]
    assert rep["commutator_nilpotency"].data["duality_corrected_degrees"] == [4]


def test_k3_antidiagonal_sums_match_commutator_weights(k3, k3_cube):
    # middle degree: strings sigma_bar -> beta and beta_dual -> -sigma give
    # graded dims (2, 18, 2), matching the antidiagonal sums of the slice
    sums = {}
    for (i, k), h in k3_cube.slice(1).items():
        sums[i + k] = sums.get(i + k, 0) + h
    assert sums == {-1: 2, 0: 18, 1: 2}
    from phl.filtration import NilpotentOperator, weight_filtration
    from phl.lie import bracket, hodge_q_grading, sl2_complete

    lam = sl2_complete(k3.lefschetz_matrix(k3.classes.sigma_bar), hodge_q_grading(k3))
    comm = dense(bracket(k3.lefschetz_matrix(k3.classes.beta), lam), 24).array
    blk = [row[1:23] for row in comm[1:23]]
    op = NilpotentOperator(blk)
    assert op.index == 1
    assert weight_filtration(op, 1).graded_dims == (2, 18, 2)


def test_commutator_check_scale_invariance(k3):
    rng = random.Random(71)
    base = commutator_nilpotency_check(k3)
    statuses = {r.name: r.status for r in base.results}
    for _ in range(2):
        b = Fraction(rng.randint(1, 7), rng.randint(1, 7)) * rng.choice([1, -1])
        s = Fraction(rng.randint(1, 7), rng.randint(1, 7)) * rng.choice([1, -1])
        rep = commutator_nilpotency_check(k3.rescale_classes(beta_scale=b, sigma_scale=s))
        assert {r.name: r.status for r in rep.results} == statuses


def test_run_check_suite_verb_n2_b5(verb_n2_b5):
    rep, c = run_check_suite(verb_n2_b5)
    assert rep.all_pass, [r.name for r in rep.failures()]
    assert c.total() == 27
    names = [r.name for r in rep.results]
    assert len(names) == len(set(names))  # every check registered exactly once


def test_commutator_checks_fail_on_a_degree_mixing_partner(k3, k3_cube):
    # Λ_σ̄ plus a 1 from H^4 to H^0 makes [L_β, Λ] mix degrees 0, 2 and 4
    from phl.lie import hodge_q_grading, sl2_complete, so6_report

    lam = sl2_complete(k3.lefschetz_matrix(k3.classes.sigma_bar), hodge_q_grading(k3))
    lam[(0, 23)] = lam.get((0, 23), 0) + 1
    rep = commutator_nilpotency_check(k3, k3_cube, lam_sigma_bar=lam)
    assert [r.name for r in rep.results] == ["commutator_degree_preserving"]
    assert rep["commutator_degree_preserving"].witnesses == [[0, 2], [2, 4]]
    so6 = so6_report(k3, lam_sigma_bar=lam)
    assert [r.name for r in so6.failures()] == [
        "llv_contains_lambda_sigma_bar",
        "llv_commutator_member",
    ]


def test_commutator_checks_fail_on_a_non_nilpotent_commutator(k3, k3_cube):
    # with the transpose of L_β as partner, [L_β, L_β^T] preserves degree
    # but is a nonzero symmetric operator on every piece
    from phl.lie import so6_report

    lam = {(j, i): x for (i, j), x in k3.lefschetz_matrix(k3.classes.beta).items()}
    rep = commutator_nilpotency_check(k3, k3_cube, lam_sigma_bar=lam)
    assert rep["commutator_degree_preserving"].passed
    assert rep["commutator_nilpotency"].witnesses == [
        [0, "not nilpotent", 0],
        [2, "not nilpotent", 1],
        [4, "not nilpotent", 0],
    ]
    assert rep["antidiagonal_sums"].witnesses == [[0], [2], [4]]
    assert [r.name for r in rep.failures()] == ["commutator_nilpotency", "antidiagonal_sums"]
    so6 = so6_report(k3, lam_sigma_bar=lam)
    assert [r.name for r in so6.failures()] == ["llv_commutator_nilpotent"]
