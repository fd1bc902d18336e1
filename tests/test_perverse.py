import json
from fractions import Fraction

import pytest

from phl.filtration import NilpotentOperator, jordan_partition, verify_weight_axioms, weight_filtration
from phl.linalg import MatrixQ, Subspace, kernel, meet
from phl.models import lefschetz
from phl.perverse import (
    PerverseHodgeCube,
    cube,
    diamond_and_betti,
    hodge_item1_comparison,
    perverse_filtration,
)

from conftest import dense

K3_GOLDEN = {
    (0, 0, 0): 1,
    (0, 0, 2): 1,
    (1, 0, 1): 1,
    (-1, 0, 1): 1,
    (0, 1, 1): 1,
    (0, -1, 1): 1,
    (0, 0, 1): 18,
}

SHIPPED = ["k3_b22", "verbitsky_n2_b5", "verbitsky_n2_b7", "verbitsky_n3_b5"]


def perverse_graded_dims(perv, n, d):
    """dim Gr_j H^{2d} of the perverse filtration for j = 2d-2n..2d."""
    return [perv.step(j, d).dim - perv.step(j - 1, d).dim for j in range(2 * d - 2 * n, 2 * d + 1)]


def test_k3_hodge_w0_is_sigma_bar_and_point(k3):
    filt, mismatches = hodge_item1_comparison(k3)
    assert mismatches == []
    # W_0 lives in q >= 2: sigma_bar in H^2 and the point class in H^4
    assert [filt.step(0, d) for d in range(3)] == [
        Subspace.zero(1),
        Subspace.coordinates(22, [k3.quad.sigma_bar_index]),
        Subspace.full(1),
    ]


def test_k3_hodge_top_step_is_degree_piece(k3):
    filt, mismatches = hodge_item1_comparison(k3)
    assert mismatches == []
    assert filt.step(2, 1) == Subspace.full(22)


def test_verbitsky_hodge_graded_dims_match_bidegree_counts(verb_n2_b5):
    m = verb_n2_b5
    filt, mismatches = hodge_item1_comparison(m)
    assert mismatches == []
    for d in range(m.pieces):
        for k in range(0, 2 * m.n + 1):
            expect = sum(1 for (p, q) in m.bidegrees[d] if q >= 2 * m.n - k)
            assert filt.step(k, d).dim == expect


def test_k3_perverse_middle_degree(k3):
    perv = perverse_filtration(k3)
    beta = 2  # beta is the third degree-2 basis vector
    assert perv.step(0, 1) == Subspace.coordinates(22, [beta])
    # P_1 is the q-orthogonal of beta inside H^2
    perp = kernel(MatrixQ([list(k3.quad.gram[beta])]))
    assert perv.step(1, 1) == perp
    assert perv.step(1, 1).dim == 21
    assert perv.step(2, 1) == Subspace.full(22)
    assert perverse_graded_dims(perv, 1, 1) == [1, 20, 1]


def test_k3_perverse_degree_zero(k3):
    perv = perverse_filtration(k3)
    assert perv.step(0, 0) == Subspace.full(1)
    assert perv.step(-1, 0).dim == 0


def test_verbitsky_h4_graded_dims_sum(verb_n2_b5):
    perv = perverse_filtration(verb_n2_b5)
    assert sum(perverse_graded_dims(perv, 2, 2)) == 15


def test_perverse_weight_axioms_inherited(verb_n2_b5):
    perv = perverse_filtration(verb_n2_b5)
    assert verify_weight_axioms(perv.operator, perv.weight).all_pass


@pytest.mark.parametrize("cls", ["beta", "sigma_bar"])
@pytest.mark.parametrize("name", SHIPPED)
def test_per_piece_chains_equal_the_one_piece_path(shipped_models, name, cls):
    # the same filtration two ways: per piece from the blocks of L_x, and on
    # the whole space from the assembled matrix, then cut to each piece
    m = shipped_models[name]
    x = getattr(m.classes, cls)
    blocks, matrix = lefschetz(m, x), NilpotentOperator(dense(m.lefschetz_matrix(x), m.total_dim))
    assert jordan_partition(blocks) == jordan_partition(matrix)
    graded, whole = weight_filtration(blocks, m.n), weight_filtration(matrix, m.n)
    D = m.total_dim
    for d in range(m.pieces):
        lo, hi = m.offsets[d], m.offsets[d + 1]
        piece = Subspace.coordinates(D, range(lo, hi))
        for k in range(2 * m.n + 1):
            rows = [[0] * lo + list(row) + [0] * (D - hi) for row in graded.step(k, d).grid]
            assert meet(whole.step(k), piece) == Subspace.span(rows, ambient_dim=D), (d, k)
    assert graded.graded_dims == whole.graded_dims


def test_k3_cube_golden(k3_cube):
    assert k3_cube.entries == K3_GOLDEN


def test_verbitsky_n2_b5_cube_middle_slice(shipped_cubes):
    c = shipped_cubes["verbitsky_n2_b5"]
    sl = c.slice(2)
    assert sl[(2, 0)] == sl[(-2, 0)] == sl[(0, 2)] == sl[(0, -2)] == 1
    assert sl[(0, 0)] == 3
    assert sum(sl.values()) == 15
    assert c.total() == 27


def test_cube_purity_row_sums(verb_n2_b5):
    n = verb_n2_b5.n
    perv = perverse_filtration(verb_n2_b5)
    c = cube(verb_n2_b5, perv=perv)
    for d in range(verb_n2_b5.pieces):
        graded = perverse_graded_dims(perv, n, d)
        for idx, g in enumerate(graded):
            k = 2 * d - 2 * n + idx - d
            assert sum(h for (i, kk, dd), h in c.entries.items() if dd == d and kk == k) == g


def test_diamond_and_betti_k3(k3_cube):
    hodge, betti = diamond_and_betti(k3_cube)
    assert betti == [1, 0, 22, 0, 1]
    assert hodge == {(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1}


def test_diamond_and_betti_empty_cube():
    hodge, betti = diamond_and_betti(PerverseHodgeCube(n=1, entries={}))
    assert hodge == {}
    assert betti == [0, 0, 0, 0, 0]


def test_diamond_and_betti_verbitsky(shipped_cubes):
    _, betti = diamond_and_betti(shipped_cubes["verbitsky_n2_b5"])
    assert betti == [1, 0, 5, 0, 15, 0, 5, 0, 1]


def test_cube_serialization_round_trip(k3_cube):
    doc = k3_cube.to_json_dict()
    again = PerverseHodgeCube.from_json_dict(json.loads(json.dumps(doc)))
    assert again == k3_cube
    # entries sorted by (d, k, i), zeros omitted
    keys = [(e["d"], e["k"], e["i"]) for e in doc["entries"]]
    assert keys == sorted(keys)
    assert all(e["h"] for e in doc["entries"])


def test_cube_deserialization_rejects_bad_entries():
    with pytest.raises(ValueError):
        PerverseHodgeCube.from_json_dict({"n": 1, "entries": [{"i": 0, "k": 0, "d": 5, "h": 1}]})
    with pytest.raises(ValueError):
        PerverseHodgeCube.from_json_dict({"n": 1, "entries": [{"i": 0, "k": 0, "d": 1, "h": -2}]})
    with pytest.raises(ValueError):
        PerverseHodgeCube.from_json_dict({"n": 1})


def test_filtration_steps_are_bigraded(verb_n2_b5):
    # cube asserts bigradedness; also spot-check one step by hand, and that
    # each canonical row has one bidegree, which cube's pivot count relies on
    perv = perverse_filtration(verb_n2_b5)
    cube(verb_n2_b5, perv=perv)
    step = perv.step(2, 2)  # P_2 H^4 of the n=2 model
    for row in step.grid:
        parts = {}
        for c, x in enumerate(row):
            if x:
                p = verb_n2_b5.bidegrees[2][c][0]
                parts.setdefault(p, [Fraction(0)] * len(row))[c] = x
        assert len(parts) == 1
        for v in parts.values():
            assert step.contains(v)
