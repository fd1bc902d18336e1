import json
from fractions import Fraction

import pytest

from phl.filtration import verify_weight_axioms
from phl.linalg import MatrixQ, Subspace, kernel
from phl.perverse import (
    PerverseHodgeCube,
    cube,
    diamond_and_betti,
    hodge_filtration_via_sigma_bar,
    hodge_item1_comparison,
    perverse_filtration,
)

K3_GOLDEN = {
    (0, 0, 0): 1,
    (0, 0, 2): 1,
    (1, 0, 1): 1,
    (-1, 0, 1): 1,
    (0, 1, 1): 1,
    (0, -1, 1): 1,
    (0, 0, 1): 18,
}


def coord_span(total, coords):
    rows = []
    for c in coords:
        row = [Fraction(0)] * total
        row[c] = Fraction(1)
        rows.append(row)
    return Subspace.span(rows, ambient_dim=total)


def test_k3_hodge_w0_is_sigma_bar_and_point(k3):
    filt = hodge_filtration_via_sigma_bar(k3)
    # W_0 lives in q >= 2: sigma_bar (coordinate 1+1) and the point class
    sigma_bar_coord = 1 + k3.quad.sigma_bar_index
    w0_total = Subspace.span(
        [row for m in (0, 2, 4) for row in filt.steps[m][0].grid],
        ambient_dim=k3.total_dim,
    )
    assert w0_total == coord_span(24, [sigma_bar_coord, 23])


def test_k3_hodge_top_step_is_degree_piece(k3):
    filt = hodge_filtration_via_sigma_bar(k3)
    assert filt.steps[2][2] == Subspace.coordinates(k3.total_dim, k3.block_indices(1))


def test_verbitsky_hodge_graded_dims_match_bidegree_counts(verb_n2_b5):
    m = verb_n2_b5
    filt, mismatches = hodge_item1_comparison(m)
    assert mismatches == []
    for d in range(m.pieces):
        for k in range(0, 2 * m.n + 1):
            expect = sum(1 for (p, q) in m.bidegrees[d] if q >= 2 * m.n - k)
            assert filt.steps[2 * d][k].dim == expect


def test_k3_perverse_middle_degree(k3):
    perv = perverse_filtration(k3)
    chain = perv.graded.steps[2]
    beta_coord = 1 + 2  # beta is the third degree-2 basis vector
    assert chain[0] == coord_span(24, [beta_coord])
    # P_1 is the q-orthogonal of beta inside H^2
    gram = k3.quad.gram
    constraints = [[0] * 24]
    for j in range(22):
        constraints[0][1 + j] = gram[2][j]
    constraints[0][0] = 1  # exclude H^0
    perp = kernel(MatrixQ(constraints))
    h2 = Subspace.coordinates(k3.total_dim, k3.block_indices(1))
    from phl.linalg import meet

    assert chain[1] == meet(perp, h2)
    assert chain[1].dim == 21
    assert chain[2] == h2
    assert perv.graded.graded_dims(2) == [1, 20, 1]


def test_k3_perverse_degree_zero(k3):
    perv = perverse_filtration(k3)
    assert perv.graded.steps[0][0] == Subspace.coordinates(k3.total_dim, k3.block_indices(0))
    assert perv.graded.step(0, -1).dim == 0


def test_verbitsky_h4_graded_dims_sum(verb_n2_b5):
    perv = perverse_filtration(verb_n2_b5)
    assert sum(perv.graded.graded_dims(4)) == 15


def test_perverse_weight_axioms_inherited(verb_n2_b5):
    perv = perverse_filtration(verb_n2_b5)
    assert verify_weight_axioms(perv.operator, perv.weight).all_pass


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
    perv = perverse_filtration(verb_n2_b5)
    c = cube(verb_n2_b5, perv=perv)
    for d in range(verb_n2_b5.pieces):
        lo, _ = perv.graded.ranges[2 * d]
        graded = perv.graded.graded_dims(2 * d)
        for idx, g in enumerate(graded):
            k = lo + idx - d
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
    # cube(check=True) asserts bigradedness; also spot-check one step by hand
    perv = perverse_filtration(verb_n2_b5)
    cube(verb_n2_b5, perv=perv, check=True)
    step = perv.graded.steps[4][2]
    for row in step.grid:
        parts = {}
        for c, x in enumerate(row):
            if x:
                d = 2  # degree-4 block of the n=2 model
                p = verb_n2_b5.bidegrees[d][c - verb_n2_b5.offsets[d]][0]
                parts.setdefault(p, [Fraction(0)] * len(row))[c] = x
        for v in parts.values():
            assert step.contains(v)
