"""Bounds, symmetries and conjecture checks on a perverse-Hodge cube.

The symmetry group is the full signed-permutation group of the
coordinates (i, k, d-n): 48 elements, of which the 24 of determinant +1
are the rotational octahedral symmetries predicted by the Weyl group
S_4; the 24 reflections (conjugation and Poincare duality among them)
are reported separately.
"""

from __future__ import annotations

import itertools
import time
from typing import NamedTuple

from .filtration import NilpotentOperator, NotNilpotentError, verify_weight_axioms, weight_filtration
from .lie import bracket, hodge_q_grading, sl2_complete, so6_report
from .models import GradedAlgebraModel, validate
from .perverse import PerverseHodgeCube, cube, hodge_item1_comparison, perverse_filtration
from .report import CheckReport

__all__ = [
    "SignedPermutation",
    "SymmetryGroupSpec",
    "octahedral_group",
    "bounds_check",
    "pf_symmetry_check",
    "octahedral_symmetry_check",
    "octahedron_conjecture_check",
    "commutator_nilpotency_check",
    "run_check_suite",
]

_MAX_WITNESSES = 10


class SignedPermutation(NamedTuple):
    """v -> (signs[r] * v[perm[r]])_r acting on (i, k, d-n)."""

    perm: tuple
    signs: tuple

    def apply(self, v):
        return tuple(self.signs[r] * v[self.perm[r]] for r in range(3))

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other."""
        perm = tuple(other.perm[self.perm[r]] for r in range(3))
        signs = tuple(self.signs[r] * other.signs[self.perm[r]] for r in range(3))
        return SignedPermutation(perm, signs)

    @property
    def determinant(self) -> int:
        inversions = sum(
            1
            for a in range(3)
            for b in range(a + 1, 3)
            if self.perm[a] > self.perm[b]
        )
        sign = -1 if inversions % 2 else 1
        for s in self.signs:
            sign *= s
        return sign

    def __str__(self):
        names = "ike"
        parts = []
        for r in range(3):
            s = "-" if self.signs[r] < 0 else ""
            parts.append(f"{names[r]}'={s}{names[self.perm[r]]}")
        return ",".join(parts)


class SymmetryGroupSpec(NamedTuple):
    rotations: tuple
    reflections: tuple

    @property
    def elements(self):
        return self.rotations + self.reflections


def octahedral_group() -> SymmetryGroupSpec:
    rot, refl = [], []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            g = SignedPermutation(perm, signs)
            (rot if g.determinant == 1 else refl).append(g)
    return SymmetryGroupSpec(rotations=tuple(rot), reflections=tuple(refl))


CONJUGATION = SignedPermutation((0, 1, 2), (-1, 1, 1))
POINCARE = SignedPermutation((0, 1, 2), (-1, -1, -1))


def _transformed_entries(c: PerverseHodgeCube, g: SignedPermutation) -> dict:
    out = {}
    n = c.n
    for (i, k, d), h in c.entries.items():
        ii, kk, ee = g.apply((i, k, d - n))
        out[(ii, kk, ee + n)] = h
    return out


def _symmetry_witnesses(c: PerverseHodgeCube, g: SignedPermutation):
    if _transformed_entries(c, g) == c.entries:
        return []
    bad = []
    n = c.n
    for i, k, d in c.support():
        h = c.entries[(i, k, d)]
        ii, kk, ee = g.apply((i, k, d - n))
        got = c.get(ii, kk, ee + n)
        if got != h:
            bad.append([str(g), [i, k, d], h, [ii, kk, ee + n], got])
            if len(bad) >= _MAX_WITNESSES:
                break
    return bad


def bounds_check(c: PerverseHodgeCube) -> CheckReport:
    """h^{i,k,d} = 0 outside the square |i| <= d, |k| <= d, plus the
    observed per-slice support bounds."""
    rep = CheckReport()
    t0 = time.perf_counter()
    bad = []
    observed = {}
    for i, k, d in c.support():
        if abs(i) > d or abs(k) > d:
            bad.append([i, k, d, c.entries[(i, k, d)]])
        o = observed.setdefault(str(d), {"max_abs_i": 0, "max_abs_k": 0, "max_abs_i_plus_k": 0})
        o["max_abs_i"] = max(o["max_abs_i"], abs(i))
        o["max_abs_k"] = max(o["max_abs_k"], abs(k))
        o["max_abs_i_plus_k"] = max(o["max_abs_i_plus_k"], abs(i + k))
    rep.add(
        "square_bounds",
        not bad,
        witnesses=bad[:_MAX_WITNESSES],
        data={"observed": observed},
        seconds=time.perf_counter() - t0,
    )
    return rep


def pf_symmetry_check(c: PerverseHodgeCube) -> CheckReport:
    """The exchange h^{i,k,d} = h^{k,i,d} of perverse and Hodge indices."""
    rep = CheckReport()
    t0 = time.perf_counter()
    swap = SignedPermutation((1, 0, 2), (1, 1, 1))
    bad = _symmetry_witnesses(c, swap)
    rep.add("pf_symmetry", not bad, witnesses=bad, seconds=time.perf_counter() - t0)
    return rep


def octahedral_symmetry_check(c: PerverseHodgeCube) -> CheckReport:
    """Invariance under all 48 signed permutations of (i, k, d-n); the 24
    rotations carry the Weyl-group prediction, reflections are extra."""
    rep = CheckReport()
    group = octahedral_group()
    for name, elems in (("octahedral_rotations", group.rotations), ("octahedral_reflections", group.reflections)):
        t0 = time.perf_counter()
        bad = []
        failing = 0
        for g in elems:
            w = _symmetry_witnesses(c, g)
            if w:
                failing += 1
                if len(bad) < _MAX_WITNESSES:
                    bad.extend(w[:2])
        rep.add(
            name,
            failing == 0,
            witnesses=bad[:_MAX_WITNESSES],
            data={"elements": len(elems), "failing": failing},
            seconds=time.perf_counter() - t0,
        )
    for name, g in (("conjugation_symmetry", CONJUGATION), ("poincare_symmetry", POINCARE)):
        t0 = time.perf_counter()
        bad = _symmetry_witnesses(c, g)
        rep.add(name, not bad, witnesses=bad, seconds=time.perf_counter() - t0)
    return rep


_VERTEX_LABELS = ("unit", "point", "sigma_power", "sigma_bar_power", "perverse_min", "perverse_max")


def octahedron_conjecture_check(c: PerverseHodgeCube) -> CheckReport:
    """Support inside the octahedron |i| + |k| <= min(d, 2n-d) and all six
    vertices attained, so the convex hull of the support is exactly the
    octahedron with apexes at d = 0, 2n and equator vertices at d = n."""
    rep = CheckReport()
    n = c.n
    t0 = time.perf_counter()
    bad = [
        [i, k, d, c.entries[(i, k, d)]]
        for i, k, d in c.support()
        if abs(i) + abs(k) > min(d, 2 * n - d)
    ]
    rep.add(
        "conjecture_support",
        not bad,
        witnesses=bad[:_MAX_WITNESSES],
        seconds=time.perf_counter() - t0,
    )
    t0 = time.perf_counter()
    vertices = [
        (0, 0, 0),
        (0, 0, 2 * n),
        (n, 0, n),
        (-n, 0, n),
        (0, n, n),
        (0, -n, n),
    ]
    missing = [
        [label, list(v)]
        for label, v in zip(_VERTEX_LABELS, vertices)
        if c.get(*v) == 0
    ]
    rep.add(
        "conjecture_vertices",
        not missing,
        witnesses=missing,
        data={"vertices": {label: c.get(*v) for label, v in zip(_VERTEX_LABELS, vertices)}},
        seconds=time.perf_counter() - t0,
    )
    return rep


def commutator_nilpotency_check(
    model: GradedAlgebraModel,
    c: PerverseHodgeCube | None = None,
    lam_sigma_bar=None,
) -> CheckReport:
    """The avatar criterion nilp([L_beta, Λ_sigma_bar]|_{H^{2d}}) together
    with the antidiagonal identity of the cube.

    The criterion reads "= d"; Poincare duality caps the index at 2n - d
    above the middle, so min(d, 2n - d) is asserted and the degrees where
    the literal reading would differ are flagged in the data.
    """
    rep = CheckReport()
    n = model.n
    if lam_sigma_bar is None:
        lam_sigma_bar = sl2_complete(
            model.lefschetz_matrix(model.classes.sigma_bar), hodge_q_grading(model)
        )
    comm = bracket(model.lefschetz_matrix(model.classes.beta), lam_sigma_bar)

    t0 = time.perf_counter()
    piece = [d for d in range(model.pieces) for _ in range(model.dims[d])]
    pairs = sorted({(piece[i], piece[j]) for i, j in comm})
    bad = [[2 * d1, 2 * d2] for d1, d2 in pairs if d1 != d2]
    rep.add("commutator_degree_preserving", not bad, witnesses=bad, seconds=time.perf_counter() - t0)
    if bad:
        return rep

    if c is None:
        c = cube(model)

    t0 = time.perf_counter()
    blocks = [[[0] * dim for _ in range(dim)] for dim in model.dims]
    for (i, j), x in comm.items():
        off = model.offsets[piece[i]]
        blocks[piece[i]][i - off][j - off] = x
    bad = []
    filtrations = {}
    for d in range(model.pieces):
        expected = min(d, 2 * n - d)
        try:
            op = NilpotentOperator(blocks[d])
        except NotNilpotentError:
            bad.append([2 * d, "not nilpotent", expected])
            continue
        filtrations[d] = weight_filtration(op, op.index)
        if op.index != expected:
            bad.append([2 * d, op.index, expected])
    rep.add(
        "commutator_nilpotency",
        not bad,
        witnesses=bad,
        data={"duality_corrected_degrees": [2 * d for d in range(n + 1, 2 * n + 1)]},
        seconds=time.perf_counter() - t0,
    )

    t0 = time.perf_counter()
    bad = []
    for d in range(model.pieces):
        if d not in filtrations:
            bad.append([2 * d, "no weight filtration"])
            continue
        wf = filtrations[d]
        l = wf.center
        sums = {}
        for (i, k, dd), h in c.entries.items():
            if dd == d:
                sums[i + k] = sums.get(i + k, 0) + h
        expected = {cc - l: dim for cc, dim in enumerate(wf.graded_dims) if dim}
        if sums != expected:
            bad.append([2 * d, sums, expected])
    rep.add(
        "antidiagonal_sums",
        not bad,
        witnesses=[[w[0]] for w in bad],
        data={
            "detail": [
                [w[0], {str(k): v for k, v in w[1].items()} if isinstance(w[1], dict) else w[1]]
                for w in bad
            ]
        },
        seconds=time.perf_counter() - t0,
    )
    return rep


def run_check_suite(model: GradedAlgebraModel):
    """Full verification battery for one model; returns (report, cube)."""
    rep = CheckReport()
    rep.merge(model.validation if model.validation is not None else validate(model))

    perv = perverse_filtration(model)
    rep.merge(verify_weight_axioms(perv.operator, perv.weight))

    t0 = time.perf_counter()
    _, mismatches = hodge_item1_comparison(model)
    rep.add(
        "hodge_item1_match",
        not mismatches,
        witnesses=mismatches[:_MAX_WITNESSES],
        seconds=time.perf_counter() - t0,
    )

    cb = cube(model, perv=perv)
    rep.merge(pf_symmetry_check(cb))
    rep.merge(octahedral_symmetry_check(cb))
    rep.merge(bounds_check(cb))
    rep.merge(octahedron_conjecture_check(cb))

    lam = sl2_complete(
        model.lefschetz_matrix(model.classes.sigma_bar), hodge_q_grading(model)
    )
    rep.merge(commutator_nilpotency_check(model, cb, lam_sigma_bar=lam))
    rep.merge(so6_report(model, lam_sigma_bar=lam))
    return rep, cb
