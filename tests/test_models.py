import itertools
import random
from fractions import Fraction

import pytest

from phl.linalg import MatrixQ, inverse, kernel
from phl.models import (
    ModelError,
    ModelSpec,
    SpecError,
    build_model,
    default_gram,
    lefschetz,
    matching_integral,
    monomial_bidegree,
    monomials,
    validate,
)
from phl.perverse import perverse_filtration

from test_linalg import canonical, ff_rank


def test_k3_default_betti(k3):
    assert k3.dims == [1, 22, 1]
    assert k3.total_dim == 24


def test_k3_sigma_cup_sigma_bar_is_point(k3):
    # H^4 is spanned by the monomial x_21^2, whose integral is q(e_21, e_21) = -1
    assert k3.integral_vec == (Fraction(-1),)
    point = [Fraction(1) / k3.integral_vec[0]]  # the H^4 vector with integral 1
    prod = k3.cup(1, k3.classes.sigma, 1, k3.classes.sigma_bar)
    assert list(prod) == point
    assert k3.integral(prod) == 1


def test_k3_hodge_middle_row(k3):
    counts = {}
    for p, q in k3.bidegrees[1]:
        counts[(p, q)] = counts.get((p, q), 0) + 1
    assert counts == {(2, 0): 1, (0, 2): 1, (1, 1): 20}


def test_b2_four_rejected_with_exception_message():
    with pytest.raises(ModelError, match="b2 = 4"):
        build_model(ModelSpec(kind="k3", n=1, b2=4))


def test_small_b2_rejected():
    with pytest.raises(ModelError):
        build_model(ModelSpec(kind="k3", n=1, b2=3))


def test_degenerate_gram_rejected():
    g = default_gram(5)
    g[4][4] = 0  # kills the last diagonal entry
    with pytest.raises(ModelError):
        build_model(ModelSpec(kind="k3", n=1, b2=5, gram=g))


def test_verbitsky_out_of_scale():
    with pytest.raises(ModelError):
        build_model(ModelSpec(kind="verbitsky", n=4, b2=5))
    with pytest.raises(ModelError):
        build_model(ModelSpec(kind="verbitsky", n=2, b2=9))


CUSTOM_GRAM_B5 = [["0", "1", "0", "0", "0"],
                  ["1", "0", "0", "0", "0"],
                  ["0", "0", "0", "1", "0"],
                  ["0", "0", "1", "0", "0"],
                  ["0", "0", "0", "0", "-1/2"]]


@pytest.mark.parametrize("kind", ["k3", "verbitsky"])
@pytest.mark.parametrize("doc", [{"b2": 22}, {"b2": 5, "gram": CUSTOM_GRAM_B5}], ids=["b22", "b5_custom"])
def test_n1_integrals_are_the_form(kind, doc):
    # closed form of the K3 ring: int e_i e_j = q(e_i, e_j), whatever basis
    # vector spans H^4
    m = build_model(ModelSpec.from_json_dict({"kind": kind, "n": 1, **doc}))
    b2 = m.quad.b2
    assert m.dims == [1, b2, 1]
    for i in range(b2):
        ei = [Fraction(int(c == i)) for c in range(b2)]
        for j in range(b2):
            ej = [Fraction(int(c == j)) for c in range(b2)]
            assert m.integral(m.cup(1, ei, 1, ej)) == m.quad.gram[i][j]


def test_three_matchings_of_four_points(verb_n2_b5):
    rng = random.Random(4)
    m = verb_n2_b5
    for _ in range(5):
        a = [Fraction(rng.randint(-3, 3)) for _ in range(5)]
        sq = m.cup(1, a, 1, a)
        fourth = m.cup(2, sq, 2, sq)
        assert m.integral(fourth) == 3 * m.q(a, a) ** 2


def test_verbitsky_n2_b5_dims_against_bruteforce_pairing(verb_n2_b5):
    # independent oracle: rebuild the 15x5 matching-sum pairing by direct
    # enumeration and take its rank with the fraction-free eliminator
    gram = default_gram(5)
    sym2 = list(itertools.combinations_with_replacement(range(5), 2))
    sym3 = list(itertools.combinations_with_replacement(range(5), 3))
    assert (len(sym3), len(sym2)) == (35, 15)

    def pairings(items):
        if not items:
            yield []
            return
        x, rest = items[0], items[1:]
        for t, y in enumerate(rest):
            for sub in pairings(rest[:t] + rest[t + 1 :]):
                yield [(x, y)] + sub

    def integral(factors):
        tot = Fraction(0)
        for pr in pairings(list(factors)):
            term = Fraction(1)
            for u, v in pr:
                term *= gram[u][v]
            tot += term
        return tot

    mat = [[integral(a + b) for b in sym2] for a in sym2]
    rank15 = ff_rank([[Fraction(x) for x in row] for row in mat])
    assert rank15 == 15  # Sym^2 embeds whole: degree-4 piece is 15-dim
    mat2 = [[integral(a + b) for b in [(i,) for i in range(5)]] for a in sym3]
    rank35x5 = ff_rank([[Fraction(x) for x in row] for row in mat2])
    assert rank35x5 == 5  # degree-6 piece is Sym^3 mod a 30-dim kernel
    assert verb_n2_b5.dims == [1, 5, 15, 5, 1]
    assert verb_n2_b5.total_dim == 27


@pytest.mark.parametrize("n,b2", [(2, 5), (2, 7), (3, 5)])
def test_verbitsky_graded_dims_binomial(shipped_models, n, b2):
    m = shipped_models[f"verbitsky_n{n}_b{b2}"]
    from math import comb

    for d in range(0, 2 * n + 1):
        dd = min(d, 2 * n - d)
        assert m.dims[d] == comb(b2 + dd - 1, dd)


def test_validate_passes_on_shipped_models(shipped_models):
    for name, m in shipped_models.items():
        rep = validate(m)
        assert rep.all_pass, (name, [r.name for r in rep.failures()])


def _bump(t, i, j, k):
    """Add 1 to the structure constant of e_i * e_j at e_k."""
    col = t.setdefault((i, j), {})
    col[k] = col.get(k, 0) + 1


def _bump_last_projection(m, d):
    """Add 1 to one entry of the projection column of the last non-basis
    monomial of Sym^d."""
    piece = m.quotients[d]
    c = max(set(range(len(piece.mono))) - set(piece.basis_monomials))
    col = piece.proj.setdefault(c, {})
    col[0] = col.get(0, 0) + 1


def _negate_conj_entry(m, d, r):
    a = [list(row) for row in m.conj[d].array]
    a[r][r] = -a[r][r]
    m.conj[d] = MatrixQ(a)


# one corruption per structural check of validate, with the witnesses the
# dense-tensor checks gave for the same corruption; for the kernel ideal, the
# witnesses of dropping the last row of the RREF of K_4, the row whose pivot
# is the monomial bumped here
CORRUPTIONS = [
    ("algebra_unit", lambda m: m.mult[(0, 1)][(0, 2)].update({2: Fraction(2)}), [(1, 2, 2)]),
    ("algebra_commutative", lambda m: _bump(m.mult[(1, 2)], 0, 1, 2), [(2, 4), (4, 2)]),
    ("algebra_associative", lambda m: _bump(m.mult[(1, 1)], 0, 0, 3), [(2, 2, 2), (2, 2, 4), (4, 2, 2)]),
    (
        "poincare_nondegenerate",
        lambda m: setattr(m, "integral_vec", (Fraction(0),)),
        [0, 2, 4, 6, 8],
    ),
    ("mult_bigraded", lambda m: _bump(m.mult[(1, 1)], 2, 2, 0), [(2, 2, 2, 2, 0)]),
    ("conj_involution", lambda m: m.conj.__setitem__(1, MatrixQ([[2 * x for x in row] for row in m.conj[1].array])), [("involution", 2)]),
    ("conj_algebra_map", lambda m: _negate_conj_entry(m, 1, 4), [(2, 2), (2, 4), (2, 6), (4, 2), (6, 2)]),
    ("verbitsky_kernel_ideal", lambda m: _bump_last_projection(m, 4), [(6, 7, 4), (6, 8, 3), (6, 26, 4), (6, 27, 3)]),
]


@pytest.mark.parametrize("check,corrupt,witnesses", CORRUPTIONS, ids=[c[0] for c in CORRUPTIONS])
def test_corrupted_model_fails_named_check(check, corrupt, witnesses):
    m = build_model(ModelSpec(kind="verbitsky", n=2, b2=5))  # validated
    corrupt(m)
    rep = validate(m)
    assert not rep[check].passed
    assert rep[check].witnesses == witnesses


def test_kernel_ideal_probe_runs_on_verbitsky(verb_n3_b5):
    rep = validate(verb_n3_b5)
    assert "verbitsky_kernel_ideal" in rep
    assert rep["verbitsky_kernel_ideal"].passed


@pytest.mark.parametrize("n,b2", [(2, 5), (3, 5)])
def test_pairing_kernel_equals_harmonic_contraction_kernel(shipped_models, n, b2):
    # cross-construction: K_{n+1} == ker of the Laplacian-type contraction
    # Sym^{n+1} -> Sym^{n-1} built from the inverse gram matrix
    m = shipped_models[f"verbitsky_n{n}_b{b2}"]
    gram = m.quad.gram
    qinv = inverse(MatrixQ(gram)).array
    up = monomials(b2, n + 1)
    down = monomials(b2, n - 1)
    down_idx = {e: t for t, e in enumerate(down)}
    lap = [[0] * len(up) for _ in down]
    for c, exp in enumerate(up):
        for i in range(b2):
            for j in range(b2):
                if qinv[i][j] == 0:
                    continue
                e = list(exp)
                if i == j:
                    coeff = exp[i] * (exp[i] - 1)
                    e[i] -= 2
                else:
                    coeff = exp[i] * exp[j]
                    e[i] -= 1
                    e[j] -= 1
                if coeff:
                    lap[down_idx[tuple(e)]][c] += qinv[i][j] * coeff
    harmonic = kernel(MatrixQ(lap))

    from phl.models import _pairing_matrix

    pm = _pairing_matrix(gram, up, monomials(b2, n - 1))
    pairing_kernel = kernel(pm.transpose())
    assert harmonic == pairing_kernel


@pytest.mark.parametrize("name", ["verbitsky_n2_b5", "verbitsky_n2_b7", "verbitsky_n3_b5"])
def test_quotient_pieces_match_the_pairing_kernel(shipped_models, name):
    # the builder reads each quotient piece off the pairing map and never
    # forms K_d; the kernel of the same map gives it a second way
    from phl.models import _pairing_matrix

    m = shipped_models[name]
    n, b2 = m.n, m.quad.b2
    for d in range(n + 1, 2 * n + 1):
        piece = m.quotients[d]
        kern = kernel(_pairing_matrix(m.quad.gram, monomials(b2, 2 * n - d), piece.mono))
        assert [c for c in range(len(piece.mono)) if c not in kern.pivots] == piece.basis_monomials
        # so row r of the RREF has its pivot at the r-th non-basis monomial
        for row, c in zip(kern.grid, kern.pivots):
            gen = [Fraction(0)] * len(piece.mono)
            gen[c] = Fraction(1)
            for t, x in piece.proj.get(c, {}).items():
                gen[piece.basis_monomials[t]] = -x
            assert row == tuple(gen)


def test_fujiki_relation(verb_n2_b5, verb_n3_b5):
    rng = random.Random(8)
    for m, trials in ((verb_n2_b5, 20), (verb_n3_b5, 20)):
        n = m.n
        dfact = 1
        for t in range(1, 2 * n, 2):
            dfact *= t
        for _ in range(trials):
            a = [Fraction(rng.randint(-3, 3)) for _ in range(m.quad.b2)]
            power = [Fraction(1)]
            deg = 0
            for _ in range(2 * n):
                power = m.cup(deg, power, 1, a)
                deg += 1
            assert m.integral(power) == dfact * m.q(a, a) ** n


def test_conjugation_fixes_beta_omega_swaps_sigma(k3, verb_n2_b5):
    for m in (k3, verb_n2_b5):
        c2 = m.conj[1]
        assert c2.apply(m.classes.sigma) == m.classes.sigma_bar
        assert c2.apply(m.classes.sigma_bar) == m.classes.sigma
        assert c2.apply(m.classes.beta) == m.classes.beta
        assert c2.apply(m.classes.omega) == m.classes.omega


def test_lefschetz_zero_class(k3):
    zero = [0] * 22
    assert k3.lefschetz_matrix(zero).is_zero()


def test_k3_l_beta_squares_to_zero(k3):
    lb = k3.lefschetz_matrix(k3.classes.beta)
    assert (lb @ lb).is_zero()
    assert lefschetz(k3, k3.classes.beta).index == 1


def test_verbitsky_n2_l_beta_nilpotency(verb_n2_b5):
    # direct power oracle in Sym: beta^2 != 0, beta^3 = 0
    lb = verb_n2_b5.lefschetz_matrix(verb_n2_b5.classes.beta)
    assert not (lb @ lb).is_zero()
    assert (lb @ lb @ lb).is_zero()
    assert lefschetz(verb_n2_b5, verb_n2_b5.classes.beta).index == 2


def test_monomial_bidegree():
    assert monomial_bidegree((2, 0, 0, 0, 0)) == (4, 0)  # sigma^2
    assert monomial_bidegree((0, 1, 1, 0, 0)) == (1, 3)  # sigma_bar * h11
    assert monomial_bidegree((1, 1, 0, 0, 0)) == (2, 2)


def test_matching_integral_odd_count_vanishes():
    assert matching_integral(default_gram(5), [0, 1, 2]) == 0


def test_spec_json_parsing():
    spec = ModelSpec.from_json_dict({"kind": "k3"})
    assert (spec.n, spec.b2) == (1, 22)
    spec = ModelSpec.from_json_dict({"kind": "k3", "b2": 5, "gram": CUSTOM_GRAM_B5})
    assert spec.gram[4][4] == Fraction(-1, 2)
    build_model(spec)  # scaled diagonal entry is still a valid model
    with pytest.raises(SpecError):
        ModelSpec.from_json_dict({"kind": "elliptic"})
    with pytest.raises(SpecError):
        ModelSpec.from_json_dict({"kind": "k3", "extra": 1})
    with pytest.raises(SpecError):
        ModelSpec.from_json_dict({"kind": "verbitsky", "b2": 5})


@pytest.mark.parametrize(
    "entry,value", [(3, 3), ("-3", -3), ("+2", 2), ("-1/2", Fraction(-1, 2)), ("4/2", 2)]
)
def test_gram_entry_spellings_accepted(entry, value):
    gram = [[entry]]
    parsed = ModelSpec.from_json_dict({"kind": "k3", "b2": 5, "gram": gram}).gram[0][0]
    assert parsed == value and type(parsed) is type(value)


@pytest.mark.parametrize(
    "entry",
    ["0.5", "1e3", "9e999999", " 1", "1/", "/2", "1/0", "1_0", "١", "9" * 5000, True, 1.5, None],
)
def test_gram_entry_spellings_rejected(entry):
    # only "p" or "p/q" in decimal digits: an exponent would let a short
    # string stand for a huge integer
    with pytest.raises(SpecError, match="not a rational"):
        ModelSpec.from_json_dict({"kind": "k3", "b2": 5, "gram": [[entry]]})


def test_shipped_models_hold_canonical_scalars(shipped_models):
    for name, m in shipped_models.items():
        perv = perverse_filtration(m)
        steps = [perv.step(j, d) for d in range(m.pieces) for j in range(2 * d - 2 * m.n, 2 * d + 1)]
        stored = {
            "mult": [x for t in m.mult.values() for col in t.values() for x in col.values()],
            "gram": [x for row in m.quad.gram for x in row],
            "classes": [x for c in m.classes.as_rows() for x in c],
            "integral_vec": list(m.integral_vec),
            "conj": [x for c in m.conj for row in c.array for x in row],
            "l_beta": [x for b in lefschetz(m, m.classes.beta).blocks for row in b.array for x in row],
            "perverse_steps": [x for s in steps for row in s.grid for x in row],
        }
        for what, xs in stored.items():
            bad = [x for x in xs if not canonical(x)]
            assert not bad, (name, what, bad[:3])
    n2_b5 = shipped_models["verbitsky_n2_b5"]
    consts = [x for t in n2_b5.mult.values() for col in t.values() for x in col.values()]
    # n2_b5 keeps its non-integer structure constants as Fractions
    assert (len(consts), sum(type(x) is Fraction for x in consts)) == (179, 40)


def test_rescale_requires_nonzero(k3):
    with pytest.raises(ModelError):
        k3.rescale_classes(beta_scale=0)
