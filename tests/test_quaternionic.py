import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from quatheta.charoracle import char_weights, irrep, weyl_dim
from quatheta.quaternionic import (
    KTypeLedger,
    QuatModule,
    _CUBIC,
    _block_rank,
    _rank,
    _sym_char_chain,
    _vm_irrep,
    check_lemma_surjectivity,
    inf_char,
    ktypes,
    minimal_type,
    restrict_filtration,
    sym_power,
)
from quatheta.rootdata import _QUAT_ROWS, HalfInt, quaternionic_structure
from quatheta.verify import (
    LEDGER_ORACLE_CASES,
    ledger_levels_match_oracle,
    run_suite,
)


def h(p):
    return HalfInt(p)


class TestQuatModule:
    def test_single_factor_convenience(self):
        a = QuatModule("G2_2", (3,), 5, "A")
        b = QuatModule("G2_2", ((3,),), 5, "A")
        assert a == b
        assert a.wm == ((3,),)

    def test_fields_and_json(self):
        m = QuatModule("Spin(4,3)", ((0,), (1,)), 6, "A")
        assert m.wm_json() == [[0], [1]]
        assert m.to_json() == {
            "G": "Spin(4,3)", "wm": [[0], [1]], "s": 6, "quotient": False,
        }
        assert QuatModule.from_json(m.to_json()) == m

    def test_sigma_json_round_trip(self):
        m = QuatModule("Spin(4,3)", ((0,), (1,)), 7, "sigma")
        data = m.to_json()
        assert data["quotient"] is True
        assert QuatModule.from_json(data) == m

    def test_m_irrep(self):
        m = QuatModule("Spin(4,3)", ((0,), (1,)), 6, "A")
        r = m.m_irrep()
        assert r.labels == ("C1", "C1")
        assert r.twice_concat() == (0, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuatModule("Spin(4,3)", ((0,),), 6, "A")
        with pytest.raises(ValueError):
            QuatModule("Spin(4,3)", ((0,), (1,)), 6, "B")
        with pytest.raises(ValueError):
            QuatModule("SU(3,1)", ((0,),), 6, "A")

    def test_not_orderable(self):
        a = QuatModule("G2_2", (3,), 5, "A")
        b = QuatModule("G2_2", (1,), 5, "A")
        with pytest.raises(TypeError):
            sorted([a, b])


def test_minimal_type():
    m = QuatModule("Spin(4,3)", ((0,), (1,)), 6, "A")
    assert minimal_type(m) == (4, ((0,), (1,)))


# V_M of six quaternionic groups, and the vector representation of B3
CHAIN_CASES = {
    g: _vm_irrep(quaternionic_structure(g))
    for g in ("G2_2", "Spin(4,3)", "Spin(4,4)", "F4_4", "E6_4", "E8_4")
}
CHAIN_CASES["B3"] = irrep("B3", (1, 0, 0))

# (V_M, W) pairs for the chain seeded with chi_W
SEEDED_CASES = {
    "G2_2": (CHAIN_CASES["G2_2"], irrep("C1", (2,))),
    "Spin(4,3)": (CHAIN_CASES["Spin(4,3)"], irrep(("C1", "C1"), (1,), (2,))),
    "Spin(4,4)": (CHAIN_CASES["Spin(4,4)"],
                  irrep(("C1", "C1", "C1"), (1,), (0,), (1,))),
    "F4_4": (CHAIN_CASES["F4_4"], irrep("C3", (1, 0, 0))),
    "B3": (CHAIN_CASES["B3"], irrep("B3", (h(1), h(1), h(1)))),
}


class TestSymPower:
    def test_square_of_su2_adjoint(self):
        dec = sym_power(irrep("C1", (2,)), 2)
        got = {r.twice_concat(): m for r, m in dec.items()}
        assert got == {(0,): 1, (8,): 1}

    @pytest.mark.parametrize("vm", list(CHAIN_CASES.values()),
                             ids=list(CHAIN_CASES))
    def test_chain_matches_weight_multisets(self, vm):
        # S^k weights are the sums over k-multisets of the weights of V_M
        base = char_weights(vm)
        wts = [t for t, m in base.mults.items() for _ in range(m)]
        chain = _sym_char_chain(base, 4)
        for k, sym_c in enumerate(chain):
            want = Counter(
                tuple(map(sum, zip(*combo))) if combo else (0,) * len(wts[0])
                for combo in combinations_with_replacement(wts, k)
            )
            assert sym_c.labels == base.labels
            assert sym_c.mults == dict(want)

    @pytest.mark.parametrize("vm,w", list(SEEDED_CASES.values()),
                             ids=list(SEEDED_CASES))
    def test_seeded_chain_matches_weight_multisets(self, vm, w):
        # S^k(V_M) (x) W weights: a k-multiset sum of V_M weights plus a
        # weight of W
        base = char_weights(vm)
        w_char = char_weights(w)
        wts = [t for t, m in base.mults.items() for _ in range(m)]
        chain = _sym_char_chain(base, 3, seed=w_char)
        assert chain[0].mults == w_char.mults
        assert chain[0].mults is not w_char.mults  # the cache stays unshared
        for k, tau in enumerate(chain):
            want = Counter()
            for combo in combinations_with_replacement(wts, k):
                for t, m in w_char.mults.items():
                    want[tuple(map(sum, zip(t, *combo)))] += m
            assert tau.labels == base.labels
            assert tau.mults == dict(want)

    def test_dimension_is_binomial(self):
        # dim S^k(C^d) = C(d+k-1, k)
        from math import comb
        vm = irrep(("C1", "C1"), (1,), (2,))
        d = weyl_dim(vm)
        for k in range(4):
            assert sym_power(vm, k).dimension() == comb(d + k - 1, k)


@pytest.mark.parametrize(
    "g,wm,kmax", LEDGER_ORACLE_CASES,
    ids=[f"{g}-{i}" for i, (g, _, _) in enumerate(LEDGER_ORACLE_CASES)],
)
def test_levels_equal_the_stripped_chain(g, wm, kmax):
    # Newton-Klimyk levels against strip_dominant of the seeded chain
    assert ledger_levels_match_oracle(g, wm, kmax) == [True] * (kmax + 1)


def test_oracle_cases_cover_every_group_with_a_nontrivial_w():
    nontrivial = {
        g for g, wm, _ in LEDGER_ORACLE_CASES
        if any(c != 0 for f in wm for c in f)
    }
    assert nontrivial == set(_QUAT_ROWS)


def test_verify_line_counts_its_cases():
    lines, ok = run_suite("quaternionic")
    assert ok
    (line,) = [x for x in lines if "Newton-Klimyk" in x]
    count = int(re.search(r" on (\d+) \(group, W, level\) cases", line)[1])
    assert line.startswith("PASS") and count == sum(
        kmax + 1 for _, _, kmax in LEDGER_ORACLE_CASES
    ) > 0


SPIN43_LEVELS = {
    0: (4, {(0, 2): 1}),
    1: (5, {(2, 2): 1, (2, 6): 1}),
    2: (6, {(0, 2): 1, (0, 6): 1, (4, 2): 1, (4, 6): 1, (4, 10): 1}),
    3: (7, {(2, 2): 1, (2, 6): 2, (2, 10): 1, (6, 2): 1, (6, 6): 1,
            (6, 10): 1, (6, 14): 1}),
}


class TestKTypes:
    def test_ledger_golden(self):
        m = QuatModule("Spin(4,3)", ((0,), (1,)), 6, "A")
        led = ktypes(m, 3)
        assert led.module == m
        assert led.kmax == 3
        for k, (su0, dec) in enumerate(led):
            want_su0, want = SPIN43_LEVELS[k]
            assert su0 == want_su0
            assert {r.twice_concat(): mm for r, mm in dec.items()} == want

    def test_level_dimension(self):
        m = QuatModule("Spin(4,3)", ((0,), (1,)), 6, "A")
        led = ktypes(m, 2)
        assert led.level_dimension(0) == 5 * 2
        assert led.level_dimension(1) == 6 * 12
        assert led.level_dimension(2) == 7 * 42

    def test_json_round_trip(self):
        m = QuatModule("Spin(4,3)", ((0,), (1,)), 6, "A")
        led = ktypes(m, 2)
        data = led.to_json()
        back = KTypeLedger.from_json(data)
        assert back.module == led.module
        assert list(back) == list(led)

    @pytest.mark.parametrize("g,wm,s,kmax", [
        ("Spin(4,3)", ((1,), (2,)), 5, 3),
        ("G2_2", ((3,),), 5, 3),
        ("E7_4", ((0,) * 6,), 4, 2),  # odd levels hold "1/2" coordinates
    ], ids=["spin43", "g2", "e7"])
    def test_from_json_rebuilds_the_stripped_ledger(self, g, wm, s, kmax):
        # from_json builds each level from Irreps; ktypes strips tuples
        led = ktypes(QuatModule(g, wm, s, "A"), kmax)
        data = led.to_json()
        back = KTypeLedger.from_json(data)
        assert back == led
        assert back.to_json() == data
        for (su0, dec), (back_su0, back_dec) in zip(led, back):
            assert back_su0 == su0
            assert back_dec.mults == dec.mults
            assert back_dec.items() == dec.items()
            assert back_dec.dimension() == dec.dimension()
        if g == "E7_4":
            assert data["levels"][1]["mtypes"][0]["hw"] == ["1/2"] * 6

    def test_rejects_negative_kmax(self):
        m = QuatModule("Spin(4,3)", ((0,), (1,)), 6, "A")
        with pytest.raises(ValueError):
            ktypes(m, -1)


class TestInfChar:
    def test_golden(self):
        m = QuatModule("Spin(4,3)", ((0,), (1,)), 6, "A")
        w = inf_char(m)
        assert w.system == "B3"
        assert w.twice() == (3, 2, 1)

    def test_does_not_depend_on_quotient_flag(self):
        a = QuatModule("Spin(4,3)", ((1,), (2,)), 7, "A")
        s = QuatModule("Spin(4,3)", ((1,), (2,)), 7, "sigma")
        assert inf_char(a) == inf_char(s)


class TestRestrictFiltration:
    def test_golden(self):
        src = QuatModule("Spin(4,4)", ((0,), (1,), (2,)), 7, "A")
        filt = restrict_filtration(src, 2)
        assert len(filt) == 3
        for k, row in enumerate(filt):
            assert row == [
                QuatModule("Spin(4,3)", ((k,), (1,)), 7 + k, "A"),
                QuatModule("Spin(4,3)", ((k,), (3,)), 7 + k, "A"),
            ]

    def test_level_zero_counts(self):
        # level k has |CG(k, wm1)| * |CG(wm2, wm3)| summands
        src = QuatModule("Spin(4,4)", ((1,), (1,), (1,)), 5, "A")
        filt = restrict_filtration(src, 3)
        for k, row in enumerate(filt):
            n_u = len(range(abs(k - 1), k + 2, 2))
            assert len(row) == n_u * 2

    def test_preserves_kind(self):
        src = QuatModule("Spin(4,4)", ((0,), (0,), (0,)), 4, "sigma")
        filt = restrict_filtration(src, 1)
        assert all(x.kind == "sigma" for row in filt for x in row)


def _rank_reference(rows) -> int:
    """Gauss-Jordan rank over Fraction."""
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _random_matrix(rng):
    nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
    inner = rng.randint(1, 7)  # rank <= inner, often below min(nrows, ncols)
    left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(nrows)]
    right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(inner)]
    mat = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
           for row in left]
    for row in mat:  # sparse entries
        for j in range(ncols):
            if rng.random() < 0.15:
                row[j] = 0
    if mat and rng.random() < 0.3:
        mat[rng.randrange(nrows)] = [0] * ncols
    if ncols and rng.random() < 0.3:
        j = rng.randrange(ncols)
        for row in mat:
            row[j] = 0
    return mat


def _poly_mult_matrix(n: int):
    """Dense matrix of f: S^3 (x) S^n -> S^2 (x) S^{n+1} built from the
    comultiplication images of the cubic basis: the reference for the
    block ranks of check_lemma_surjectivity."""
    # basis of S^m: x^(m-j) y^j for j = 0..m
    # images of cubics in S^2 (x) S^1, coordinates over (quad j2, lin j1)
    cubic_img = {
        0: {(0, 0): 1},              # x^3 -> x^2 (x) x
        1: {(1, 0): 2, (0, 1): 1},   # x^2 y -> 2xy (x) x + x^2 (x) y
        2: {(2, 0): 1, (1, 1): 2},   # x y^2 -> y^2 (x) x + 2xy (x) y
        3: {(2, 1): 1},              # y^3 -> y^2 (x) y
    }
    rows = []
    for c in range(4):
        for j in range(n + 1):
            row = [0] * (3 * (n + 2))
            for (q, l), coef in cubic_img[c].items():
                # multiply x^(1-l) y^l into x^(n-j) y^j
                jj = j + l
                row[q * (n + 2) + jj] += coef
            rows.append(row)
    return rows


class TestSurjectivity:
    def test_goldens(self):
        assert check_lemma_surjectivity(2) == (12, 12, True)
        assert check_lemma_surjectivity(1) == (8, 9, False)
        assert check_lemma_surjectivity(8) == (30, 30, True)

    def test_rank_formula(self):
        for n in range(0, 12):
            rank, expected, ok = check_lemma_surjectivity(n)
            assert expected == 3 * (n + 2)
            assert ok == (rank == expected)
            assert ok == (n >= 2)

    def test_block_rank_matches_dense_rank(self):
        for n in range(61):
            rank, codom, _ = check_lemma_surjectivity(n)
            mat = _poly_mult_matrix(n)
            assert (rank, codom) == (_rank(mat), len(mat[0])), n

    def test_cached_blocks_equal_the_per_block_rank(self):
        # each degree-e block ranked afresh, with no cache
        for n in range(61):
            want = sum(
                _rank([
                    [_CUBIC[c][q]
                     for q in range(max(0, e - n - 1), min(2, e) + 1)]
                    for c in range(max(0, e - n), min(3, e) + 1)
                ])
                for e in range(n + 4)
            )
            assert check_lemma_surjectivity(n)[0] == want, n

    def test_few_distinct_blocks(self):
        _block_rank.cache_clear()
        for n in range(201):
            check_lemma_surjectivity(n)
        assert _block_rank.cache_info().currsize <= 10

    def test_rank_matches_fraction_reference(self):
        rng = random.Random(5)
        ranks = Counter()
        for _ in range(3000):
            mat = _random_matrix(rng)
            want = _rank_reference(mat)
            assert _rank(mat) == want, mat
            ranks[want < min(len(mat), len(mat[0]) if mat else 0)] += 1
        assert ranks[True] > 500 and ranks[False] > 500  # both kinds drawn
