from fractions import Fraction

import pytest

from quatheta.branchrules import (
    Spin2Module,
    _dominant_tuples,
    _keys,
    branch_sp,
    branch_spin_even,
    branch_spin_odd,
    cg_mult,
    cg_product,
    clebsch_gordan,
    f4_to_spin9,
    f4_to_spin9_table,
    restrict_e7_to_su2_spin12,
)
from quatheta.charoracle import embedding, irrep, restrict, weyl_dim
from quatheta.rootdata import HalfInt


def h(p):
    return HalfInt(p)


class TestClebschGordan:
    def test_goldens(self):
        assert clebsch_gordan(2, 3) == [1, 3, 5]
        assert clebsch_gordan(0, 0) == [0]
        assert clebsch_gordan(1, 1) == [0, 2]
        assert clebsch_gordan(0, 4) == [4]

    def test_symmetric(self):
        for m in range(5):
            for n in range(5):
                assert clebsch_gordan(m, n) == clebsch_gordan(n, m)

    def test_dimension_count(self):
        for m in range(5):
            for n in range(5):
                total = sum(k + 1 for k in clebsch_gordan(m, n))
                assert total == (m + 1) * (n + 1)

    def test_cg_product(self):
        assert cg_product([1, 1]) == {0: 1, 2: 1}
        assert cg_product([1, 1, 1]) == {1: 2, 3: 1}

    def test_cg_mult(self):
        assert cg_mult([1, 1, 1], 1) == 2
        assert cg_mult([1, 1, 1], 3) == 1
        assert cg_mult([1, 1, 1], 5) == 0


def _sp_oracle(lam):
    """Sp(n) -> Sp(n-1) x Sp(1) branching via the character oracle,
    keyed like branch_sp output."""
    n = len(lam)
    name = {2: "Sp2>Sp1xSp1", 3: "Sp3>Sp2xSp1"}[n]
    dec = restrict(irrep(f"C{n}", lam), embedding(name))
    table = {}
    for r, m in dec.items():
        mu = r.hws[0].coords
        k = int(r.hws[1].coords[0])
        table.setdefault(mu, {})[k] = m
    return table


@pytest.mark.parametrize("lam", [(1, 0), (1, 1), (2, 1), (2, 2)])
def test_branch_sp2_matches_oracle(lam):
    got = {mu: {k: m for k, m in cg.items() if m}
           for mu, cg in branch_sp(lam).items()}
    got = {mu: cg for mu, cg in got.items() if cg}
    assert got == _sp_oracle(lam)


@pytest.mark.parametrize("lam", [(1, 1, 0), (2, 1, 1)])
def test_branch_sp3_matches_oracle(lam):
    got = {mu: {k: m for k, m in cg.items() if m}
           for mu, cg in branch_sp(lam).items()}
    got = {mu: cg for mu, cg in got.items() if cg}
    assert got == _sp_oracle(lam)


def test_branch_sp_golden():
    got = {mu: dict(sorted(cg.items()))
           for mu, cg in sorted(branch_sp((2, 1)).items())}
    assert got == {(0,): {1: 1}, (1,): {0: 1, 2: 1}, (2,): {1: 1}}


def _spin_oracle(label, lam, name):
    dec = restrict(irrep(label, lam), embedding(name))
    table = {}
    for r, m in dec.items():
        mu = r.hws[0].coords
        t = r.hws[1].twice()[0]
        table.setdefault(mu, {})[t] = table.setdefault(mu, {}).get(t, 0) + m
    return table


@pytest.mark.parametrize("lam", [(1, 0), (1, 1), (h(3), h(1)), (2, 1)])
def test_branch_spin5_matches_oracle(lam):
    want = _spin_oracle("B2", lam, "Spin5>Spin3xSpin2")
    got = {
        mu: {t: m for t, m in mod.entries if m}
        for mu, mod in branch_spin_odd(lam).items()
    }
    got = {mu: e for mu, e in got.items() if e}
    assert got == want


@pytest.mark.parametrize("lam", [
    (1, 0, 0), (1, 1, 0), (h(1), h(1), h(1)), (2, 1, 0),
])
def test_branch_spin7_matches_oracle(lam):
    want = _spin_oracle("B3", lam, "Spin7>Spin5xSpin2")
    got = {
        mu: {t: m for t, m in mod.entries if m}
        for mu, mod in branch_spin_odd(lam).items()
    }
    got = {mu: e for mu, e in got.items() if e}
    assert got == want


@pytest.mark.parametrize("lam", [
    (1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 1, -1), (2, 1, 1),
    (h(1), h(1), h(1)), (h(1), h(1), h(-1)),
])
def test_branch_spin6_matches_oracle(lam):
    want = _spin_oracle("D3", lam, "Spin6>Spin4xSpin2")
    got = {
        mu: {t: m for t, m in mod.entries if m}
        for mu, mod in branch_spin_even(lam).items()
    }
    got = {mu: e for mu, e in got.items() if e}
    assert got == want


def test_branch_spin_odd_golden():
    got = {mu: mod.entries for mu, mod in sorted(branch_spin_odd((2, 1)).items())}
    assert got == {
        (0,): ((-2, 1), (2, 1)),
        (1,): ((-4, 1), (-2, 1), (0, 2), (2, 1), (4, 1)),
        (2,): ((-2, 1), (0, 1), (2, 1)),
    }


def test_branch_spin_even_golden():
    got = {mu: mod.entries
           for mu, mod in sorted(branch_spin_even((2, 1, 1)).items())}
    assert got == {
        (1, -1): ((-4, 1), (0, 1)),
        (1, 0): ((-2, 1), (2, 1)),
        (1, 1): ((0, 1), (4, 1)),
        (2, -1): ((-2, 1),),
        (2, 0): ((0, 1),),
        (2, 1): ((2, 1),),
    }


def test_branch_preserves_dimension():
    lam = (2, 1, 1)
    lhs = weyl_dim(irrep("C3", lam))
    rhs = sum(
        weyl_dim(irrep("C2", mu)) * sum(k + 1 for k, m in cg.items() for _ in range(m))
        for mu, cg in branch_sp(lam).items()
    )
    assert lhs == rhs


class TestF4ToSpin9:
    def test_26_splits_as_1_9_16(self):
        table = f4_to_spin9_table(1, 0)
        dims = sorted(weyl_dim(irrep("B4", w)) for w in table)
        assert dims == [1, 9, 16]
        assert all(m == 1 for m in table.values())

    def test_golden_11(self):
        got = {tuple(x.twice for x in w): m
               for w, m in f4_to_spin9_table(1, 1).items()}
        assert got == {
            (3, 1, 1, 1): 1, (2, 2, 2, 0): 1, (2, 2, 0, 0): 1,
            (2, 0, 0, 0): 1, (1, 1, 1, 1): 1,
        }

    @pytest.mark.parametrize("ab", [(1, 0), (1, 1), (2, 0)])
    def test_matches_oracle(self, ab):
        a, b = ab
        hw = tuple(HalfInt(t) for t in (2 * a + b, b, b, b))
        dec = restrict(irrep("F4", hw), embedding("F4>B4"))
        want = {r.hws[0].coords: m for r, m in dec.items()}
        assert dict(f4_to_spin9_table(a, b)) == want

    def test_scalar_accessor(self):
        table = f4_to_spin9_table(2, 1)
        for w, m in table.items():
            assert f4_to_spin9(2, 1, w) == m
        assert f4_to_spin9(2, 1, (9, 9, 9, 9)) == 0

    @pytest.mark.parametrize("a", range(5))
    def test_table_equals_scalar_rule(self, a):
        # the scalar rule is evaluated one step past the table's bound,
        # so a constituent the table's enumeration missed would show
        for b in range(a + 1):
            want = {}
            for parity in (0, 1):
                for t in _dominant_tuples(2 * (a + b) + 2, 4, parity, False):
                    m = f4_to_spin9(a, b, _keys(t))
                    if m:
                        want[_keys(t)] = m
            assert f4_to_spin9_table(a, b) == want, (a, b)

    @pytest.mark.parametrize("w", [
        (1, 2, 0, 0),           # not descending
        (1, 1, 1, -1),          # negative last entry
        (1, h(1), 0, 0),        # entries not congruent mod 1
        (1, 0, 0),              # wrong length
    ])
    def test_scalar_refuses_weights_outside_the_dominant_lattice(self, w):
        with pytest.raises(ValueError):
            f4_to_spin9(2, 1, w)


class TestE7Family:
    def test_k1_golden(self):
        rows = restrict_e7_to_su2_spin12(1)
        got = [(m, w.coords) for m, w in rows]
        assert got == [
            (0, (h(1), h(1), h(1), h(1), h(1), h(1))),
            (1, (1, 0, 0, 0, 0, 0)),
        ]

    def test_k2_golden(self):
        rows = restrict_e7_to_su2_spin12(2)
        got = [(m, w.coords) for m, w in rows]
        assert got == [
            (0, (1, 1, 0, 0, 0, 0)),
            (0, (1, 1, 1, 1, 1, 1)),
            (1, (h(3), h(1), h(1), h(1), h(1), h(1))),
            (2, (2, 0, 0, 0, 0, 0)),
        ]

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_dimension_sum(self, k):
        rows = restrict_e7_to_su2_spin12(k)
        total = sum((m + 1) * weyl_dim(irrep("D6", w)) for m, w in rows)
        hw = (0, 0, 0, 0, 0, k, HalfInt(-k), HalfInt(k))
        assert total == weyl_dim(irrep("E7", hw))


def test_spin2_module_entries_are_sorted_pairs():
    mod = branch_spin_odd((2, 1))[(1,)]
    assert isinstance(mod, Spin2Module)
    ts = [t for t, _ in mod.entries]
    assert ts == sorted(ts)


# every coordinate form the rules accept, as functions of the doubled
# value; int only where the value is an integer
_FORMS = {
    "int": lambda t: t // 2,
    "Fraction": lambda t: Fraction(t, 2),
    "str": lambda t: str(HalfInt(t)),
    "HalfInt": HalfInt,
}


@pytest.mark.parametrize("rule, twice", [
    (branch_sp, (4, 2)),
    (branch_sp, (4, 2, 2)),
    (branch_spin_odd, (4, 2)),
    (branch_spin_odd, (5, 3, 1)),
    (branch_spin_even, (4, 2, -2)),
    (branch_spin_even, (3, 1, -1)),
    (lambda w: f4_to_spin9(1, 0, w), (2, 0, 0, 0)),  # 9 in the 26
    (lambda w: f4_to_spin9(1, 0, w), (1, 1, 1, 1)),  # 16 in the 26
    (lambda w: f4_to_spin9(2, 1, w), (4, 2, 2, 0)),
    (lambda w: f4_to_spin9(2, 1, w), (3, 1, 1, 1)),
])
def test_coordinate_forms_give_the_same_table(rule, twice):
    ref = rule(tuple(map(HalfInt, twice)))
    assert ref
    forms = _FORMS if all(t % 2 == 0 for t in twice) else (
        {k: f for k, f in _FORMS.items() if k != "int"}
    )
    for name, form in forms.items():
        got = rule(tuple(map(form, twice)))
        assert got == ref, name
        if isinstance(got, dict):
            assert all(isinstance(c, HalfInt) for mu in got for c in mu)


@pytest.mark.parametrize("rule, lam", [
    (branch_spin_odd, (1, 2)),              # not descending
    (branch_spin_odd, (1, -1)),             # negative last entry
    (branch_spin_odd, (1, h(1))),           # not congruent mod 1
    (branch_spin_even, (1, 2, 0)),          # not descending
    (branch_spin_even, (1, 0, 1)),          # |x_n| > x_{n-1}
    (branch_spin_even, (1, 1, h(1))),       # not congruent mod 1
    (branch_sp, (1, 2)),                    # not descending
    (branch_sp, (h(1), h(1))),              # not integral
])
def test_rules_refuse_weights_outside_the_dominant_lattice(rule, lam):
    with pytest.raises(ValueError):
        rule(lam)
