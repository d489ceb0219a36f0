import itertools
import random
from fractions import Fraction

import pytest

from quatheta.branchrules import (
    Spin2Module,
    _box,
    _cg3,
    _dominant_tuples,
    _even_modules,
    _odd_module,
    _sp_items,
    _steps,
    branch_sp,
    branch_spin_even,
    branch_spin_odd,
    clebsch_gordan,
    f4_to_spin9_table,
    restrict_e7_to_su2_spin12,
)
from quatheta.charoracle import Irrep, embedding, irrep, restrict, weyl_dim
from quatheta.rootdata import HalfInt, _half


def h(p):
    return HalfInt(p)


def cg_product(ms) -> dict:
    """Decomposition of (m1) tensor ... tensor (mk) as {weight: mult},
    one Clebsch-Gordan step at a time: the reference for the Sp(1)
    factor of branch_sp and for the F4 -> Spin(9) multiplicity."""
    out = {0: 1}
    for m in ms:
        if m < 0:
            raise ValueError("SU(2) weights must be nonnegative")
        nxt = {}
        for cur, mult in out.items():
            for k in clebsch_gordan(cur, m):
                nxt[k] = nxt.get(k, 0) + mult
        out = nxt
    return out


def cg_mult(ms, target: int) -> int:
    """Multiplicity of (target) in the iterated product of the (m_i)."""
    return cg_product(ms).get(target, 0)


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


def _two_step(lam):
    """The mu in the boxes lam_(i+2) <= mu_i <= lam_i (0 past the end),
    the non-descending ones rejected, each with the descending merge z
    of lam and mu; doubled integral coordinates."""
    n = len(lam)
    ranges = [_steps(lam[i + 2] if i + 2 < n else 0, lam[i], 0)
              for i in range(n - 1)]
    for mu in itertools.product(*ranges):
        if all(mu[i] >= mu[i + 1] for i in range(n - 2)):
            yield mu, sorted(lam + mu, reverse=True)


def _branch_sp_reference(lam):
    """Sp(n) -> Sp(n-1) x Sp(1) on doubled coordinates: the iterated
    Clebsch-Gordan product of the difference chain of the merged
    sequence, (z1-z2) x (z3-z4) x ... x (z_(2n-1))."""
    n = len(lam)
    out = {}
    for mu, z in _two_step(lam):
        factors = [(z[2 * i] - z[2 * i + 1]) // 2 for i in range(n - 1)]
        factors.append(z[2 * n - 2] // 2)
        out[mu] = cg_product(factors)
    return out


@pytest.mark.parametrize("n, bound", [
    (2, 24), (3, 14), (4, 10), (5, 8), (6, 6),
])
def test_sp_rule_matches_cg_chain(n, bound):
    # every dominant lam with doubled entries <= bound: the rule's table,
    # outer key order included, equals the enumerate-and-reject
    # Clebsch-Gordan chain
    seen = 0
    for t in _dominant_tuples(bound, n, 0, False):
        got = [(tuple(c.twice for c in mu), cg)
               for mu, cg in branch_sp(tuple(map(_half, t))).items()]
        assert got == list(_branch_sp_reference(t).items()), t
        seen += len(got)
    assert seen > 500


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


# the product-chain reference for both Spin rules: Spin(2) modules as
# sorted (doubled weight, mult) entries, multiplied pair by pair


def _spin2_a(ta):
    """A(a): weights a, a-1, ..., -a (integer steps); ta is 2a."""
    return tuple((t, 1) for t in range(-ta, ta + 1, 2))


def _spin2_b(tb):
    """B(b): weights b, b-2, ..., -b (steps of two); tb is 2b."""
    return tuple((t, 1) for t in range(-tb, tb + 1, 4))


def _spin2_mul(x, y):
    out = {}
    for t1, m1 in x:
        for t2, m2 in y:
            out[t1 + t2] = out.get(t1 + t2, 0) + m1 * m2
    return tuple(sorted(out.items()))


def _spin2_negate(x):
    return tuple((-t, m) for t, m in reversed(x))


def _even_hom_reference(lam, mu):
    """The Spin(2) entries of mu in the restriction of lam (last entries
    nonnegative), as the product chain of the B(U_i - L_i) shifted to be
    centered at sum(lam) + sum(mu) - sum(L_i + U_i), or None when some
    interval is empty."""
    n = len(lam)
    lo_sum, hi_sum, mod = 0, 0, ((0, 1),)
    for i in range(n - 1):
        hi = lam[i] if i == 0 else min(lam[i], mu[i - 1])
        if i < n - 2:
            lo = max(lam[i + 1], mu[i])
        else:
            lo = max(abs(lam[n - 1]), abs(mu[n - 2]))
        if lo > hi:
            return None
        lo_sum += lo
        hi_sum += hi
        mod = _spin2_mul(mod, _spin2_b(hi - lo))
    shift = sum(lam) + sum(mu) - lo_sum - hi_sum
    return tuple((t + shift, m) for t, m in mod)


def _branch_spin_even_reference(lam):
    """Spin(2n) -> Spin(2n-2) x Spin(2) on doubled coordinates: every mu
    in the boxes lam_(i+2) <= mu_i <= lam_i (last entry in [0, lam_(n-1)])
    is tried and those with an empty interval rejected; a negative last
    entry of mu, and of lam, negates the module."""
    n, parity = len(lam), lam[0] % 2
    flip = lam[-1] < 0
    if flip:
        lam = lam[:-1] + (-lam[-1],)
    ranges = [_steps(lam[i + 2], lam[i], parity) for i in range(n - 2)]
    ranges.append(_steps(0, lam[n - 2], parity))
    out = {}
    for mu in itertools.product(*ranges):
        mod = _even_hom_reference(lam, mu)
        if mod is None:
            continue
        out[mu] = mod
        if mu[-1] > 0:
            out[mu[:-1] + (-mu[-1],)] = _spin2_negate(mod)
    if flip:
        return {mu: _spin2_negate(mod) for mu, mod in out.items()}
    return out


def _branch_spin_odd_reference(lam):
    """Spin(2n+1) -> Spin(2n-1) x Spin(2) on doubled coordinates: every
    mu in the boxes lam_(i+2) <= mu_i <= lam_i (0 past the end), the
    non-descending ones rejected, with the module
    A(z_(2n-1)) x B(z1 - z2) x ... for the descending merge z."""
    n, parity = len(lam), lam[0] % 2
    ranges = [_steps(lam[i + 2] if i + 2 < n else 0, lam[i], parity)
              for i in range(n - 1)]
    out = {}
    for mu in itertools.product(*ranges):
        if any(mu[i] < mu[i + 1] for i in range(n - 2)):
            continue
        z = sorted(lam + mu, reverse=True)
        mod = _spin2_a(z[2 * n - 2])
        for i in range(n - 1):
            mod = _spin2_mul(mod, _spin2_b(z[2 * i] - z[2 * i + 1]))
        out[mu] = mod
    return out


def _rule_items(table):
    """A rule's output as a list, insertion order kept, on doubled keys."""
    return [(tuple(c.twice for c in mu), mod.entries)
            for mu, mod in table.items()]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_even_hom_matches_product_chain(n):
    # every dominant lam with doubled entries <= 8, integral and
    # half-integral, with either sign of the last entry: the rule's
    # table, order included, equals the enumerate-and-reject product
    # chain
    seen = 0
    for parity in (0, 1):
        for t in _dominant_tuples(8, n, parity, True):
            got = _rule_items(branch_spin_even(tuple(map(_half, t))))
            assert got == list(_branch_spin_even_reference(t).items()), t
            seen += len(got)
    assert seen > 1000


@pytest.mark.parametrize("n", [2, 3, 4])
def test_odd_rule_matches_product_chain(n):
    seen = 0
    for parity in (0, 1):
        for t in _dominant_tuples(10, n, parity, False):
            got = _rule_items(branch_spin_odd(tuple(map(_half, t))))
            assert got == list(_branch_spin_odd_reference(t).items()), t
            seen += len(got)
    assert seen > 100


def _box_reference(counts, width):
    out = [0] * (len(counts) + width - 1)
    for j, c in enumerate(counts):
        for k in range(width):
            out[j + k] += c
    return out


def test_box_equals_the_double_loop():
    rng = random.Random(18)
    for width in range(1, 7):
        for size in range(1, 9):
            counts = [rng.randint(0, 9) for _ in range(size)]
            assert _box(counts, width) == _box_reference(counts, width)


def test_a_product_of_boxes_is_a_palindrome():
    # the negation in branch_spin_even keeps the counts in order
    rng = random.Random(18)
    for _ in range(200):
        counts = [1]
        for _ in range(rng.randint(1, 5)):
            counts = _box(counts, rng.randint(1, 6))
            assert counts == counts[::-1]
        half = [rng.randint(0, 9) for _ in range(rng.randint(1, 5))]
        pal = half + half[-2::-1]
        boxed = _box(pal, rng.randint(1, 6))
        assert boxed == boxed[::-1]


def test_branch_sp_values_share_no_state():
    # (3, 1) reads two of its values from signatures that (2, 1) put in
    # the cache; mutating every dict of (2, 1)'s table, including one of
    # two equal values in it, reaches no other value
    _sp_items.cache_clear()
    table = branch_sp((2, 1))
    assert table[(0,)] == table[(2,)] and table[(0,)] is not table[(2,)]
    table[(0,)][1] = 7
    assert table[(2,)] == {1: 1}
    for cg in table.values():
        cg.clear()
    hits = _sp_items.cache_info().hits
    got = [(tuple(c.twice for c in mu), cg)
           for mu, cg in branch_sp((3, 1)).items()]
    assert _sp_items.cache_info().hits == hits + 2
    assert got == list(_branch_sp_reference((6, 2)).items())


@pytest.mark.parametrize("rule, reference, n, parities, signed", [
    (branch_sp, _branch_sp_reference, 2, (0,), False),
    (branch_sp, _branch_sp_reference, 3, (0,), False),
    (branch_spin_odd, _branch_spin_odd_reference, 2, (0, 1), False),
    (branch_spin_odd, _branch_spin_odd_reference, 3, (0, 1), False),
    (branch_spin_even, _branch_spin_even_reference, 3, (0, 1), True),
    (branch_spin_even, _branch_spin_even_reference, 4, (0, 1), True),
])
def test_cached_values_do_not_depend_on_call_order(
    rule, reference, n, parities, signed
):
    # every dominant lam with doubled entries <= 8, built from empty
    # caches in ascending and then in descending order: both runs give
    # the enumerate-and-reject tables, order included
    lams = sorted(t for p in parities
                  for t in _dominant_tuples(8, n, p, signed))
    want = {t: list(reference(t).items()) for t in lams}

    def tables(order):
        for memo in (_sp_items, _odd_module, _even_modules):
            memo.cache_clear()
        return {t: [(tuple(c.twice for c in mu),
                     v.entries if isinstance(v, Spin2Module) else v)
                    for mu, v in rule(tuple(map(_half, t))).items()]
                for t in order}

    assert len(want) > 10
    assert tables(lams) == want
    assert tables(lams[::-1]) == want


def test_branch_preserves_dimension():
    lam = (2, 1, 1)
    lhs = weyl_dim(irrep("C3", lam))
    rhs = sum(
        weyl_dim(irrep("C2", mu)) * sum(k + 1 for k, m in cg.items() for _ in range(m))
        for mu, cg in branch_sp(lam).items()
    )
    assert lhs == rhs


def _f4_mult_reference(a, b, w):
    """The F4 -> Spin(9) rule as an iterated Clebsch-Gordan product, on
    doubled coordinates: the multiplicity of (a-b) in
    (a+b-w1-w2) x (w1-w2) x (2 w4), and 0 past w1 + w2 > a + b."""
    s12 = w[0] + w[1]
    if s12 > 2 * (a + b):
        return 0
    return cg_mult([a + b - s12 // 2, (w[0] - w[1]) // 2, w[3]], a - b)


def f4_to_spin9(a, b, w):
    """The scalar F4 -> Spin(9) rule on a Spin(9) weight in any
    coordinate form, validated as a B4 irrep."""
    return _f4_mult_reference(a, b, Irrep("B4", tuple(w)).hw.twice())


def _twices(key):
    return tuple(x.twice for x in key)


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
                    m = _f4_mult_reference(a, b, t)
                    if m:
                        want[tuple(map(_half, t))] = m
            assert f4_to_spin9_table(a, b) == want, (a, b)

    def test_closed_form_equals_cg_product(self):
        # the table's multiplicity kernel against the iterated product
        for p, q, r, t in itertools.product(range(12), repeat=4):
            assert _cg3(p, q, r, t) == cg_mult([p, q, r], t), (p, q, r, t)

    @pytest.mark.parametrize("a", range(7))
    def test_table_order_equals_the_full_enumeration(self, a):
        # item for item, so the insertion order of the table is pinned
        for b in range(a + 1):
            want = [
                (tuple(map(_half, w)), m)
                for parity in (0, 1)
                for w in _dominant_tuples(2 * (a + b), 4, parity, False)
                if (m := _f4_mult_reference(a, b, w))
            ]
            got = list(f4_to_spin9_table(a, b).items())
            assert [(_twices(k), m) for k, m in got] == \
                [(_twices(k), m) for k, m in want], (a, b)

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


@pytest.mark.parametrize("make, want", [
    # half-integral keys
    (lambda: branch_spin_odd(("5/2", "3/2", "1/2")),
     [(Fraction(5, 2), Fraction(3, 2)), (Fraction(1, 2), Fraction(1, 2))]),
    # keys with a negative last entry
    (lambda: branch_spin_even((2, 1, -1)), [(1, -1), (2, -1), (2, 0)]),
    # both congruence classes
    (lambda: f4_to_spin9_table(2, 1),
     [(2, 1, 1, 0), (Fraction(3, 2),) * 2 + (Fraction(1, 2),) * 2]),
], ids=["spin_odd", "spin_even", "f4_spin9"])
def test_rule_keys_are_found_by_int_and_fraction_tuples(make, want):
    table = make()
    for key in want:
        assert key in table
    for mu, value in table.items():
        twice = tuple(c.twice for c in mu)
        assert table[tuple(Fraction(t, 2) for t in twice)] is value
        if all(t % 2 == 0 for t in twice):
            assert table[tuple(t // 2 for t in twice)] is value


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
