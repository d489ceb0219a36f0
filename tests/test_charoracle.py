import itertools
import random
import re
from math import prod

import pytest

from quatheta import charoracle
from quatheta.charoracle import (
    EMBEDDINGS,
    CharMultiset,
    EmbeddingMap,
    Irrep,
    IsoDecomp,
    OracleCapError,
    char_weights,
    dim_cap,
    embedding,
    irrep,
    restrict,
    strip_dominant,
    weyl_dim,
)
from quatheta.quaternionic import KTypeLedger
from quatheta.rootdata import HalfInt, Weight, _dot, _sys


def h(p):
    return HalfInt(p)


def _dec(mults: dict) -> IsoDecomp:
    """The IsoDecomp of a nonempty {Irrep: mult} dict."""
    labels = next(iter(mults)).labels
    return IsoDecomp(labels, {r.twice_concat(): m for r, m in mults.items()})


class TestIrrep:
    def test_single_factor(self):
        r = irrep("B3", (1, 1, 0))
        assert r.labels == ("B3",)
        assert r.twice_concat() == (2, 2, 0)
        assert _dec({r: 1}).to_json()[0]["hw"] == [1, 1, 0]

    def test_spinor_coordinates(self):
        r = irrep("B3", (h(1), h(1), h(1)))
        assert r.twice_concat() == (1, 1, 1)
        assert _dec({r: 1}).to_json()[0]["hw"] == ["1/2"] * 3

    def test_product_group(self):
        r = irrep(("C1", "C1"), (1,), (2,))
        assert r.labels == ("C1", "C1")
        assert r.twice_concat() == (2, 4)
        assert _dec({r: 1}).to_json()[0]["hw"] == [[1], [2]]
        assert weyl_dim(r) == 6

    def test_single_tuple_convenience(self):
        assert irrep("B3", (1, 0, 0)) == Irrep("B3", (1, 0, 0))

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            irrep("B3", (0, 1, 0))

    def test_rejects_mixed_parity_spin_weight(self):
        with pytest.raises(ValueError):
            irrep("B3", (1, h(1), h(1)))

    @pytest.mark.parametrize("label,hw", [
        ("A2", (1, h(1), 0)),
        ("C1", (h(1),)),
        ("C2", (h(1), h(1))),
        ("G2", (h(1), 0, h(-1))),
        ("F4", (2, h(1), h(1), h(1))),
    ])
    def test_rejects_off_lattice_weight(self, label, hw):
        with pytest.raises(ValueError, match="weight lattice"):
            irrep(label, hw)

    @pytest.mark.parametrize("hw", [(3, 3, 0), (4, 3, -1)])
    def test_rejects_g2_weight_off_the_sum_zero_plane(self, hw):
        # dominant, with integral simple-coroot pairings, yet no weight:
        # G2's roots span the plane where the coordinates sum to zero
        d = _sys("G2")
        t = tuple(2 * x for x in hw)
        assert d.in_chamber(t) and not d.is_integral(t)
        with pytest.raises(ValueError, match="sum-zero plane"):
            irrep("G2", hw)
        with pytest.raises(ValueError, match="sum-zero plane"):
            strip_dominant(CharMultiset(("G2",), {t: 1}))

    @pytest.mark.parametrize("label,hw,span", [
        ("E7", (0, 0, 0, 0, 0, 0, 1, 1), "x7 + x8 = 0"),
        ("E6", (0, 0, 0, 0, 0, 1, 0, 1), "x6 = x7 = -x8"),
    ])
    def test_rejects_e_weight_off_the_root_span(self, label, hw, span):
        # every simple-coroot pairing is 0, so the chamber and the
        # pairings pass: only the span of the roots refuses the weight
        d = _sys(label)
        t = tuple(2 * x for x in hw)
        assert all(_dot(t, a) == 0 for a in d.simple)
        assert not d.is_integral(t)
        message = (f"not in the weight lattice of {label}: "
                   f"it must lie in the root span {span}")
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            irrep(label, *hw)
        with pytest.raises(ValueError, match="root span"):
            strip_dominant(CharMultiset((label,), {t: 1}))
        # a product pads the span's normals into the factor's slice
        assert not _sys(("C1", label)).is_integral((0,) + t)

    def test_accepts_half_integral_lattice_weights(self):
        assert weyl_dim(irrep("A2", (h(1), h(1), h(-1)))) == 3
        assert weyl_dim(irrep("F4", (h(3), h(1), h(1), h(1)))) > 0

    def test_d_type_signed_last_coordinate(self):
        irrep("D4", (1, 1, 1, -1))
        with pytest.raises(ValueError):
            irrep("D4", (1, 1, -1, 1))


WEYL_DIM_TABLE = [
    ("B3", (1, 0, 0), 7),
    ("B3", (h(1), h(1), h(1)), 8),
    ("B3", (1, 1, 0), 21),
    ("B4", (1, 0, 0, 0), 9),
    ("B4", (h(1), h(1), h(1), h(1)), 16),
    ("C3", (1, 0, 0), 6),
    ("C3", (1, 1, 0), 14),
    ("D4", (1, 0, 0, 0), 8),
    ("A5", (1, 0, 0, 0, 0, 0), 6),
    ("F4", (1, 0, 0, 0), 26),
    ("G2", (1, 0, -1), 7),
    ("G2", (1, 1, -2), 14),
    ("E7", (0, 0, 0, 0, 0, 1, h(-1), h(1)), 56),
]


@pytest.mark.parametrize("label,hw,dim", WEYL_DIM_TABLE)
def test_weyl_dim_goldens(label, hw, dim):
    assert weyl_dim(irrep(label, hw)) == dim


def test_char_weights_golden():
    cw = char_weights(irrep("C1", (1,)))
    assert cw.mults == {(-2,): 1, (2,): 1}
    assert cw.mass() == 2


@pytest.mark.parametrize("r", [
    irrep("B3", 1, 1, 0),
    irrep(("C1", "C1"), (1,), (2,)),
])
def test_char_weights_are_the_callers(r):
    # a caller may change the dict it gets; no cache may see that
    first = char_weights(r)
    want = dict(first.mults)
    first.mults.clear()
    assert char_weights(r).mults == want


@pytest.mark.parametrize("label,hw", [
    ("B3", (1, 1, 0)),
    ("B3", (h(3), h(1), h(1))),
    ("C3", (2, 1, 1)),
    ("D4", (1, 1, 0, 0)),
    ("G2", (2, 0, -2)),
])
def test_char_mass_equals_dimension(label, hw):
    r = irrep(label, hw)
    assert char_weights(r).mass() == weyl_dim(r)


@pytest.mark.parametrize("label,hw", [
    ("B3", (1, 1, 0)),
    ("B3", (h(3), h(1), h(1))),
    ("C3", (1, 1, 1)),
    ("D4", (1, 1, 1, -1)),
    ("G2", (2, 1, -3)),
])
def test_strip_dominant_recovers_single_irrep(label, hw):
    r = irrep(label, hw)
    dec = strip_dominant(char_weights(r))
    assert dec.mults == {r: 1}
    assert dec.dimension() == weyl_dim(r)


def test_strip_dominant_random_sums():
    """Stripping a sum of characters recovers the exact multiset."""
    rng = random.Random(11)
    pool = [
        irrep("B3", (1, 0, 0)),
        irrep("B3", (1, 1, 0)),
        irrep("B3", (h(1), h(1), h(1))),
        irrep("B3", (2, 0, 0)),
    ]
    for _ in range(5):
        want = {}
        acc = {}
        for r in pool:
            m = rng.randrange(0, 3)
            if m == 0:
                continue
            want[r] = m
            for k, v in char_weights(r).mults.items():
                acc[k] = acc.get(k, 0) + m * v
        got = strip_dominant(CharMultiset(("B3",), acc))
        assert got.mults == want


def _moved_b3_adjoint():
    # the adjoint of B3 with its weight (-1,-1,0) moved onto (-1,0,-1)
    acc = dict(char_weights(irrep("B3", (1, 1, 0))).mults)
    acc[(-2, 0, -2)] += acc.pop((-2, -2, 0))
    return acc


@pytest.mark.parametrize("labels,mults", [
    # the dominant half of the SU(2) character (1)
    (("C1",), {(2,): 1}),
    (("B3",), _moved_b3_adjoint()),
    # (1) (x) (1) of SU(2) x SU(2) with the second factor's weight -1 dropped
    (("C1", "C1"), {(2, 2): 1, (-2, 2): 1}),
], ids=["c1-half-orbit", "b3-moved-weight", "c1xc1-asymmetric-factor"])
def test_strip_dominant_refuses_non_invariant_input(labels, mults):
    with pytest.raises(AssertionError):
        strip_dominant(CharMultiset(labels, mults))


@pytest.mark.parametrize("k,dim", [(1, 56), (2, 1463), (3, 24320)])
def test_e7_cartan_powers(monkeypatch, k, dim):
    # k times the highest weight of the 56 of E7, at a cap exactly dim
    monkeypatch.setenv("QUATHETA_DIM_CAP", str(dim))
    r = irrep("E7", (0, 0, 0, 0, 0, k, h(-k), h(k)))
    cw = char_weights(r)
    assert weyl_dim(r) == dim
    assert cw.mass() == dim
    if k < 3:
        assert strip_dominant(cw).mults == {r: 1}


def test_tensor_decompose_su2():
    """(1) (x) (1) = (0) + (2) for SU(2): strip the product of two characters."""
    a = char_weights(irrep("C1", (1,)))
    acc = {}
    for wa, ma in a.mults.items():
        for wb, mb in a.mults.items():
            k = tuple(x + y for x, y in zip(wa, wb))
            acc[k] = acc.get(k, 0) + ma * mb
    td = strip_dominant(CharMultiset(("C1",), acc))
    assert {r.twice_concat(): m for r, m in td.items()} == {(0,): 1, (4,): 1}


def test_iso_decomp_json_and_order():
    # the character of (1) (x) (1) for SU(2), in doubled coordinates
    td = strip_dominant(CharMultiset(("C1",), {(-4,): 1, (0,): 2, (4,): 1}))
    assert {r.twice_concat(): m for r, m in td.items()} == {(0,): 1, (4,): 1}
    data = td.to_json()
    assert data == [{"hw": [0], "mult": 1}, {"hw": [2], "mult": 1}]
    keys = [r.twice_concat() for r, _ in td.items()]
    assert keys == sorted(keys)


def _assert_same_decomposition(a, b):
    assert a == b and b == a
    assert a.mults == b.mults
    assert a.items() == b.items()
    assert a.to_json() == b.to_json()
    assert a.dimension() == b.dimension()


@pytest.mark.parametrize("want", [
    {irrep("C1", (0,)): 1, irrep("C1", (2,)): 1},
    {irrep("B3", (h(1), h(1), h(1))): 2, irrep("B3", (1, 0, 0)): 1},
    {irrep(("C1", "C2"), (1,), (1, 0)): 3, irrep(("C1", "C2"), (0,), (1, 1)): 1},
], ids=["c1", "b3-spinor", "c1xc2"])
def test_iso_decomp_constructions_agree(want):
    # from doubled highest weights, from JSON (as KTypeLedger.from_json
    # reads a level) and from stripping the matching character
    acc = {}
    for r, m in want.items():
        for t, v in char_weights(r).mults.items():
            acc[t] = acc.get(t, 0) + m * v
    labels = next(iter(want)).labels
    stripped = strip_dominant(CharMultiset(labels, acc))
    _assert_same_decomposition(_dec(want), stripped)
    data = _dec(want).to_json()
    _assert_same_decomposition(IsoDecomp.from_json(data, labels), stripped)
    assert stripped.mults == want
    assert stripped.dimension() == sum(m * weyl_dim(r) for r, m in want.items())
    assert IsoDecomp(labels, {}) == strip_dominant(CharMultiset(labels, {}))


def test_empty_decomposition_needs_no_root_data():
    before = _sys.cache_info()
    dec = IsoDecomp(("C1",), {})
    assert dec.to_json() == []
    assert dec.dimension() == 0
    assert dec.mults == {}
    assert dec.items() == []
    after = _sys.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_iso_decomp_inequality():
    a = _dec({irrep("C1", (1,)): 1})
    assert a != _dec({irrep("C1", (1,)): 2})
    assert a != _dec({irrep("C1", (2,)): 1})
    assert a != _dec({irrep("B1", (1,)): 1})  # same doubled tuple
    assert a != {irrep("C1", (1,)): 1}
    # labels are a field: empty decompositions of two groups differ
    assert IsoDecomp(("C1",), {}) != IsoDecomp(("B1",), {})


def _ledger(level: dict, **module) -> dict:
    """A G2_2 ledger document whose one level is level; module's items
    replace the module document's (None drops the key)."""
    doc = {"G": "G2_2", "wm": [[0]], "s": 4, "quotient": False, **module}
    doc = {k: v for k, v in doc.items() if v is not None}
    return {"module": doc, "levels": [level]}


_LEVEL = {"k": 0, "su0": 2, "mtypes": [{"hw": [0], "mult": 1}]}


@pytest.mark.parametrize("data,labels,match", [
    ([{"hw": [0, 1, 0], "mult": 1}], ("B3",), "^entry "),  # not dominant
    ([{"hw": [1, "1/2", "1/2"], "mult": 1}], ("B3",), "^entry "),  # parity
    ([{"hw": [[1]], "mult": 1}], ("C1", "C1"), "^entry "),  # one hw of two
    ([{"hw": [1], "mult": 1}], ("C1", "C1"), "^entry "),
    ([{"mult": 1}], ("C1",), "^entry "),
    ([{"hw": [1]}], ("C1",), "^entry "),
    ([{"hw": [1], "mult": 0}], ("C1",), "^entry "),
    ([{"hw": [1], "mult": -2}], ("C1",), "^entry "),
    ([{"hw": [1], "mult": "2"}], ("C1",), "^entry "),
    ([{"hw": [1], "mult": True}], ("C1",), "^entry "),
    ([{"hw": [1], "mult": 1.0}], ("C1",), "^entry "),
    ([{"hw": "12", "mult": 1}], ("C1",), "^entry "),
    ([{"hw": [1.5], "mult": 1}], ("C1",), "^entry "),
    ([{"hw": [1], "mult": 1}, {"hw": [1], "mult": 2}], ("C1",), "^entry "),
    (_ledger({"k": 0, "su0": 2}), None, "^level .* needs the key 'mtypes'$"),
    ({}, None, r"^ledger \{\} needs the key 'module'$"),
    ({"module": _ledger(_LEVEL)["module"]}, None,
     "^ledger .* needs the key 'levels'$"),
    (_ledger(_LEVEL, G=None), None, "^module .* needs the key 'G'$"),
    (_ledger(_LEVEL, wm=None), None, "^module .* needs the key 'wm'$"),
    (_ledger(_LEVEL, s=None), None, "^module .* needs the key 's'$"),
    ({"module": "G2_2", "levels": []}, None, "^module 'G2_2' needs the key"),
    ({**_ledger(_LEVEL), "levels": 5}, None,
     "^ledger .* needs a nonempty list of levels$"),
    ({**_ledger(_LEVEL), "levels": []}, None,
     "^ledger .* needs a nonempty list of levels$"),
    (_ledger({"k": 0, "su0": "x", "mtypes": []}), None,
     "^level .* is not level 0: it needs k 0 and su0 2$"),
    (_ledger({"k": 0, "su0": 99, "mtypes": []}, s=3), None,
     "^level .* is not level 0: it needs k 0 and su0 1$"),
    (_ledger({"k": 0, "su0": True, "mtypes": []}, s=3), None,
     "^level .* is not level 0"),
    (_ledger({"k": 1, "su0": 2, "mtypes": []}), None,
     "^level .* is not level 0"),
    (_ledger({"k": "0", "su0": 2, "mtypes": []}), None,
     "^level .* is not level 0"),
], ids=["non-dominant", "off-lattice", "factor-count", "flat-product-hw",
        "no-hw", "no-mult", "mult-0", "mult-negative", "mult-str",
        "mult-bool", "mult-float", "hw-str", "hw-float", "repeated-hw",
        "ledger-level-without-mtypes", "ledger-empty",
        "ledger-without-levels", "module-without-G", "module-without-wm",
        "module-without-s", "module-not-an-object", "levels-int",
        "levels-empty", "level-su0-str",
        "level-su0-off-position", "level-su0-bool", "level-k-off-position",
        "level-k-str"])
def test_iso_decomp_from_json_validates_each_entry(data, labels, match):
    # every refusal is a ValueError naming the offending entry, level,
    # module or ledger; labels None reads data as a ledger, whose levels
    # hold the entries
    if labels is None:
        with pytest.raises(ValueError, match=match):
            KTypeLedger.from_json(data)
    else:
        with pytest.raises(ValueError, match=match):
            IsoDecomp.from_json(data, labels)


def test_ledger_from_json_needs_neither_k_nor_quotient():
    # "quotient" is absent from the module documents inside ThetaLift
    # JSON, and a level's position is its k
    level = {k: v for k, v in _LEVEL.items() if k != "k"}
    back = KTypeLedger.from_json(_ledger(level, quotient=None))
    assert back.module.kind == "A"
    assert [su0 for su0, _ in back] == [2]
    assert back.to_json() == _ledger(_LEVEL)


@pytest.mark.parametrize("mults,message", [
    ({(0,): -1}, "negative multiplicity while stripping"),
    # (3) without its middle weights: subtracting it drives (1) below 0
    ({(6,): 1, (-6,): 1}, "negative multiplicity while stripping"),
    # the orbit of (1) without (-1): stripping (1) overshoots the mass
    ({(2,): 1}, "stripping left a residue with no dominant key"),
], ids=["negative-top", "negative-residual", "incomplete-orbit"])
def test_strip_dominant_refuses_non_characters(mults, message):
    with pytest.raises(AssertionError, match=f"^{message}$"):
        strip_dominant(CharMultiset(("C1",), mults))


def test_strip_dominant_refuses_off_lattice_tops():
    # Weyl-invariant, but (1/2) is no weight of Sp(1)
    with pytest.raises(ValueError, match="not in the weight lattice of C1"):
        strip_dominant(CharMultiset(("C1",), {(1,): 1, (-1,): 1}))


def test_strip_dominant_caps_each_top(monkeypatch):
    cw = char_weights(irrep("B3", (1, 1, 0)))  # the 21-dim adjoint
    monkeypatch.setenv("QUATHETA_DIM_CAP", "20")
    with pytest.raises(OracleCapError, match=r"^dim 21 exceeds oracle cap 20$"):
        strip_dominant(cw)
    monkeypatch.setenv("QUATHETA_DIM_CAP", "21")
    assert strip_dominant(cw).dimension() == 21


class TestRestrict:
    def test_spin7_spinor_to_spin5_spin2(self):
        dec = restrict(
            irrep("B3", (h(1), h(1), h(1))), embedding("Spin7>Spin5xSpin2")
        )
        got = {r.twice_concat(): m for r, m in dec.items()}
        assert got == {(1, 1, -1): 1, (1, 1, 1): 1}
        assert dec.dimension() == 8

    def test_sp2_adjoint_to_sp1_sp1(self):
        dec = restrict(irrep("C2", (1, 1)), embedding("Sp2>Sp1xSp1"))
        assert dec.dimension() == weyl_dim(irrep("C2", (1, 1)))

    @pytest.mark.parametrize("name,label,hw", [
        ("Sp2>Sp1xSp1", "C2", (2, 1)),
        ("Sp3>Sp2xSp1", "C3", (1, 1, 0)),
        ("Spin5>Spin3xSpin2", "B2", (1, 1)),
        ("Spin7>Spin5xSpin2", "B3", (1, 1, 0)),
        ("Spin6>Spin4xSpin2", "D3", (1, 1, 0)),
        ("Spin8>Spin6xSpin2", "D4", (1, 1, 0, 0)),
        ("Spin8>Spin7", "D4", (1, 0, 0, 0)),
        ("F4>B4", "F4", (1, 0, 0, 0)),
    ])
    def test_restriction_preserves_dimension(self, name, label, hw):
        r = irrep(label, hw)
        dec = restrict(r, embedding(name))
        assert dec.dimension() == weyl_dim(r)

    @pytest.mark.parametrize("hw,want", [
        ((1, 0, 0, 0), {(2, 0, 0, 0): 1, (0, 0, 0, 0): 1}),
        ((h(1), h(1), h(1), h(1)), {(1, 1, 1, 1): 1, (1, 1, 1, -1): 1}),
    ])
    def test_spin9_to_spin8(self, hw, want):
        # vector 9 = 8_v + 1, spinor 16 = 8_s + 8_c
        dec = restrict(irrep("B4", hw), embedding("Spin9>Spin8"))
        assert dec.twice_mults == want

    def test_unknown_embedding(self):
        with pytest.raises(ValueError):
            embedding("E8>E7")

    def test_embedding_projects_coordinates(self):
        e = embedding("Spin8>Spin7")
        assert e.coords == (0, 1, 2)
        assert e.apply((5, 3, 1, -1)) == (5, 3, 1)

    @pytest.mark.parametrize("coords", [(0, 1), (0, 1, 2, 3)])
    def test_embedding_rejects_wrong_coordinate_count(self, coords):
        with pytest.raises(ValueError, match="need 3 coordinates"):
            EmbeddingMap("bad", "D4", ("B3",), coords)

    @pytest.mark.parametrize("coords", [(0, 1, 4), (-1, 1, 2)])
    def test_embedding_rejects_out_of_range_index(self, coords):
        with pytest.raises(ValueError, match="range"):
            EmbeddingMap("bad", "D4", ("B3",), coords)


def _dominant(label, bound):
    """Every dominant lattice weight of label with doubled entries in
    [-bound, bound] and dimension within the default cap."""
    d = _sys(label)
    return [
        t for t in itertools.product(range(-bound, bound + 1), repeat=d.dim)
        if d.in_chamber(t) and d.is_integral(t)
        and charoracle._dim_single(label, t) <= charoracle.DEFAULT_DIM_CAP
    ]


# |W_G| / |W_H| of each equal-rank entry of EMBEDDINGS, in table order
_COSET_COUNTS = {
    "Sp2>Sp1xSp1": 2,
    "Sp3>Sp2xSp1": 3,
    "Spin5>Spin3xSpin2": 4,
    "Spin7>Spin5xSpin2": 6,
    "Spin6>Spin4xSpin2": 6,
    "Spin8>Spin6xSpin2": 8,
    "Spin9>Spin8": 2,
    "F4>B4": 3,
}


class TestCosetPath:
    def test_path_choice(self):
        counts = {name: None if (s := charoracle._coset_walk(e)) is None
                  else len(s) + 1 for name, e in EMBEDDINGS.items()}
        assert counts == {**_COSET_COUNTS, "Spin8>Spin7": None}
        assert list(counts.values()) == [2, 3, 4, 6, 6, 8, 2, None, 3]
        assert sum(_COSET_COUNTS.values()) == 34

    def test_coordinates_in_order_are_not_enough(self):
        # B2's short roots e_i are not roots of C2 (whose long roots are
        # 2 e_i), though the coordinates match one to one
        e = EmbeddingMap("C2>B2", "C2", ("B2",), (0, 1))
        assert charoracle._coset_walk(e) is None

    def test_projection_takes_the_full_path(self, monkeypatch):
        calls = []
        full = charoracle._restrict_pushforward

        def spy(r, e):
            calls.append(e.name)
            return full(r, e)

        monkeypatch.setattr(charoracle, "_restrict_pushforward", spy)
        restrict(irrep("D4", (1, 0, 0, 0)), embedding("Spin8>Spin7"))
        restrict(irrep("B4", (1, 0, 0, 0)), embedding("Spin9>Spin8"))
        assert calls == ["Spin8>Spin7"]

    @pytest.mark.parametrize("name", _COSET_COUNTS)
    def test_counts_are_weyl_group_index(self, name):
        # |W| is the size of the orbit of rho, which is regular
        e = embedding(name)

        def order(label):
            d = _sys(label)
            return len(d.orbit(d.rho2, 10 ** 4))

        index, rem = divmod(order(e.source),
                            prod(order(lab) for lab in e.targets))
        assert rem == 0 and index == _COSET_COUNTS[name]

    @pytest.mark.parametrize("name", _COSET_COUNTS)
    def test_words_are_reduced_and_land_in_the_subgroup_chamber(self, name):
        e = embedding(name)
        g = _sys(e.source)
        steps = charoracle._coset_walk(e)
        # w_k = w_j s_i for each step (j, i, _), w_0 the identity
        words = [()]
        for j, i, _ in steps:
            assert j < len(words)
            words.append(words[j] + (i,))
        assert words[0] == () and len(steps) == len(words) - 1
        points = set()
        for word in words:
            v = g.rho2
            for i in reversed(word):
                v = g.reflect_simple(v, i)
            points.add(v)
            # the length of w is the number of positive roots it negates
            assert len(word) == sum(1 for a in g.pos if _dot(v, a) < 0)
            i = 0
            for lab in e.targets:
                d = _sys(lab)
                assert d.in_chamber(v[i:i + d.dim])
                i += d.dim
        assert len(points) == len(words)

    @pytest.mark.parametrize("name", _COSET_COUNTS)
    def test_equals_the_pushforward_reference(self, name):
        # doubled entries <= 8 for F4: a copy missing F4>B4's word (3,)
        # still preserves dimension on every F4 weight with entries <= 4
        e = embedding(name)
        weights = _dominant(e.source, 8 if name == "F4>B4" else 6)
        assert weights
        for t in weights:
            r = Irrep(e.source, Weight.from_twice(t, e.source))
            got = restrict(r, e)
            want = charoracle._restrict_pushforward(r, e)
            assert got == want, t
            assert got.labels == want.labels == e.targets

    def test_checks_the_stripped_dimension(self, monkeypatch):
        # one more zero weight in the source's character: the stripped
        # irreducibles then account for one dimension more than r has
        r, e = irrep("C2", (2, 0)), embedding("Sp2>Sp1xSp1")
        thw = r.twice_concat()
        full = charoracle._dominant_char

        def padded(label, t):
            dom = full(label, t)
            if (label, t) != (e.source, thw):
                return dom
            return {**dom, (0, 0): dom[(0, 0)] + 1}

        monkeypatch.setattr(charoracle, "_dominant_char", padded)
        with pytest.raises(AssertionError,
                           match="^restriction lost dimension$"):
            restrict(r, e)

    @pytest.mark.parametrize("name,hw", [
        ("F4>B4", (1, 0, 0, 0)),
        ("Spin9>Spin8", (1, 0, 0, 0)),
        ("Sp3>Sp2xSp1", (1, 1, 0)),
        ("Spin8>Spin6xSpin2", (1, 1, 0, 0)),
    ])
    def test_cap_refuses_before_any_work(self, monkeypatch, name, hw):
        r = irrep(embedding(name).source, hw)
        dim = weyl_dim(r)
        monkeypatch.setenv("QUATHETA_DIM_CAP", str(dim - 1))
        message = f"^dim {dim} exceeds oracle cap {dim - 1}$"
        with pytest.raises(OracleCapError, match=message):
            charoracle._restrict_pushforward(r, embedding(name))

        def refuse(*args):
            raise AssertionError("Freudenthal ran before the cap check")

        monkeypatch.setattr(charoracle, "_dominant_char", refuse)
        with pytest.raises(OracleCapError, match=message):
            restrict(r, embedding(name))


class TestDimCap:
    def test_cap_error(self, monkeypatch):
        monkeypatch.setenv("QUATHETA_DIM_CAP", "10")
        with pytest.raises(OracleCapError, match="exceeds oracle cap 10"):
            char_weights(irrep("F4", (1, 0, 0, 0)))

    def test_cap_env_default(self):
        assert dim_cap() == 20000

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("QUATHETA_DIM_CAP", "123")
        assert dim_cap() == 123

    def test_oracle_cap_error_is_runtime_error(self):
        assert issubclass(OracleCapError, RuntimeError)
