import itertools
from fractions import Fraction

import pytest

from quatheta import thetamaps
from quatheta.quaternionic import QuatModule, inf_char, ktypes
from quatheta.rootdata import HalfInt, Weight, _sys, dominant_representative
from quatheta.thetamaps import (
    ThetaLift,
    infchar_crosscheck,
    seesaw_truncation_check,
    theta_e6_torus,
    theta_e6_u2,
    theta_e7,
    theta_e8_spin8,
    theta_e8_spin9,
    theta_f4,
)
from quatheta.verify import _suite_seesaw


def h(p):
    return HalfInt(p)


def _single(lift):
    (mod, mult), = lift.lifts
    return mod, mult


class TestE6Torus:
    def test_generic(self):
        mod, mult = _single(theta_e6_torus(2, -1, -1))
        assert mult == 1
        assert mod == QuatModule("Spin(4,4)", ((0,), (1,), (1,)), 6, "sigma")

    def test_sign_invariance_under_negation(self):
        # at least two negative entries: lift of -t
        assert theta_e6_torus(1, 1, -2).to_json() == \
               theta_e6_torus(-1, -1, 2).to_json()

    def test_rotation_by_negative_index(self):
        mod, _ = _single(theta_e6_torus(-2, 1, 1))
        assert mod.s == 6
        assert mod.kind == "sigma"

    def test_origin_splits(self):
        lift = theta_e6_torus(0, 0, 0)
        mods = [(m.s, sign) for (m, _), sign in
                zip(lift.lifts, ("+", "-"))]
        plus = theta_e6_torus(0, 0, 0, sign="+")
        minus = theta_e6_torus(0, 0, 0, sign="-")
        pm, _ = _single(plus)
        mm, _ = _single(minus)
        assert pm == QuatModule("Spin(4,4)", ((0,), (0,), (0,)), 4, "sigma")
        assert mm == QuatModule("Spin(4,4)", ((0,), (0,), (0,)), 6, "sigma")
        assert plus.sign == "+" and minus.sign == "-"
        assert len(lift.lifts) == 2

    def test_rejects_nonzero_sum(self):
        with pytest.raises(ValueError):
            theta_e6_torus(1, 0, 0)


class TestE6U2:
    def test_readme_example(self):
        assert theta_e6_u2(2, 1).to_json() == {
            "sigma": {"G": "Spin(4,3)", "s": 7, "wm": [[0], [1]]},
        }

    def test_negative_b_regime(self):
        mod, _ = _single(theta_e6_u2(3, -1))
        assert mod == QuatModule("Spin(4,3)", ((1,), (2,)), 7, "sigma")

    def test_wall_pair_is_upper_bound(self):
        lift = theta_e6_u2(1, -1)
        assert lift.upper_bound
        assert lift.to_json() == {
            "lifts": [
                {"sigma": {"G": "Spin(4,3)", "s": 5, "wm": [[1], [0]]},
                 "sign": "+"},
                {"sigma": {"G": "Spin(4,3)", "s": 6, "wm": [[0], [0]]},
                 "sign": "-"},
            ],
            "upper_bound": True,
        }

    def test_zero_case(self):
        lift = theta_e6_u2(0, 0, sign="-")
        assert lift.zero
        assert lift.to_json() == {"zero": True, "sign": "-"}

    @pytest.mark.parametrize("a,b,sign,data", [
        (2, -2, "+", {"sigma": {"G": "Spin(4,3)", "wm": [[2], [0]], "s": 6},
                      "sign": "+", "upper_bound": True}),
        (2, -2, "-", {"sigma": {"G": "Spin(4,3)", "wm": [[1], [0]], "s": 7},
                      "sign": "-", "upper_bound": True}),
        (0, 0, "+", {"sigma": {"G": "Spin(4,3)", "wm": [[0], [0]], "s": 4},
                     "sign": "+", "upper_bound": True}),
        (0, 0, "-", {"zero": True, "sign": "-"}),
    ])
    def test_signed_boundary(self, a, b, sign, data):
        assert theta_e6_u2(a, b, sign=sign).to_json() == data

    def test_negated_parameters_agree(self):
        assert theta_e6_u2(-1, -3).to_json() == theta_e6_u2(3, 1).to_json()

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            theta_e6_u2(1, 2)


class TestE7:
    def test_low_regime(self):
        mod, _ = _single(theta_e7(2, 1, 1))
        assert mod == QuatModule("Spin(4,3)", ((1,), (1,)), 8, "sigma")

    def test_middle_regime(self):
        mod, _ = _single(theta_e7(2, 1, 3))
        assert mod == QuatModule("Spin(4,3)", ((0,), (1,)), 9, "sigma")
        mod2, _ = _single(theta_e7(2, 2, 2))
        assert mod2 == QuatModule("Spin(4,3)", ((1,), (0,)), 9, "sigma")

    def test_middle_regime_parity_error(self):
        with pytest.raises(ValueError):
            theta_e7(1, 1, 1)

    def test_vanishing_regime(self):
        assert theta_e7(1, 1, 3).zero
        assert theta_e7(1, 1, 3).to_json() == {"zero": True}


class TestE8:
    def test_spin8_generic(self):
        mod, mult = _single(theta_e8_spin8(2, 1, 1, 0))
        assert mult == 1
        assert mod == QuatModule("Spin(4,4)", ((1,), (1,), (1,)), 13, "A")

    def test_spin8_multiplicity(self):
        mod, mult = _single(theta_e8_spin8(3, 2, 1, 0))
        assert mult == 2
        assert mod == QuatModule("Spin(4,4)", ((1,), (1,), (1,)), 15, "A")

    def test_spin9_generic(self):
        lift = theta_e8_spin9(2, 1, 1, 1)
        mod, mult = _single(lift)
        assert mult == 1
        assert mod == QuatModule("Spin(4,3)", ((1,), (2,)), 13, "A")
        assert lift.stated_inf_char is not None
        assert lift.stated_inf_char.twice() == (11, 7, 3)

    def test_spin9_is_independent_of_third_coordinate(self):
        a = theta_e8_spin9(3, 2, 2, 1)
        b = theta_e8_spin9(3, 2, 1, 1)
        assert a.to_json()["A"] == b.to_json()["A"]

    def test_spin9_half_integral(self):
        lift = theta_e8_spin9(h(3), h(1), h(1), h(1))
        mod, _ = _single(lift)
        assert mod.wm == ((1,), (1,))
        assert mod.s == 12

    @pytest.mark.parametrize("rule, w", [
        (theta_e8_spin8, (1, 2, 1, 0)),         # not descending
        (theta_e8_spin8, (1, 1, 0, 1)),         # |d| > c
        (theta_e8_spin8, (2, h(1), 0, 0)),      # not congruent mod 1
        (theta_e8_spin9, (1, 2, 1, 0)),         # not descending
        (theta_e8_spin9, (2, 1, 1, -1)),        # d < 0
        (theta_e8_spin9, (h(3), h(1), h(1), 0)),  # not congruent mod 1
    ])
    def test_refuses_weights_outside_the_dominant_lattice(self, rule, w):
        with pytest.raises(ValueError):
            rule(*w)

    @pytest.mark.parametrize("rule", [theta_e8_spin8, theta_e8_spin9])
    def test_coordinate_forms_agree(self, rule):
        for w in ((3, 2, 1, 1), (h(5), h(3), h(1), h(1))):
            ref = rule(*w).to_json()
            twice = [HalfInt.of(c).twice for c in w]
            for form in (
                lambda t: Fraction(t, 2),
                lambda t: str(HalfInt(t)),
                HalfInt,
            ):
                assert rule(*map(form, twice)).to_json() == ref


class TestF4:
    def test_zero_splits(self):
        lift = theta_f4(0)
        assert len(lift.lifts) == 2
        pm, _ = _single(theta_f4(0, sign="+"))
        mm, _ = _single(theta_f4(0, sign="-"))
        assert pm == QuatModule("Spin(4,3)", ((0,), (0,)), 3, "sigma")
        assert mm == QuatModule("Spin(4,3)", ((0,), (0,)), 5, "sigma")

    def test_even(self):
        mod, _ = _single(theta_f4(4))
        assert mod == QuatModule("Spin(4,3)", ((2,), (0,)), 5, "sigma")

    def test_odd(self):
        mod, _ = _single(theta_f4(5))
        assert mod == QuatModule("Spin(4,3)", ((2,), (1,)), 6, "sigma")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            theta_f4(-1)


_MODULE_DOC = {"G": "Spin(4,3)", "wm": [[1], [0]], "s": 5}


class TestThetaLiftJson:
    def test_zero_shape(self):
        assert ThetaLift(()).to_json() == {"zero": True}

    def test_round_trip_all_shapes(self):
        sigma = QuatModule("Spin(4,3)", ((0,), (1,)), 6, "sigma")
        full = QuatModule("Spin(4,3)", ((1,), (0,)), 5, "A")
        lifts = [
            ThetaLift(()),
            ThetaLift((), sign="-"),
            # the general lifts shape, which no theta map returns
            ThetaLift(((sigma, 2), (full, 1))),
            ThetaLift(((sigma, 1),), upper_bound=True),
            theta_e6_u2(0, 0, sign="-"),
            theta_e6_torus(2, -1, -1),
            theta_e6_torus(0, 0, 0),
            theta_e6_u2(1, -1),
            theta_e7(2, 1, 1),
            theta_e8_spin8(3, 2, 1, 0),
            theta_e8_spin9(2, 1, 1, 1),
            theta_f4(0),
            theta_f4(7),
        ]
        for lift in lifts:
            data = lift.to_json()
            back = ThetaLift.from_json(data)
            assert back.to_json() == data
            assert back == lift

    @pytest.mark.parametrize("data, match", [
        ({}, r"^lift entry \{\} needs an A or sigma module"),
        ({"lifts": [{"mult": 1}]}, "^lift entry .* needs an A or sigma"),
        ({"lifts": [_MODULE_DOC]}, "^lift entry .* needs an A or sigma"),
        ({"A": _MODULE_DOC, "mult": "1"}, "^lift entry .* positive integer"),
        ({"A": _MODULE_DOC, "mult": 0}, "^lift entry .* positive integer"),
        ({"A": _MODULE_DOC, "mult": True}, "^lift entry .* positive integer"),
        ({"lifts": [5]}, "^lift entry 5 needs"),
        ({"lifts": {"A": _MODULE_DOC}}, "^lift .*: lifts must be a list$"),
        ([], r"^lift \[\] must be an object$"),
    ], ids=["empty", "entry-without-module", "bare-module", "mult-str",
            "mult-0", "mult-bool", "entry-not-an-object", "lifts-object",
            "document-a-list"])
    def test_from_json_refuses_malformed_documents(self, data, match):
        with pytest.raises(ValueError, match=match):
            ThetaLift.from_json(data)

    def test_modules_and_inf_chars(self):
        lift = theta_e6_torus(0, 0, 0)
        mods = lift.modules()
        assert len(mods) == 2


class TestInfcharCrosscheck:
    @pytest.mark.parametrize("which,params", [
        ("tmain", (2, 1)),
        ("tmain", (3, -1)),
        ("e7", (2, 1, 1)),
        ("e7", (2, 1, 3)),
        ("e8_spin9", (2, 1, 1, 1)),
        ("e8_spin8", (2, 1, 1, 0)),
        ("f4", (3,)),
        ("f4", (4,)),
        ("t161", (2, 1)),
    ])
    def test_consistency(self, which, params):
        assert infchar_crosscheck(which, params)

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            infchar_crosscheck("nope", (1,))


def _d4_outer_orbit(w: Weight) -> set:
    """Dominant representatives of the outer-automorphism orbit of a
    D4 weight: the group generated by the vector/half-spin swap and the
    last-coordinate flip (order 6), closed by search."""

    def apply_swap(t):
        s = (t[0] + t[1] + t[2] + t[3], t[0] + t[1] - t[2] - t[3],
             t[0] - t[1] + t[2] - t[3], t[0] - t[1] - t[2] + t[3])
        if any(x % 2 for x in s):
            return None
        return tuple(x // 2 for x in s)

    def apply_flip(t):
        return (t[0], t[1], t[2], -t[3])

    def dom(t):
        return dominant_representative(Weight.from_twice(t, "D4")).twice()

    seen = set()
    frontier = [dominant_representative(w).twice()]
    while frontier:
        t = frontier.pop()
        if t in seen:
            continue
        seen.add(t)
        for img in (apply_swap(t), apply_flip(t)):
            if img is not None and dom(img) not in seen:
                frontier.append(dom(img))
    return {Weight.from_twice(t, "D4") for t in seen}


class TestT161:
    """t161 reads one W(F4) representative where the reference searches
    the D4 outer-automorphism orbit."""

    def test_outer_orbit_is_the_f4_orbit(self):
        # dominant D4 weights, doubled entries in [-6, 6], integral and
        # half-integral, the last entry signed
        weights = [
            t for t in itertools.product(range(-6, 7), repeat=4)
            if len({x % 2 for x in t}) == 1
            and t[0] >= t[1] >= t[2] >= abs(t[3])
        ]
        assert any(t[3] < 0 for t in weights)
        assert any(t[0] % 2 for t in weights)
        f4 = _sys("F4")
        key = {t: f4.dominant_twice(t) for t in weights}
        same = 0
        for u in weights:
            orbit = {
                w.twice() for w in _d4_outer_orbit(Weight.from_twice(u, "D4"))
            }
            for v in weights:
                assert (v in orbit) == (key[u] == key[v]), (u, v)
                same += v in orbit
        assert same > 2 * len(weights)  # some orbits merge D4 classes

    def test_t161_agrees_with_the_outer_orbit(self):
        checked = 0
        for a, b in itertools.product(range(13), repeat=2):
            if (a, b) == (0, 0):
                with pytest.raises(ValueError, match="not both zero"):
                    infchar_crosscheck("t161", (a, b))
                continue
            chars = [
                inf_char(QuatModule(
                    "Spin(4,4)", tuple((x,) for x in wm), 4 + a + b, "sigma"
                ))
                for wm in ((b, a, 0), (0, b, a), (a, 0, b))
            ]
            orbit = _d4_outer_orbit(chars[0])
            want = all(ch in orbit for ch in chars)
            assert infchar_crosscheck("t161", (a, b)) == want
            checked += want
        assert checked == 168

    def test_t161_refuses_negative_entries(self):
        with pytest.raises(ValueError, match="need a, b >= 0"):
            infchar_crosscheck("t161", (-1, 2))


class TestSeesaw:
    @pytest.mark.parametrize("bd", [(0, 0), (1, 0), (1, 1)])
    def test_integral(self, bd):
        b, d = bd
        ok, compared = seesaw_truncation_check(b, d, 12)
        assert ok and compared > 0

    def test_half_integral(self):
        ok, compared = seesaw_truncation_check(h(1), h(1), 12)
        assert ok and compared > 0

    def test_low_truncation_compares_nothing(self):
        # the lowest outer label on either side is 8 + a + b
        assert seesaw_truncation_check(1, 0, 8) == (True, 0)

    def test_each_module_ledger_is_built_once(self, monkeypatch):
        # every lift over c in [d, b] is the right side's module
        built = []

        def spy(mod, kmax):
            built.append(mod)
            return ktypes(mod, kmax)

        monkeypatch.setattr(thetamaps, "ktypes", spy)
        assert seesaw_truncation_check(HalfInt(4), HalfInt(0), 16)[0]
        assert built and len(built) == len(set(built))

    def test_suite_pairs_at_outer_label_24(self):
        # (sides equal, K-types compared) in _suite_seesaw's order
        assert [(ok, n) for _, n, ok in _suite_seesaw(24)] == [
            (True, 725), (True, 508), (True, 575), (True, 340),
            (True, 391), (True, 437), (True, 612), (True, 420),
        ]
