import functools

import pytest

from quatheta.aqmodules import (
    CASE_IDS,
    AqCase,
    AqData,
    _case_lambda,
    abc_to_xy,
    aq_data,
    cone_contains,
    cone_extreme_rays,
    ftau_restriction_segments,
    g2_modules_with_infchar,
    orbit_key,
    theta_unitary,
    xy_to_abc,
)


# the case domains as displayed: AqCase accepts a sum-zero lambda for a
# case exactly when its inequality holds
_DOMAINS = {
    ("G2", "I"): lambda l1, l2, l3: l1 > l2 > 0,
    ("G2", "II"): lambda l1, l2, l3: -l3 > -l2 > 0,
    ("G2", "III"): lambda l1, l2, l3: l2 > l1 > 0,
    ("G2", "Ia.1"): lambda l1, l2, l3: l1 == l2 > 0,
    ("G2", "Ia.2"): lambda l1, l2, l3: l1 == l2 > 0,
    ("G2", "Ia.3"): lambda l1, l2, l3: l1 == l2 > 0,
    ("G2", "Ib"): lambda l1, l2, l3: l2 == l3 < 0,
    ("G2", "IIa.1"): lambda l1, l2, l3: l2 == 0 and l1 > 0,
    ("G2", "IIa.2"): lambda l1, l2, l3: l2 == 0 and l1 > 0,
    ("G2", "IIa.3"): lambda l1, l2, l3: l2 == 0 and l1 > 0,
    ("G2", "IIb"): lambda l1, l2, l3: l1 == 0 and l2 > 0,
    ("PU21", "I"): lambda l1, l2, l3: l1 > l2 > l3,
    ("PU21", "II"): lambda l1, l2, l3: l1 > l3 > l2,
    ("PU21", "III"): lambda l1, l2, l3: l2 > l1 > l3,
    ("PU21", "Ia.1"): lambda l1, l2, l3: l1 == l2 > 0,
    ("PU21", "Ia.2"): lambda l1, l2, l3: l1 == l2 > 0,
    ("PU21", "Ia.3"): lambda l1, l2, l3: l1 == l2 > 0,
    ("PU21", "Ib"): lambda l1, l2, l3: l1 == l3 > 0,
    ("PU21", "IIa.1"): lambda l1, l2, l3: l2 == l3 < 0,
    ("PU21", "IIa.2"): lambda l1, l2, l3: l2 == l3 < 0,
    ("PU21", "IIa.3"): lambda l1, l2, l3: l2 == l3 < 0,
    ("PU21", "IIb"): lambda l1, l2, l3: l1 == l3 < 0,
}


class TestCaseDomains:
    @pytest.mark.parametrize("group,case_id", list(_DOMAINS))
    def test_accepts_exactly_the_displayed_domain(self, group, case_id):
        inside = _DOMAINS[group, case_id]
        accepted = refused = 0
        for l1 in range(-12, 13):
            for l2 in range(-12, 13):
                lam = (l1, l2, -l1 - l2)
                if abs(lam[2]) > 12:
                    continue
                if inside(*lam):
                    assert AqCase(group, case_id, lam).lam == lam
                    accepted += 1
                    continue
                with pytest.raises(ValueError) as exc:
                    AqCase(group, case_id, lam)
                assert str(exc.value) == (
                    f"lambda {lam} violates the constraints of "
                    f"{group} case {case_id}"
                )
                refused += 1
        assert accepted and refused


class TestAqCase:
    def test_valid(self):
        case = AqCase("G2", "I", (2, 1, -3))
        assert case.group == "G2"
        assert case.case_id == "I"
        assert case.lam == (2, 1, -3)

    def test_rejects_nonzero_sum(self):
        with pytest.raises(ValueError):
            AqCase("G2", "I", (2, 1, -2))

    def test_rejects_wrong_chamber(self):
        with pytest.raises(ValueError):
            AqCase("G2", "I", (1, 2, -3))

    def test_rejects_unknown_case(self):
        with pytest.raises(ValueError):
            AqCase("G2", "IV", (2, 1, -3))

    def test_rejects_unknown_group(self):
        with pytest.raises(ValueError):
            AqCase("SU3", "I", (2, 1, -3))


class TestCoordinateMaps:
    def test_abc_to_xy(self):
        assert abc_to_xy((2, 1, -3)) == (4, 2)

    def test_xy_to_abc(self):
        assert xy_to_abc(4, 2) == (2, 1, -3)

    def test_round_trip(self):
        for t in ((2, 1, -3), (0, 4, -4), (-1, 3, -2)):
            assert xy_to_abc(*abc_to_xy(t)) == t

    def test_parity_error(self):
        with pytest.raises(ValueError):
            xy_to_abc(1, 0)


def test_aq_data_g2_regular_golden():
    d = aq_data(AqCase("G2", "I", (2, 1, -3)))
    assert d.to_json() == {
        "inf_char": [4, 2, -6],
        "minimal_type_abc": [4, 3, -7],
        "minimal_type_xy": [10, 4],
        "u_cap_p_weights": [[1, -1, 0], [-1, 2, -1], [1, 0, -1], [1, 1, -2]],
    }


def test_aq_data_pu21_regular_golden():
    d = aq_data(AqCase("PU21", "I", (3, 1, -4)))
    assert d.to_json() == {
        "inf_char": [4, 1, -5],
        "minimal_type_abc": [4, 1, -5],
        "minimal_type_u2": [4, -5],
        "minimal_type_xy": [6, 4],
        "u_cap_p_weights": [[1, -1, 0], [0, 1, -1]],
    }


def test_aq_data_json_round_trip():
    d = aq_data(AqCase("G2", "Ia.2", (2, 2, -4)))
    assert AqData.from_json(d.to_json()) == d
    d2 = aq_data(AqCase("PU21", "II", (3, -4, 1)))
    assert AqData.from_json(d2.to_json()) == d2
    for group in ("G2", "PU21"):
        for cid in CASE_IDS:
            d = aq_data(AqCase(group, cid, _case_lambda(group, cid, 3, 1)))
            assert AqData.from_json(d.to_json()) == d
            assert ("minimal_type_u2" in d.to_json()) == (group == "PU21")


# (x, y) of the minimal type, closed forms per case
G2_XY = {
    "I": lambda a, b: (b + 2 * a + 6, a + 2),      # c = -a-b
    "II": lambda a, b: (a - b + 4, a + b),          # lam = (-c,-b,-a)
    "III": lambda a, b: (2 * a + b + 8, b),         # lam = (b,a,c)
}


@pytest.mark.parametrize("a,b", [(2, 1), (3, 1), (3, 2), (5, 2), (7, 3)])
def test_g2_regular_xy_closed_forms(a, b):
    c = -a - b
    assert aq_data(AqCase("G2", "I", (a, b, c))).minimal_type_xy == \
        (b - c + 6, a + 2)
    assert aq_data(AqCase("G2", "II", (-c, -b, -a))).minimal_type_xy == \
        (a - b, -c + 4)
    assert aq_data(AqCase("G2", "III", (b, a, c))).minimal_type_xy == \
        (a - c + 8, b)


@pytest.mark.parametrize("a", [1, 2, 3, 5])
def test_g2_wall_xy_closed_forms(a):
    lam = (a, a, -2 * a)
    assert aq_data(AqCase("G2", "Ia.1", lam)).minimal_type_xy == \
        (3 * a + 6, a + 2)
    assert aq_data(AqCase("G2", "Ia.2", lam)).minimal_type_xy == \
        (3 * a + 7, a + 1)
    assert aq_data(AqCase("G2", "Ia.3", lam)).minimal_type_xy == \
        (3 * a + 8, a)
    assert aq_data(AqCase("G2", "Ib", (2 * a, -a, -a))).minimal_type_xy == \
        (0, 2 * a + 4)
    assert aq_data(AqCase("G2", "IIa.1", (a, 0, -a))).minimal_type_xy == \
        (a, a + 4)
    assert aq_data(AqCase("G2", "IIa.2", (a, 0, -a))).minimal_type_xy == \
        (a + 3, a + 3)
    assert aq_data(AqCase("G2", "IIa.3", (a, 0, -a))).minimal_type_xy == \
        (a + 6, a + 2)
    assert aq_data(AqCase("G2", "IIb", (0, a, -a))).minimal_type_xy == \
        (2 * a + 8, 0)


@pytest.mark.parametrize("a,b", [(2, 1), (3, 1), (3, 2), (5, 2)])
def test_pu21_regular_u2_closed_forms(a, b):
    c = -a - b
    assert aq_data(AqCase("PU21", "I", (a, b, c))).minimal_type_u2 == \
        (a + 1, c - 1)
    assert aq_data(AqCase("PU21", "II", (a, c, b))).minimal_type_u2 == \
        (a + 1, b + 1)
    assert aq_data(AqCase("PU21", "III", (b, a, c))).minimal_type_u2 == \
        (b - 1, c - 1)


@pytest.mark.parametrize("a", [1, 2, 4])
def test_pu21_wall_u2_closed_forms(a):
    lam = (a, a, -2 * a)
    assert aq_data(AqCase("PU21", "Ia.1", lam)).minimal_type_u2 == \
        (a, -2 * a - 1)
    assert aq_data(AqCase("PU21", "Ia.2", lam)).minimal_type_u2 == \
        (a - 1, -2 * a - 1)
    assert aq_data(AqCase("PU21", "Ia.3", lam)).minimal_type_u2 == \
        (a + 1, -2 * a - 1)
    assert aq_data(AqCase("PU21", "Ib", (a, -2 * a, a))).minimal_type_u2 == \
        (a + 1, a + 1)
    assert aq_data(
        AqCase("PU21", "IIa.1", (2 * a, -a, -a))).minimal_type_u2 == \
        (2 * a + 1, -a)
    assert aq_data(
        AqCase("PU21", "IIb", (-a, 2 * a, -a))).minimal_type_u2 == \
        (-a - 1, -a - 1)


def test_pu21_inf_char_closed_form():
    a, b, c = 3, 1, -4
    d = aq_data(AqCase("PU21", "I", (a, b, c)))
    assert d.inf_char == (a + 1, b, c - 1)


class TestOrbitKey:
    def test_golden(self):
        assert orbit_key((2, 1, -3)) == (3, -1, -2)

    def test_invariance(self):
        base = orbit_key((2, 1, -3))
        assert orbit_key((1, -3, 2)) == base
        assert orbit_key((-2, -1, 3)) == base
        assert orbit_key((3, -1, -2)) == base


class TestCones:
    def test_contains_apex(self):
        case = AqCase("G2", "I", (2, 1, -3))
        assert cone_contains(case, (10, 4))
        assert not cone_contains(case, (9, 4))

    def test_contains_apex_plus_generators(self):
        case = AqCase("G2", "I", (2, 1, -3))
        apex = aq_data(case).minimal_type_xy
        for d in cone_extreme_rays(case):
            p = (apex[0] + d[0], apex[1] + d[1])
            assert cone_contains(case, p)
            q = (apex[0] - d[0], apex[1] - d[1])
            assert not cone_contains(case, q)

    @pytest.mark.parametrize("case_id,lam,rays", [
        ("I", (2, 1, -3), ((3, -1), (-1, 1))),
        ("II", (3, -1, -2), ((3, 1), (-3, 1))),
        ("III", (1, 2, -3), ((1, -1), (1, 1))),
        ("Ia.1", (2, 2, -4), ((3, -1), (-1, 1))),
        ("Ia.2", (2, 2, -4), ((3, -1), (1, 1))),
        ("Ia.3", (2, 2, -4), ((1, -1), (1, 1))),
        ("Ib", (4, -2, -2), ((3, 1), (-3, 1))),
    ])
    def test_g2_extreme_rays(self, case_id, lam, rays):
        assert cone_extreme_rays(AqCase("G2", case_id, lam)) == rays

    @pytest.mark.parametrize("case_id,lam,rays", [
        ("Ia.1", (1, 1, -2), ((1, 0), (1, 0))),
        ("Ia.2", (1, 1, -2), ((1, -1), (1, 0))),
        ("Ia.3", (1, 1, -2), ((1, 0), (-1, 1))),
        ("Ib", (1, -2, 1), ((-1, 1), (-1, 0))),
    ])
    def test_pu21_wall_extreme_rays(self, case_id, lam, rays):
        assert cone_extreme_rays(AqCase("PU21", case_id, lam)) == rays


@functools.cache
def _g2_candidates(amax):
    """Every G2 case at every parameter up to amax with its data, in the
    search's order: by a, the regular cases (by b, then I, II, III)
    before the wall cases."""
    out = []
    for a in range(1, amax + 1):
        params = [(cid, a, b) for b in range(1, a) for cid in CASE_IDS[:3]]
        params += [(cid, a) for cid in CASE_IDS[3:]]
        for cid, *p in params:
            case = AqCase("G2", cid, _case_lambda("G2", cid, *p))
            out.append((case, aq_data(case)))
    return tuple(out)


def _g2_search_reference(target, amax):
    """The brute-force search: every candidate whose infinitesimal
    character lies in the orbit of target."""
    key = orbit_key(target)
    return [(c, d) for c, d in _g2_candidates(amax)
            if orbit_key(d.inf_char) == key]


class TestModulesWithInfchar:
    @pytest.mark.parametrize("amax", [0, 1, 3, 12])
    def test_equals_the_brute_force(self, amax):
        # targets (a, b, c) with a, b in [-9, 9] and a + b + c in {0, 1};
        # the list order is compared too
        found = 0
        for a in range(-9, 10):
            for b in range(-9, 10):
                for c in (-a - b, 1 - a - b):
                    want = _g2_search_reference((a, b, c), amax)
                    assert g2_modules_with_infchar((a, b, c), amax) == want, \
                        (a, b, c)
                    found += len(want)
        assert found > 0 or amax == 0

    def test_regular_triple(self):
        mods = g2_modules_with_infchar((4, 2, -6), 12)
        assert [(c.case_id, c.lam) for c, _ in mods] == [
            ("I", (2, 1, -3)), ("II", (3, -1, -2)), ("III", (1, 2, -3)),
        ]

    def test_wall_quadruple(self):
        mods = g2_modules_with_infchar((3, 2, -5), 12)
        assert [(c.case_id, c.lam) for c, _ in mods] == [
            ("Ia.1", (1, 1, -2)), ("Ia.2", (1, 1, -2)),
            ("Ia.3", (1, 1, -2)), ("Ib", (2, -1, -1)),
        ]

    def test_consistent_inf_chars(self):
        target = (4, 2, -6)
        for case, data in g2_modules_with_infchar(target, 12):
            assert orbit_key(data.inf_char) == orbit_key(target)


class TestFtauSegments:
    def test_golden_a1(self):
        assert ftau_restriction_segments(1) == [
            [(2, 0), (4, 0), (6, 0), (8, 0)],
            [(3, 1), (5, 1), (7, 1)],
            [(4, 2), (6, 2)],
        ]

    @pytest.mark.parametrize("a", [1, 2, 3, 6])
    def test_maxima_and_lengths(self, a):
        segs = ftau_restriction_segments(a)
        assert [seg[-1] for seg in segs] == [
            (3 * a + 5, a - 1), (3 * a + 4, a), (3 * a + 3, a + 1),
        ]
        assert [len(seg) for seg in segs] == [a + 3, a + 2, a + 1]

    def test_rejects_nonpositive_parameter(self):
        with pytest.raises(ValueError, match="^need a > 0$"):
            ftau_restriction_segments(0)

    @pytest.mark.parametrize("a", [1, 4])
    def test_segments_ascend_in_steps_of_two(self, a):
        for seg in ftau_restriction_segments(a):
            xs = [x for x, _ in seg]
            assert xs == sorted(xs)
            assert all(x2 - x1 == 2 for x1, x2 in zip(xs, xs[1:]))


class TestThetaUnitary:
    def test_wall_zero(self):
        r = theta_unitary("wall", 2, (3, 3))
        assert r.zero and not r.conditional
        assert r.to_json() == {"zero": True}

    @pytest.mark.parametrize("tau,xy", [
        ((1, -5), (11, 1)), ((2, -5), (10, 2)), ((3, -5), (9, 3)),
    ])
    def test_wall_conditional(self, tau, xy):
        r = theta_unitary("wall", 2, tau)
        assert not r.zero and r.conditional
        assert r.minimal_type_xy == xy
        assert r.to_json() == {
            "minimal_type_xy": list(xy), "if_nonzero": True,
        }

    def test_regular_bullets(self):
        lam = (3, 1, -4)
        r = theta_unitary("regular", lam, (4, -5))
        assert r.minimal_type_xy == (8, 4) and r.conditional
        assert theta_unitary("regular", lam, (4, 2)).zero
        r2 = theta_unitary("regular", lam, (0, -5))
        assert r2.minimal_type_xy == (12, 0) and r2.conditional

    @pytest.mark.parametrize("a", [2, 3, 5])
    def test_wall_formulas(self, a):
        assert theta_unitary("wall", a, (a + 1, a + 1)).zero
        for tau, xy in (
            ((a - 1, -2 * a - 1), (3 * a + 5, a - 1)),
            ((a, -2 * a - 1), (3 * a + 4, a)),
            ((a + 1, -2 * a - 1), (3 * a + 3, a + 1)),
        ):
            r = theta_unitary("wall", a, tau)
            assert r.conditional and r.minimal_type_xy == xy

    @pytest.mark.parametrize("abc", [(3, 1, -4), (4, 2, -6), (5, 1, -6)])
    def test_regular_formulas(self, abc):
        a, b, c = abc
        r = theta_unitary("regular", abc, (a + 1, c - 1))
        assert r.conditional and r.minimal_type_xy == (3 - c + b, a + 1)
        assert theta_unitary("regular", abc, (a + 1, b + 1)).zero
        r2 = theta_unitary("regular", abc, (b - 1, c - 1))
        assert r2.conditional and r2.minimal_type_xy == (5 + a - c, b - 1)

    @pytest.mark.parametrize("regime,params,tau,message", [
        ("wall", 0, (1, 1), "need a > 0"),
        ("wall", 2, (0, 0), "(0, 0) is not a minimal type for wall parameter 2"),
        ("regular", (3, 1, -4), (0, 0),
         "(0, 0) is not a minimal type for (3, 1, -4)"),
        ("regular", (1, 2, -3), (0, 0),
         "need a > b > c with b > 0 summing to zero"),
    ])
    def test_refusals(self, regime, params, tau, message):
        with pytest.raises(ValueError) as exc:
            theta_unitary(regime, params, tau)
        assert str(exc.value) == message

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            theta_unitary("other", 2, (3, 3))
