"""Named verification suites.

Each suite runs a batch of identity checks (closed forms against the
character oracle, theorem tables against general evaluations) and
yields one record per property: a plain tuple (label, cases, ok).  A
case is one parameter instance compared: one value of the line's
enumerated parameters, or one entry of a fixed literal list (a see-saw
line's cases are the K-types it compared).  `run_suite` turns each
record into one deterministic PASS/FAIL line; a record that compared
no cases is a FAIL whatever its ok, and its line ends in "(no cases
compared)".  Reports carry no timing or environment data, so repeated
runs are byte-identical.
"""

from __future__ import annotations

import random
from math import comb

from .rootdata import (
    HalfInt,
    _add,
    _half,
    _sub,
    highest_root,
    highest_root_coefficients,
    quaternionic_structure,
)
from .charoracle import (
    char_weights,
    embedding,
    irrep,
    restrict,
    strip_dominant,
    weyl_dim,
)
from .branchrules import (
    _dominant_tuples,
    branch_sp,
    branch_spin_even,
    branch_spin_odd,
    f4_to_spin9_table,
    restrict_e7_to_su2_spin12,
)
from .quaternionic import (
    QuatModule,
    _sym_char_chain,
    _vm_irrep,
    check_lemma_surjectivity,
    ktypes,
    minimal_type,
    restrict_filtration,
    sym_power,
)
from .thetamaps import (
    infchar_crosscheck,
    seesaw_truncation_check,
    theta_e6_torus,
    theta_e6_u2,
    theta_e7,
    theta_e8_spin8,
    theta_e8_spin9,
    theta_f4,
)
from .aqmodules import (
    CASE_IDS,
    AqCase,
    _case_lambda,
    abc_to_xy,
    aq_data,
    cone_contains,
    ftau_restriction_segments,
    g2_modules_with_infchar,
    orbit_key,
    theta_unitary,
    xy_to_abc,
)


# ---------------------------------------------------------------------------
# shared comparison helpers


def _each(label, results):
    """The record of a line over its per-case results."""
    results = list(results)
    return label, len(results), all(results)


def _rule_twice_mults(table) -> dict:
    """A two-step rule's {mu: last factor} table in the shape of
    IsoDecomp.twice_mults: mu's doubled coordinates followed by the last
    factor's doubled weight (an SU(2) label k is 2k)."""
    out = {}
    for mu, last in table.items():
        pairs = (
            [(2 * k, m) for k, m in last.items()] if isinstance(last, dict)
            else last.entries
        )
        mu2 = tuple(x.twice for x in mu)
        out.update({mu2 + (t,): m for t, m in pairs if m})
    return out


def _first_lift(lift):
    """The first lifted module's doubled M-type and its s."""
    mod = lift.lifts[0][0]
    return tuple(f[0].twice for f in mod.wm), mod.s


def _lift_keys(lift):
    return [(mod.wm, mod.s) for mod, _ in lift.lifts]


# ---------------------------------------------------------------------------
# suites


def _suite_rootdata(max_entry=None):
    yield (
        "E6 highest-root expansion coefficients equal (1,2,2,3,2,1)", 1,
        highest_root_coefficients("E6") == (1, 2, 2, 3, 2, 1),
    )
    yield (
        "E7 highest-root expansion coefficients equal (2,2,3,4,3,2,1)", 1,
        highest_root_coefficients("E7") == (2, 2, 3, 4, 3, 2, 1),
    )
    rows = []
    for g in ("Spin(4,3)", "Spin(4,4)", "E6_4", "E7_4", "E8_4", "F4_4",
              "G2_2"):
        qs = quaternionic_structure(g)
        theta = highest_root(qs.system)
        dim = 1
        for fac, hw in zip(qs.m_factors, qs.vm_hw):
            dim *= weyl_dim(irrep(fac, hw))
        rows.append(
            qs.alpha0.twice() == tuple(-x for x in theta.twice())
            and dim == qs.vm_dim
        )
    yield _each(
        "each quaternionic row has alpha0 = -(highest root) and a "
        "consistent dim V_M",
        rows,
    )


def _suite_oracle(max_entry=None):
    h = HalfInt  # doubled-coordinate constructor
    dims = {
        ("F4", (1, 0, 0, 0)): 26,
        ("F4", (h(3), h(1), h(1), h(1))): 273,
        ("F4", (2, 0, 0, 0)): 324,
        ("F4", (h(5), h(1), h(1), h(1))): 4096,
        ("F4", (3, 1, 1, 1)): 19448,
        ("B4", (1, 0, 0, 0)): 9,
        ("B4", (h(1), h(1), h(1), h(1))): 16,
        ("G2", (1, 1, -2)): 14,
        ("E8", (0, 0, 0, 0, 0, 0, 1, 1)): 248,
    }
    yield _each(
        "dimension formula matches reference values",
        (weyl_dim(irrep(lbl, hw)) == d for (lbl, hw), d in dims.items()),
    )
    yield _each("character weight mass equals dimension", (
        char_weights(r).mass() == weyl_dim(r)
        for r in (irrep("C2", (2, 1)), irrep("B3", (1, 1, 1)),
                  irrep("D4", (1, 1, 1, -1)))
    ))
    yield _each("restriction preserves dimension", (
        restrict(r, embedding(emb)).dimension() == weyl_dim(r)
        for r, emb in (
            (irrep("C3", (1, 1, 0)), "Sp3>Sp2xSp1"),
            (irrep("D4", (1, 0, 0, 0)), "Spin8>Spin7"),
            (irrep("B3", (1, 1, 0)), "Spin7>Spin5xSpin2"),
        )
    ))


_APPENDIX_FAMILIES = (
    ("Sp(2) -> Sp(1) x Sp(1)", "C2", "Sp2>Sp1xSp1", branch_sp),
    ("Sp(3) -> Sp(2) x Sp(1)", "C3", "Sp3>Sp2xSp1", branch_sp),
    ("Spin(5) -> Spin(3) x Spin(2)", "B2", "Spin5>Spin3xSpin2",
     branch_spin_odd),
    ("Spin(7) -> Spin(5) x Spin(2)", "B3", "Spin7>Spin5xSpin2",
     branch_spin_odd),
    ("Spin(6) -> Spin(4) x Spin(2)", "D3", "Spin6>Spin4xSpin2",
     branch_spin_even),
    ("Spin(8) -> Spin(6) x Spin(2)", "D4", "Spin8>Spin6xSpin2",
     branch_spin_even),
)


def _suite_appendix(max_entry=None):
    bound = 2 if max_entry is None else int(max_entry)
    for name, label, emb, rule in _APPENDIX_FAMILIES:
        # Sp(n) weights are integral; only D's last coordinate is signed
        parities = (0,) if label[0] == "C" else (0, 1)
        same = [
            restrict(irrep(label, lam), embedding(emb)).twice_mults
            == _rule_twice_mults(rule(lam))
            for parity in parities
            for lam in (tuple(map(_half, t)) for t in _dominant_tuples(
                2 * bound, int(label[1]), parity, label[0] == "D"))
        ]
        yield _each(
            f"{name} closed form equals oracle on {len(same)} dominant "
            f"weights (entries <= {bound})",
            same,
        )


def _suite_f4_spin9(max_entry=None):
    for a, b in ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2)):
        got = {
            tuple(x.twice for x in w): m
            for w, m in f4_to_spin9_table(a, b).items()
        }
        hw = tuple(map(_half, (2 * a + b, b, b, b)))
        dec = restrict(irrep("F4", hw), embedding("F4>B4"))
        yield (
            f"F4 -> Spin(9) closed form equals oracle for (a,b)=({a},{b})",
            1, got == dec.twice_mults,
        )
    dims = sorted(
        weyl_dim(irrep("B4", w)) for w in f4_to_spin9_table(1, 0)
    )
    yield (
        "the 26-dimensional representation restricts as 1 + 9 + 16", 1,
        dims == [1, 9, 16],
    )


def _suite_e7d6(max_entry=None):
    for k in range(4):
        rows = restrict_e7_to_su2_spin12(k)
        total = sum((m + 1) * weyl_dim(irrep("D6", w)) for m, w in rows)
        hw = (0, 0, 0, 0, 0, k, _half(-k), _half(k))
        want = weyl_dim(irrep("E7", hw))
        yield (
            f"SU(2) x Spin(12) rows for the k={k} family sum to "
            f"dimension {want}",
            1, total == want,
        )


# ledgers on which ktypes' Newton-Klimyk levels are compared with the
# stripped symmetric-power chain: each quaternionic group with W trivial
# and with W non-trivial, at levels the default cap admits
LEDGER_ORACLE_CASES = (
    ("Spin(4,3)", ((0,), (0,)), 4),
    ("Spin(4,3)", ((1,), (2,)), 3),
    ("Spin(4,4)", ((0,), (0,), (0,)), 4),
    ("Spin(4,4)", ((1,), (2,), (0,)), 3),
    ("G2_2", ((0,),), 4),
    ("G2_2", ((2,),), 3),
    ("F4_4", ((0, 0, 0),), 3),
    ("F4_4", ((1, 0, 0),), 2),
    ("E6_4", ((0,) * 6,), 2),
    ("E6_4", ((1, 0, 0, 0, 0, 0),), 2),
    ("E7_4", ((0,) * 6,), 2),
    ("E7_4", ((HalfInt(1),) * 6,), 1),  # the 32 = V_M
    ("E8_4", ((0,) * 8,), 2),
    ("E8_4", ((0, 0, 0, 0, 0, 1, HalfInt(-1), HalfInt(1)),), 1),  # the 56
)


def ledger_levels_match_oracle(g: str, wm: tuple, kmax: int) -> list:
    """Per level of A(g, wm[4]) up to kmax: whether ktypes' level equals
    strip_dominant of the symmetric-power chain seeded with W."""
    mod = QuatModule(g, wm, 4)
    chain = _sym_char_chain(
        char_weights(_vm_irrep(mod.structure())), kmax,
        seed=char_weights(mod.m_irrep()),
    )
    return [
        dec == strip_dominant(tau)
        for (_, dec), tau in zip(ktypes(mod, kmax), chain, strict=True)
    ]


def _suite_quaternionic(max_entry=None):
    yield (
        "S^2 of the adjoint of SU(2) is (4) + (0)", 1,
        sym_power(irrep("C1", (2,)), 2).twice_mults == {(8,): 1, (0,): 1},
    )
    mod = QuatModule("Spin(4,3)", ((1,), (2,)), 5)
    d = weyl_dim(irrep(("C1", "C1"), (1,), (2,)))  # dim V_M
    wdim = weyl_dim(mod.m_irrep())
    # dim S^k(V_M) = C(k+d-1, k), independent of the ledger's chain
    yield _each(
        "K-type levels carry S^k(V_M) (x) W with outer label s+k-2",
        (su0 == mod.s + k - 2 and dec.dimension() == comb(k + d - 1, k) * wdim
         for k, (su0, dec) in enumerate(ktypes(mod, 3))),
    )
    yield (
        "minimal type of A(G, W[s]) is (s-2, W)", 1,
        minimal_type(mod) == (3, mod.wm),
    )
    same = [
        ok
        for g, wm, kmax in LEDGER_ORACLE_CASES
        for ok in ledger_levels_match_oracle(g, wm, kmax)
    ]
    groups = len({g for g, _, _ in LEDGER_ORACLE_CASES})
    yield _each(
        f"Newton-Klimyk ledger levels equal the stripped symmetric-power "
        f"chain on {len(same)} (group, W, level) cases over {groups} groups",
        same,
    )


def _suite_filtration(max_entry=None):
    same = [
        filt[m] == [
            QuatModule("Spin(4,3)", ((m,), (a - b + 2 * j,)), 4 + a + b + m)
            for j in range(b + 1)
        ]
        for b in range(4)
        for a in range(b, 7)
        for filt in [restrict_filtration(
            QuatModule("Spin(4,4)", ((0,), (b,), (a,)), 4 + a + b), 3)]
        for m in range(4)
    ]
    yield _each(
        f"level filtration of (0,b,a) modules matches the displayed sum "
        f"on {len(same)} cases (b <= 3, a <= 6, level <= 3)",
        same,
    )


def _suite_surjectivity(max_entry=None):
    yield _each(
        "multiplication-map surjectivity fails for n = 0, 1",
        (not check_lemma_surjectivity(n)[2] for n in (0, 1)),
    )
    yield _each(
        "multiplication map has full rank 3(n+2) for 2 <= n <= 30",
        (surj and rank == 3 * (n + 2)
         for n in range(2, 31)
         for rank, _, surj in [check_lemma_surjectivity(n)]),
    )


def _suite_theta(max_entry=None):
    lift = theta_e6_torus(2, 1, -3)
    yield (
        "torus lift of (2,1,-3) is sigma((1,2,0)[7])", 1,
        lift.lifts[0][0].kind == "sigma"
        and _first_lift(lift) == ((2, 4, 0), 7),
    )
    yield _each("torus lifts are invariant under global negation", (
        _lift_keys(theta_e6_torus(a, b, -a - b))
        == _lift_keys(theta_e6_torus(-a, -b, a + b))
        for a in range(-5, 6)
        for b in range(-5, 6)
        if (a, b) != (0, 0)
    ))
    yield _each(
        "U(2) lifts of (2,1) and (3,-1) are sigma((0,1)[7]) and "
        "sigma((1,2)[7])",
        [_first_lift(theta_e6_u2(2, 1)) == ((0, 2), 7),
         _first_lift(theta_e6_u2(3, -1)) == ((2, 4), 7)],
    )
    yield _each("U(2) lifts are invariant under (a,b) -> (-b,-a)", (
        _lift_keys(theta_e6_u2(a, b)) == _lift_keys(theta_e6_u2(-b, -a))
        for a in range(-5, 6)
        for b in range(-5, a + 1)
    ))
    yield _each(
        "Sp(2) x Sp(1) lifts of ((2,1);1), ((2,1);3) and the vanishing "
        "of ((1,0);2)",
        [_first_lift(theta_e7(2, 1, 1)) == ((2, 2), 8),
         _first_lift(theta_e7(2, 1, 3)) == ((0, 2), 9),
         theta_e7(1, 0, 2).zero],
    )
    yield _each(
        "Spin(8) lifts of (2,1,1,0), (1,1,0,0), (0,0,0,0) have the "
        "stated modules and multiplicities",
        ((_first_lift(e), e.lifts[0][1]) == want
         for e, want in (
             (theta_e8_spin8(2, 1, 1, 0), (((2, 2, 2), 13), 1)),
             (theta_e8_spin8(1, 1, 0, 0), (((0, 0, 0), 12), 2)),
             (theta_e8_spin8(0, 0, 0, 0), (((0, 0, 0), 10), 1)),
         )),
    )
    yield _each(
        "Spin(9) lifts of (2,1,1,0) and (1/2,1/2,1/2,1/2) carry their "
        "stated infinitesimal characters",
        ((_first_lift(s), s.stated_inf_char.twice()) == want
         for s, want in (
             (theta_e8_spin9(2, 1, 1, 0), (((2, 0), 13), (11, 7, 1))),
             (theta_e8_spin9(HalfInt(1), HalfInt(1), HalfInt(1), HalfInt(1)),
              (((0, 2), 11), (8, 6, 2))),
         )),
    )
    yield _each(
        "SU(2) lifts of labels 4 and 3 are sigma((2,0)[5]) and "
        "sigma((1,1)[5])",
        [_first_lift(theta_f4(4)) == ((4, 0), 5),
         _first_lift(theta_f4(3)) == ((2, 2), 5)],
    )


def _suite_infchar(max_entry=None):
    bound = 6 if max_entry is None else int(max_entry)
    yield _each(
        "U(2)-lift infinitesimal characters match (a+b+1,a+b-1,a-b+1)/2",
        (infchar_crosscheck("tmain", (a, b))
         for a in range(-bound, bound + 1)
         for b in range(-bound, a + 1)),
    )
    yield _each(
        "Sp(2) x Sp(1)-lift infinitesimal characters match "
        "(a+b+3,a-b+1,c+1)/2",
        (infchar_crosscheck("e7", (a, b, c))
         for a in range(bound + 1)
         for b in range(a + 1)
         for c in range(bound + 1)
         if c <= a - b or (c <= a + b and (a + b - c) % 2 == 0)),
    )
    yield _each(
        "Spin(8)- and Spin(9)-lift infinitesimal characters match their "
        "stated forms",
        (infchar_crosscheck(which, tuple(map(_half, t)))
         for which, top, signed in (("e8_spin8", 4, True),
                                    ("e8_spin9", bound, False))
         for parity in (0, 1)
         for t in _dominant_tuples(2 * top, 4, parity, signed)),
    )
    yield _each(
        "SU(2)-lift infinitesimal characters match (n,2,1)/2",
        (infchar_crosscheck("f4", n) for n in range(bound + 1)),
    )
    yield _each(
        "the three cyclic torus lifts share one outer orbit of "
        "infinitesimal characters",
        (infchar_crosscheck("t161", (a, b))
         for a in range(bound + 1)
         for b in range(bound + 1)
         if (a, b) != (0, 0)),
    )


def _suite_seesaw(max_entry=None):
    nmax = 16 if max_entry is None else int(max_entry)
    pairs = [
        (HalfInt(0), HalfInt(0)), (HalfInt(2), HalfInt(0)),
        (HalfInt(2), HalfInt(2)), (HalfInt(4), HalfInt(0)),
        (HalfInt(4), HalfInt(2)), (HalfInt(4), HalfInt(4)),
        (HalfInt(1), HalfInt(1)), (HalfInt(3), HalfInt(1)),
    ]
    for b, d in pairs:
        ok, compared = seesaw_truncation_check(b, d, nmax)
        yield (
            f"see-saw K-type identity holds for (b,d)=({b},{d}) up to "
            f"outer label {nmax} ({compared} K-types compared)",
            compared, ok,
        )


def _suite_aq(max_entry=None):
    def xy(case_id, lam):  # a G2 minimal type in (x, y) coordinates
        return aq_data(AqCase("G2", case_id, lam)).minimal_type_xy

    def u2(case_id, lam):  # a PU(2,1) minimal type as a U(2) weight
        return aq_data(AqCase("PU21", case_id, lam)).minimal_type_u2

    same = []
    for a in range(2, 21):
        b = max(1, a - 2)
        c = -a - b
        d = aq_data(AqCase("G2", "I", (a, b, c)))
        same.append(
            d.inf_char == (a + 2, b + 1, c - 3)
            and d.minimal_type_abc == (a + 2, b + 2, c - 4)
            and d.minimal_type_xy == (b - c + 6, a + 2)
            and xy("II", (-c, -b, -a)) == (a - b, -c + 4)
            and xy("III", (b, a, c)) == (a - c + 8, b)
        )
    for a in range(1, 21):
        lam = (a, a, -2 * a)
        same.append(
            [xy(s, lam) for s in ("Ia.1", "Ia.2", "Ia.3")]
            == [(3 * a + 6, a + 2), (3 * a + 7, a + 1), (3 * a + 8, a)]
            and xy("Ib", (2 * a, -a, -a)) == (0, 2 * a + 4)
            and [xy(s, (a, 0, -a)) for s in ("IIa.1", "IIa.2", "IIa.3")]
            == [(a, a + 4), (a + 3, a + 3), (a + 6, a + 2)]
            and xy("IIb", (0, a, -a)) == (2 * a + 8, 0)
        )
    yield _each("G2 case tables reproduce their displayed closed forms", same)

    same = []
    for a in range(2, 21):
        b = max(1, a - 2)
        c = -a - b
        d = aq_data(AqCase("PU21", "I", (a, b, c)))
        same.append(
            d.inf_char == (a + 1, b, c - 1)
            and d.minimal_type_u2 == (a + 1, c - 1)
            and u2("II", (a, c, b)) == (a + 1, b + 1)
            and u2("III", (b, a, c)) == (b - 1, c - 1)
        )
    for a in range(1, 21):
        lam = (a, a, -2 * a)
        same.append(
            [u2(s, lam) for s in ("Ia.1", "Ia.2", "Ia.3")]
            == [(a, -2 * a - 1), (a - 1, -2 * a - 1), (a + 1, -2 * a - 1)]
            and u2("Ib", (a, -2 * a, a)) == (a + 1, a + 1)
            and [u2(s, (2 * a, -a, -a)) for s in ("IIa.1", "IIa.2", "IIa.3")]
            == [(2 * a + 1, -a), (2 * a + 1, -a + 1), (2 * a + 1, -a - 1)]
            and u2("IIb", (-a, 2 * a, -a)) == (-a - 1, -a - 1)
        )
    yield _each(
        "PU(2,1) case tables reproduce their displayed closed forms", same
    )

    rng = random.Random(20240501)
    same = []
    for group in ("G2", "PU21"):
        for case_id in CASE_IDS:
            for _ in range(40):
                a = rng.randint(2, 60)
                b = rng.randint(1, a - 1)
                lam = _case_lambda(group, case_id, a, b)
                d = aq_data(AqCase(group, case_id, lam))
                tot = tuple(
                    sum(w[i] for w in d.u_cap_p_weights) for i in range(3)
                )
                same.append(
                    _sub(d.minimal_type_abc, lam) == tot
                    and xy_to_abc(*d.minimal_type_xy) == d.minimal_type_abc
                )
    yield _each(
        "minimal type minus lambda equals the u cap p weight sum and "
        "(x,y) conversion round-trips",
        same,
    )

    yield _each(
        "restriction-segment maxima and lengths match the wall tables "
        "for a <= 20",
        ([s[-1] for s in segs]
         == [(3 * a + 5, a - 1), (3 * a + 4, a), (3 * a + 3, a + 1)]
         and [len(s) for s in segs] == [a + 3, a + 2, a + 1]
         for a in range(1, 21)
         for segs in [ftau_restriction_segments(a)]),
    )

    same = []
    for a in range(2, 13):
        zero = theta_unitary("wall", a, (a + 1, a + 1)).zero
        outs = [
            theta_unitary("wall", a, t)
            for t in ((a - 1, -2 * a - 1), (a, -2 * a - 1),
                      (a + 1, -2 * a - 1))
        ]
        matches = g2_modules_with_infchar((a + 1, a, -2 * a - 1), 3 * a + 6)
        apexes = [d.minimal_type_xy for _, d in matches]
        same.append(zero and all(
            r.conditional and apexes.count(r.minimal_type_xy) == 1
            for r in outs
        ))
    yield _each(
        "wall decision outputs are apexes of unique matching modules", same
    )

    same = []
    for a in range(2, 9):
        for b in range(1, a):
            c = -a - b
            zero = theta_unitary("regular", (a, b, c), (a + 1, b + 1)).zero
            outs = [
                theta_unitary("regular", (a, b, c), (a + 1, c - 1)),
                theta_unitary("regular", (a, b, c), (b - 1, c - 1)),
            ]
            matches = g2_modules_with_infchar((a + 1, b, c - 1), 3 * a + 6)
            apexes = [d.minimal_type_xy for _, d in matches]
            same.append(zero and all(
                apexes.count(r.minimal_type_xy) == 1 for r in outs
            ))
    yield _each(
        "regular decision outputs are apexes of unique matching modules", same
    )

    same = []
    for a in range(2, 13):
        pu = aq_data(AqCase("PU21", "Ia.1", (a, a, -2 * a))).inf_char
        g2 = aq_data(
            AqCase("G2", "Ia.1", (a - 1, a - 1, -2 * a + 2))
        ).inf_char
        ds = aq_data(AqCase("G2", "Ib", (2 * a - 2, 1 - a, 1 - a)))
        same.append(
            pu == g2 and orbit_key(ds.inf_char) == orbit_key(pu)
            and ds.minimal_type_xy == (0, 2 * a + 2)
        )
    yield _each(
        "wall infinitesimal characters transfer identically across the "
        "dual pair",
        same,
    )

    cs = AqCase("G2", "I", (2, 1, -3))
    d = aq_data(cs)
    gen = d.u_cap_p_weights[0]
    inside = _add(d.minimal_type_abc, gen)
    outside = _sub(d.minimal_type_abc, gen)
    yield _each(
        "cone membership holds at the apex and apex+generator and fails "
        "at apex-generator",
        [cone_contains(cs, d.minimal_type_xy),
         cone_contains(cs, abc_to_xy(inside)),
         not cone_contains(cs, abc_to_xy(outside))],
    )


SUITES = {
    "rootdata": _suite_rootdata,
    "oracle": _suite_oracle,
    "appendix-branching": _suite_appendix,
    "f4-spin9": _suite_f4_spin9,
    "e7d6": _suite_e7d6,
    "quaternionic": _suite_quaternionic,
    "filtration": _suite_filtration,
    "surjectivity": _suite_surjectivity,
    "theta": _suite_theta,
    "infchar": _suite_infchar,
    "seesaw": _suite_seesaw,
    "aq": _suite_aq,
}

SUITE_ORDER = tuple(SUITES)


def run_suite(name: str, max_entry=None):
    """Run one suite (or 'all'); returns (report lines, all passed).

    A line that compared no cases is a FAIL.  A negative max_entry
    raises ValueError before any suite runs."""
    if max_entry is not None and int(max_entry) < 0:
        raise ValueError(f"max-entry must be >= 0, got {max_entry}")
    if name == "all":
        runs = [run_suite(sub, max_entry) for sub in SUITE_ORDER]
        lines = [line for sub_lines, _ in runs for line in sub_lines]
        ok = all(sub_ok for _, sub_ok in runs)
        lines.append(
            f"{'PASS' if ok else 'FAIL'} all: {len(lines)} properties checked"
        )
        return lines, ok
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    checks = [
        (f"{label} (no cases compared)", False) if cases == 0
        else (label, ok)
        for label, cases, ok in SUITES[name](max_entry)
    ]
    lines = [
        f"{'PASS' if ok else 'FAIL'} {name}: {label}" for label, ok in checks
    ]
    return lines, all(ok for _, ok in checks)
