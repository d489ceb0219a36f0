"""Theta-correspondence parameter maps for dual pairs in quaternionic
exceptional groups.

Each map sends a representation parameter of the compact-side group to
the quaternionic-side module it lifts to: torus characters and U(2)
types inside the rank-2 ambient group map to Spin(4,4) and Spin(4,3)
modules, Sp(2) x Sp(1)-type parameters map to Spin(4,3) modules, Spin(8)
and Spin(9) weights map to Spin(4,4) and Spin(4,3) modules inside the
rank-8 ambient group, and SU(2) labels map to Spin(4,3) modules in the
rank-4 ambient case.  Every table carries an infinitesimal-character
cross-check, and the rank-8 pair also satisfies a see-saw identity that
is verified here as a truncated K-type multiset equality.
"""

from __future__ import annotations

import itertools

from .rootdata import HalfInt, Weight, _Record, _add, _as_int, _half, _sys
from .charoracle import Irrep
from .quaternionic import QuatModule, inf_char, ktypes


class ThetaLift(_Record):
    """Outcome of a theta map: modules with multiplicities, or zero.

    sign tags the tau-split variants; upper_bound marks lifts the
    source theorem states as inclusions rather than equalities.
    stated_inf_char carries an infinitesimal character when the theorem
    displays one explicitly.  lifts is a tuple of (QuatModule, positive
    multiplicity).

    from_json reads each JSON shape as a list of {kind: module,
    "mult": n} entries (mult 1 when absent): the lifts, the document
    itself when it holds one module, none when it is zero.  A document
    that is not an object, lifts that are not a list, or an entry
    without an "A" or "sigma" module or whose mult is not a positive
    int raises ValueError naming it.
    """

    __slots__ = ("lifts", "sign", "upper_bound", "stated_inf_char")

    def __init__(
        self, lifts: tuple, sign: str | None = None,
        upper_bound: bool = False, stated_inf_char: Weight | None = None,
    ):
        if any(mult <= 0 for _, mult in lifts):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "lifts", lifts)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "upper_bound", upper_bound)
        object.__setattr__(self, "stated_inf_char", stated_inf_char)

    @property
    def zero(self) -> bool:
        return not self.lifts

    def modules(self) -> tuple:
        return tuple(m for m, _ in self.lifts)

    def to_json(self) -> dict:
        if self.zero:
            out = {"zero": True}
        elif (
            len(self.lifts) == 1
            and self.lifts[0][1] == 1
            and self.lifts[0][0].kind == "sigma"
        ):
            out = {"sigma": _module_json(self.lifts[0][0])}
        elif len(self.lifts) == 1 and self.lifts[0][0].kind == "A":
            mod, mult = self.lifts[0]
            out = {"A": _module_json(mod), "mult": mult}
        elif (
            len(self.lifts) == 2
            and self.sign is None
            and all(m.kind == "sigma" and mult == 1 for m, mult in self.lifts)
        ):
            # unsplit tau-pair; entries carry their own sign tags
            out = {"lifts": [
                {"sigma": _module_json(mod), "sign": sgn}
                for (mod, _), sgn in zip(self.lifts, ("+", "-"))
            ]}
        else:
            out = {"lifts": [
                {mod.kind: _module_json(mod), "mult": mult}
                for mod, mult in self.lifts
            ]}
        if self.sign is not None:
            out["sign"] = self.sign
        if self.upper_bound:
            out["upper_bound"] = True
        if self.stated_inf_char is not None:
            out["inf_char"] = self.stated_inf_char.to_json()
        return out

    @staticmethod
    def from_json(data: dict) -> "ThetaLift":
        if not isinstance(data, dict):
            raise ValueError(f"lift {data!r} must be an object")
        entries = data.get("lifts", [] if data.get("zero") else [data])
        if not isinstance(entries, list):
            raise ValueError(f"lift {data!r}: lifts must be a list")
        inf = data.get("inf_char")
        return ThetaLift(
            tuple(map(_lift_entry, entries)), data.get("sign"),
            bool(data.get("upper_bound", False)),
            None if inf is None else Weight.from_json(inf, "B3"),
        )


def _lift_entry(e) -> tuple:
    """(module, mult) of one entry of ThetaLift JSON."""
    mult = e.get("mult", 1) if isinstance(e, dict) else None
    if type(mult) is not int or mult < 1 or not e.keys() & {"A", "sigma"}:
        raise ValueError(f"lift entry {e!r} needs an A or sigma module "
                         "and a positive integer mult")
    if "sigma" in e:
        return QuatModule.from_json(e["sigma"]).quotient(), mult
    return QuatModule.from_json(e["A"]), mult


def _module_json(m: QuatModule) -> dict:
    return {"G": m.g_label, "wm": m.wm_json(), "s": m.s}


def _sigma(g: str, wm, s: int) -> QuatModule:
    return QuatModule(g, tuple((x,) for x in wm), s, "sigma")


def _full(g: str, wm, s: int) -> QuatModule:
    return QuatModule(g, tuple((x,) for x in wm), s, "A")


def _check_sign(sign):
    if sign not in (None, "+", "-"):
        raise ValueError("sign must be '+' or '-'")
    return sign


def _split(plus, minus, sign, upper_bound=False) -> ThetaLift:
    """A tau-split pair of sigma lifts: the member the sign selects, or
    both when sign is None.  minus is None when that member vanishes; the
    vanishing lift carries only its sign."""
    if sign is None:
        pair = tuple((m, 1) for m in (plus, minus) if m is not None)
        return ThetaLift(pair, upper_bound=upper_bound)
    member = plus if sign == "+" else minus
    if member is None:
        return ThetaLift((), sign=sign)
    return ThetaLift(((member, 1),), sign=sign, upper_bound=upper_bound)


# ---------------------------------------------------------------------------
# rank-2 ambient group: torus and U(2) duals


def theta_e6_torus(a: int, b: int, c: int, sign: str | None = None) -> ThetaLift:
    """Lift of the torus character (a, b, c), a+b+c = 0, to Spin(4,4).

    A character whose entries are not all zero is first normalized so
    that exactly one entry is strictly negative (negating all three
    entries leaves the lift unchanged); the position of the negative
    entry selects one of three cyclically related parameter patterns.
    The zero character splits into a +/- pair.
    """
    _check_sign(sign)
    t = (_as_int(a), _as_int(b), _as_int(c))
    if sum(t) != 0:
        raise ValueError("torus character must sum to zero")
    if t == (0, 0, 0):
        return _split(_sigma("Spin(4,4)", (0, 0, 0), 4),
                      _sigma("Spin(4,4)", (0, 0, 0), 6), sign)
    if sign is not None:
        raise ValueError("sign tag only applies to the zero character")
    if sum(1 for x in t if x < 0) >= 2:
        t = tuple(-x for x in t)
    neg = [i for i, x in enumerate(t) if x < 0]
    assert len(neg) == 1
    i = neg[0]
    # rotate so the pattern reads (p, q, -p-q); wm is the matching
    # rotation of (q, p, 0)
    p, q = t[(i + 1) % 3], t[(i + 2) % 3]
    base = (q, p, 0)
    r = (i - 2) % 3
    wm = base[-r:] + base[:-r] if r else base
    return ThetaLift(((_sigma("Spin(4,4)", wm, 4 + p + q), 1),))


def theta_e6_u2(a: int, b: int, sign: str | None = None) -> ThetaLift:
    """Lift of the U(2) type (a, b), a >= b, to Spin(4,3).

    Negative-total types are normalized through (a, b) -> (-b, -a).
    On the boundary a + b = 0 the lift splits into a +/- pair of
    inclusions (recorded with upper_bound); the minus lift of (0, 0)
    vanishes.
    """
    _check_sign(sign)
    a, b = _as_int(a), _as_int(b)
    if a < b:
        raise ValueError("need a >= b")
    if a + b < 0:
        a, b = -b, -a
    if a + b != 0:
        if sign is not None:
            raise ValueError("sign tag only applies when a + b = 0")
        if b > 0:
            return ThetaLift(((_sigma("Spin(4,3)", (0, a - b), 4 + a + b), 1),))
        return ThetaLift(((_sigma("Spin(4,3)", (-b, a + b), 4 + a), 1),))
    # boundary: tau-split pair, inclusions only
    minus = _sigma("Spin(4,3)", (a - 1, 0), 5 + a) if a else None
    return _split(_sigma("Spin(4,3)", (a, 0), 4 + a), minus, sign,
                  upper_bound=True)


# ---------------------------------------------------------------------------
# rank-3 ambient group: Sp(2) x Sp(1) dual


def theta_e7(a: int, b: int, c: int) -> ThetaLift:
    """Lift of the Sp(2) x Sp(1) type ((a, b); c) to Spin(4,3).

    Three regimes: c <= a-b, a-b < c <= a+b (which requires a+b-c
    even), and c > a+b (zero).
    """
    a, b, c = _as_int(a), _as_int(b), _as_int(c)
    if not (a >= b >= 0):
        raise ValueError("need a >= b >= 0")
    if c < 0:
        raise ValueError("need c >= 0")
    if c <= a - b:
        return ThetaLift(((_sigma("Spin(4,3)", (b, c), 6 + a), 1),))
    if c <= a + b:
        if (a + b - c) % 2:
            raise ValueError("a + b - c must be even in the middle regime")
        wm = ((a + b - c) // 2, a - b)
        return ThetaLift(((_sigma("Spin(4,3)", wm, 6 + (a + b + c) // 2), 1),))
    return ThetaLift(())


# ---------------------------------------------------------------------------
# rank-8 ambient group: Spin(8) and Spin(9) duals


def theta_e8_spin8(a, b, c, d) -> ThetaLift:
    """Lift of the Spin(8) type (a, b, c, d) to Spin(4,4):
    (b-c+1) copies of A(Spin(4,4), (a-b, c+d, c-d)[10+a+b])."""
    a, b, c, d = Irrep("D4", (a, b, c, d)).hw.twice()
    wm = ((a - b) // 2, (c + d) // 2, (c - d) // 2)
    mult = (b - c) // 2 + 1
    s = 10 + (a + b) // 2
    return ThetaLift(((_full("Spin(4,4)", wm, s), mult),))


def theta_e8_spin9(a, b, c, d) -> ThetaLift:
    """Lift of the Spin(9) type (a, b, c, d) to Spin(4,3):
    A(Spin(4,3), (a-b, 2d)[10+a+b]), independently of c, with
    infinitesimal character (a+7/2, b+5/2, d+1/2)."""
    a, b, c, d = Irrep("B4", (a, b, c, d)).hw.twice()
    wm = ((a - b) // 2, d)
    s = 10 + (a + b) // 2
    stated = Weight.from_twice((a + 7, b + 5, d + 1), "B3")
    return ThetaLift(
        ((_full("Spin(4,3)", wm, s), 1),), stated_inf_char=stated
    )


# ---------------------------------------------------------------------------
# rank-4 ambient group: SU(2) dual


def theta_f4(n: int, sign: str | None = None) -> ThetaLift:
    """Lift of the SU(2) label n to Spin(4,3): even labels 2k (k > 0)
    give sigma((k,0)[k+3]), odd labels 2k+1 give sigma((k,1)[k+4]), and
    n = 0 splits into sigma((0,0)[3]) and sigma((0,0)[5])."""
    _check_sign(sign)
    n = _as_int(n)
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return _split(_sigma("Spin(4,3)", (0, 0), 3),
                      _sigma("Spin(4,3)", (0, 0), 5), sign)
    if sign is not None:
        raise ValueError("sign tag only applies to n = 0")
    k, r = divmod(n, 2)
    if r == 0:
        return ThetaLift(((_sigma("Spin(4,3)", (k, 0), k + 3), 1),))
    return ThetaLift(((_sigma("Spin(4,3)", (k, 1), k + 4), 1),))


# ---------------------------------------------------------------------------
# infinitesimal-character cross-checks


def infchar_crosscheck(which: str, params) -> bool:
    """Check a theorem's displayed infinitesimal-character formula
    against the general mu + s alpha0/2 + rho evaluation of the lifted
    module; Weyl-canonicalized equality.

    which: 'tmain', 'e7', 'e8_spin9', 'e8_spin8', 'f4', or 't161'.
    't161' asks whether the three cyclic torus lifts have characters in
    one orbit of W(D4) extended by the outer automorphisms of D4: that
    group is W(F4), which has D4's weight lattice.
    """
    if which == "t161":
        a, b = map(_as_int, params)
        if a < 0 or b < 0 or (a, b) == (0, 0):
            raise ValueError("need a, b >= 0, not both zero")
        s = 4 + a + b
        f4 = _sys("F4")
        return len({
            f4.dominant_twice(inf_char(_sigma("Spin(4,4)", wm, s)).twice())
            for wm in ((b, a, 0), (0, b, a), (a, 0, b))
        }) == 1
    # (lift, its ambient system, the displayed character doubled)
    if which == "tmain":
        a, b = map(_as_int, params)
        lift = theta_e6_u2(a, b)
        system, shown = "B3", (a + b + 1, a + b - 1, a - b + 1)
    elif which == "e7":
        a, b, c = map(_as_int, params)
        lift = theta_e7(a, b, c)
        system, shown = "B3", (a + b + 3, a - b + 1, c + 1)
    elif which == "e8_spin9":
        lift = theta_e8_spin9(*params)
        system, shown = "B3", lift.stated_inf_char.twice()
    elif which == "e8_spin8":
        a, b, c, d = map(HalfInt.of, params)
        lift = theta_e8_spin8(a, b, c, d)
        lam2 = tuple(x.twice for x in (a, b, c, d))
        system, shown = "D4", _add(lam2, _sys("D4").rho2)
    elif which == "f4":
        n = _as_int(params[0] if isinstance(params, (tuple, list)) else params)
        lift = theta_f4(n)
        system, shown = "B3", (n, 2, 1)
    else:
        raise ValueError(f"unknown cross-check {which!r}")
    want = _sys(system).dominant_twice(shown)
    # a vanishing lift (e7) has no module to disagree
    return all(inf_char(m).twice() == want for m in lift.modules())


# ---------------------------------------------------------------------------
# see-saw truncation


def seesaw_truncation_check(b, d, nmax: int) -> tuple:
    """Truncated see-saw identity for the rank-8 pair.

    LHS: K-types of the Spin(9)-parameter lifts summed over a >= b and
    over the middle entries c in [d, b]; RHS: (b-d+1) times the
    K-types of A(Spin(4,3), (a-b, 2d)[10+a+b]) summed over a >= b.
    Both sides are truncated to SU_0(2) labels <= nmax and compared as
    exact multisets level by level.  Returns (sides equal, number of
    distinct K-types compared); a truncation too low to reach any
    K-type compares none.

    theta_e8_spin9 ignores c, so both sides sum ledgers of the same
    modules, b-d+1 times each: the check restates the lift formula and
    holds whatever ktypes returns (doubling every multiplicity keeps it
    passing).  It is not an independent check of the ledgers.
    """
    tb, td = HalfInt.of(b).twice, HalfInt.of(d).twice
    if not tb >= td >= 0:
        raise ValueError("need b >= d >= 0")
    if (tb - td) % 2:
        raise ValueError("b and d must be congruent mod 1")
    copies = (tb - td) // 2 + 1
    ledgers: dict = {}  # each module's ledger up to label nmax, built once

    def add(side: dict, mod: QuatModule, mult: int):
        if mod not in ledgers:
            ledgers[mod] = ktypes(mod, nmax - (mod.s - 2))
        for su0, dec in ledgers[mod]:
            for key, m in dec.twice_mults.items():
                side[su0, key] = side.get((su0, key), 0) + m * mult

    lhs: dict = {}  # {(SU_0(2) label, M-type): mult}
    rhs: dict = {}
    for ta in itertools.count(tb, 2):
        s = 10 + (ta + tb) // 2
        if s - 2 > nmax:
            break
        for tc in range(td, tb + 1, 2):
            lift = theta_e8_spin9(*map(_half, (ta, tb, tc, td)))
            for mod, mult in lift.lifts:
                add(lhs, mod, mult)
        add(rhs, QuatModule("Spin(4,3)", (((ta - tb) // 2,), (td,)), s),
            copies)
    return lhs == rhs, len(lhs.keys() | rhs.keys())
