"""Cohomologically induced modules for split G2 and PU(2,1).

Both groups share a rank-2 torus realized inside the sum-zero integer
triples.  For each choice of theta-stable parabolic (one per Weyl
chamber for regular lambda, several on the walls) the module A_q(lambda)
has infinitesimal character lambda + rho(case) and minimal K-type
mu = lambda + 2 rho(u cap p).  This module tabulates those data, decides
K-type cone membership, and encodes the decision tables for the unitary
theta correspondence between the two groups, including the restriction
segments of the minimal types of the lifted modules.

Coordinates: K-types are plotted as (x, y) = (b - c, a) for a triple
(a, b, c); PU(2,1) K-types are alternatively written as standard U(2)
highest weights (a, c).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import gcd

from .rootdata import _Record, _add, _as_int, _dot, _neg, _sub
from .branchrules import clebsch_gordan
from .thetamaps import theta_e6_u2

CASE_IDS = (
    "I", "II", "III",
    "Ia.1", "Ia.2", "Ia.3", "Ib",
    "IIa.1", "IIa.2", "IIa.3", "IIb",
)

# noncompact root pairs are listed by a representative; a regular
# lambda picks the sign of each that lies in u cap p
NONCOMPACT = {
    "G2": ((1, -1, 0), (-1, 2, -1), (1, 0, -1), (1, 1, -2)),
    "PU21": ((1, -1, 0), (0, 1, -1)),
}

# The case table: one row per (group, case id), the only place the cases
# are written down.  lam is how lambda is built: for a regular case the
# signed permutation taking a first-chamber point (a, b, c), with
# a > b > 0 for G2 and a > b > c for PU21, to lambda (each is its own
# inverse, so it also takes lambda back); for a wall case the vector v
# with lambda = a * v for an integer a > 0.  rho is the chamber rho that
# gives the infinitesimal character lambda + rho.  weights are the wall
# u cap p weights; a regular case (weights None) derives its own.
_Case = namedtuple("_Case", "lam rho weights")
_FIRST_CHAMBER = {
    "G2": lambda a, b, c: a > b > 0,
    "PU21": lambda a, b, c: a > b > c,
}
_G2_SET_I = ((1, -1, 0), (-1, 2, -1), (1, 0, -1), (1, 1, -2))
_G2_SET_II = ((1, -1, 0), (1, -2, 1), (1, 0, -1), (1, 1, -2))
_G2_SET_III = ((-1, 1, 0), (-1, 2, -1), (1, 0, -1), (1, 1, -2))
_CASES = {
    ("G2", "I"): _Case(lambda a, b, c: (a, b, c), (2, 1, -3), None),
    ("G2", "II"): _Case(lambda a, b, c: (-c, -b, -a), (3, -1, -2), None),
    ("G2", "III"): _Case(lambda a, b, c: (b, a, c), (1, 2, -3), None),
    ("G2", "Ia.1"): _Case((1, 1, -2), (2, 1, -3), _G2_SET_I),
    ("G2", "Ia.2"): _Case((1, 1, -2), (2, 1, -3),
                          ((-1, 2, -1), (1, 0, -1), (1, 1, -2))),
    ("G2", "Ia.3"): _Case((1, 1, -2), (2, 1, -3), _G2_SET_III),
    ("G2", "Ib"): _Case((2, -1, -1), (3, -1, -2), _G2_SET_II),
    ("G2", "IIa.1"): _Case((1, 0, -1), (2, 1, -3), _G2_SET_II),
    ("G2", "IIa.2"): _Case((1, 0, -1), (2, 1, -3),
                           ((1, -1, 0), (1, 0, -1), (1, 1, -2))),
    ("G2", "IIa.3"): _Case((1, 0, -1), (2, 1, -3), _G2_SET_I),
    ("G2", "IIb"): _Case((0, 1, -1), (1, 2, -3), _G2_SET_III),
    ("PU21", "I"): _Case(lambda a, b, c: (a, b, c), (1, 0, -1), None),
    ("PU21", "II"): _Case(lambda a, b, c: (a, c, b), (1, -1, 0), None),
    ("PU21", "III"): _Case(lambda a, b, c: (b, a, c), (0, 1, -1), None),
    ("PU21", "Ia.1"): _Case((1, 1, -2), (1, 0, -1), ((0, 1, -1),)),
    ("PU21", "Ia.2"): _Case((1, 1, -2), (1, 0, -1),
                            ((-1, 1, 0), (0, 1, -1))),
    ("PU21", "Ia.3"): _Case((1, 1, -2), (1, 0, -1),
                            ((1, -1, 0), (0, 1, -1))),
    ("PU21", "Ib"): _Case((1, -2, 1), (1, -1, 0), ((1, -1, 0), (0, -1, 1))),
    ("PU21", "IIa.1"): _Case((2, -1, -1), (1, 0, -1), ((1, -1, 0),)),
    ("PU21", "IIa.2"): _Case((2, -1, -1), (1, 0, -1),
                             ((1, -1, 0), (0, -1, 1))),
    ("PU21", "IIa.3"): _Case((2, -1, -1), (1, 0, -1),
                             ((1, -1, 0), (0, 1, -1))),
    ("PU21", "IIb"): _Case((-1, 2, -1), (0, 1, -1), ((-1, 1, 0), (0, 1, -1))),
}


def _case_lambda(group: str, case_id: str, a: int, b: int = 0) -> tuple:
    """The lambda of a case at its parameters: first-chamber point
    (a, b, -a-b) for a regular case, wall parameter a otherwise."""
    row = _CASES[group, case_id]
    if row.weights is None:
        return row.lam(a, b, -a - b)
    return tuple(a * x for x in row.lam)


def _wall_parameter(v, lam: tuple) -> int:
    """The a with lam == a * v for a wall case's v, or 0 when lam is off
    that line."""
    a = _dot(lam, v) // _dot(v, v)
    return a if lam == (a * v[0], a * v[1], a * v[2]) else 0


def _siblings(group: str, lam) -> list:
    """The (case id, lambda) pairs drawn together with lam: the four
    modules of the Ia or IIa wall family when lam is a positive multiple
    of its v, else the three chambers with lam read as the first-chamber
    point.  A sum-zero lam that is neither is refused."""
    lam = tuple(lam)
    for ids in (CASE_IDS[3:7], CASE_IDS[7:]):
        a = _wall_parameter(_CASES[group, ids[0]].lam, lam)
        if a > 0:
            return [(cid, _case_lambda(group, cid, a)) for cid in ids]
    if sum(lam) == 0 and not _FIRST_CHAMBER[group](*lam):
        raise ValueError(
            f"lambda {lam} is neither a first-chamber point nor an "
            f"Ia/IIa wall point of {group}"
        )
    return [(cid, _CASES[group, cid].lam(*lam)) for cid in CASE_IDS[:3]]


def abc_to_xy(t):
    return (t[1] - t[2], t[0])


def xy_to_abc(x, y):
    """Inverse of abc_to_xy on the sum-zero lattice: (y, (x-y)/2,
    -(x+y)/2); x and y must have equal parity."""
    if (x - y) % 2:
        raise ValueError("x and y must have equal parity")
    return (y, (x - y) // 2, -(x + y) // 2)


def _check_case(group: str, case_id: str, lam) -> None:
    if group not in ("G2", "PU21"):
        raise ValueError(f"unknown group {group!r}")
    if case_id not in CASE_IDS:
        raise ValueError(f"unknown case {case_id!r}")
    if len(lam) != 3:
        raise ValueError("lambda must be an integer triple")
    if sum(lam) != 0:
        raise ValueError("lambda must sum to zero")
    row = _CASES[group, case_id]
    if row.weights is None:
        ok = _FIRST_CHAMBER[group](*row.lam(*lam))
    else:
        ok = _wall_parameter(row.lam, lam) > 0
    if not ok:
        raise ValueError(
            f"lambda {tuple(lam)} violates the constraints of "
            f"{group} case {case_id}"
        )


class AqCase(_Record):
    """A group, a parabolic case id, and an admissible lambda."""

    __slots__ = ("group", "case_id", "lam")

    def __init__(self, group: str, case_id: str, lam: tuple):
        lam = tuple(map(_as_int, lam))
        _check_case(group, case_id, lam)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "case_id", case_id)
        object.__setattr__(self, "lam", lam)


class AqData(_Record):
    """Infinitesimal character and minimal K-type of one A_q(lambda).

    minimal_type_xy is the (b-c, a) image of the minimal type;
    minimal_type_u2 is the standard U(2) pair (a, c), populated for
    PU21 only.  to_json writes one key per field, skipping a None one.
    """

    __slots__ = (
        "inf_char", "minimal_type_abc", "minimal_type_xy", "u_cap_p_weights",
        "minimal_type_u2",
    )

    def __init__(
        self, inf_char: tuple, minimal_type_abc: tuple,
        minimal_type_xy: tuple, u_cap_p_weights: tuple,
        minimal_type_u2: tuple | None = None,
    ):
        object.__setattr__(self, "inf_char", inf_char)
        object.__setattr__(self, "minimal_type_abc", minimal_type_abc)
        object.__setattr__(self, "minimal_type_xy", minimal_type_xy)
        object.__setattr__(self, "u_cap_p_weights", u_cap_p_weights)
        object.__setattr__(self, "minimal_type_u2", minimal_type_u2)

    def to_json(self) -> dict:
        return {k: _lists(v) for k, v in zip(self._fields, self._values(self))
                if v is not None}

    @staticmethod
    def from_json(data: dict) -> "AqData":
        return AqData(**{k: _tuples(data[k]) for k in AqData._fields
                         if k in data})


# nested tuples as JSON lists, and back
def _lists(v):
    return [*map(_lists, v)] if isinstance(v, tuple) else v


def _tuples(v):
    return tuple(map(_tuples, v)) if isinstance(v, list) else v


def _u_cap_p(case: AqCase):
    out = []
    for w in NONCOMPACT[case.group]:
        p = _dot(case.lam, w)
        assert p != 0, "regular case lambda on a noncompact wall"
        out.append(w if p > 0 else _neg(w))
    return tuple(out)


def aq_data(case: AqCase) -> AqData:
    """Infinitesimal character lambda + rho(case) and minimal K-type
    lambda + 2 rho(u cap p), in all coordinate systems."""
    row = _CASES[case.group, case.case_id]
    weights = row.weights or _u_cap_p(case)
    mu = case.lam
    for w in weights:
        mu = _add(mu, w)
    inf = _add(case.lam, row.rho)
    u2 = (mu[0], mu[2]) if case.group == "PU21" else None
    return AqData(inf, mu, abc_to_xy(mu), weights, u2)


def _positive_functional(group: str, weights):
    for cid in CASE_IDS[:3]:
        phi = _CASES[group, cid].rho
        if all(_dot(phi, w) > 0 for w in weights):
            return phi
    raise AssertionError("no chamber functional dominates the weight set")


def cone_contains(case: AqCase, query_xy) -> bool:
    """Whether the (x, y) K-type lies in mu + Z>=0-span of the case's
    u cap p weights; decided by exhaustive search bounded by a linear
    functional positive on all generators."""
    data = aq_data(case)
    try:
        q = xy_to_abc(*query_xy)
    except ValueError:
        return False
    delta = _sub(q, data.minimal_type_abc)
    gens = data.u_cap_p_weights
    phi = _positive_functional(case.group, gens)

    def search(i, rem):
        if all(x == 0 for x in rem):
            return True
        if i == len(gens):
            return False
        w = gens[i]
        bound = _dot(phi, rem) // _dot(phi, w)
        cur = rem
        for n in range(bound + 1):
            if search(i + 1, cur):
                return True
            cur = _sub(cur, w)
            if _dot(phi, cur) < 0:
                break
        return False

    if _dot(phi, delta) < 0:
        return False
    return search(0, delta)


def cone_extreme_rays(case: AqCase) -> tuple:
    """Extreme rays of the (x, y) image of the case's K-type cone, as a
    pair of primitive integer vectors (clockwise-most first).  The image
    cone is salient in every case; the two rays coincide when a single
    generator direction remains."""
    data = aq_data(case)
    vecs = set()
    for w in data.u_cap_p_weights:
        x, y = abc_to_xy(w)
        g = gcd(x, y)
        vecs.add((x // g, y // g) if g else (x, y))
    vecs = sorted(vecs)

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    for u in vecs:
        for v in vecs:
            if cross(u, v) == 0 and u[0] * v[0] + u[1] * v[1] < 0:
                raise ValueError("image cone is not salient")
    lo = [u for u in vecs if all(cross(u, v) >= 0 for v in vecs)]
    hi = [u for u in vecs if all(cross(u, v) <= 0 for v in vecs)]
    if not lo or not hi:
        raise ValueError("image cone is not salient")
    return (lo[0], hi[0])


def orbit_key(t):
    """Canonical form under coordinate permutations and global sign
    (the full-rank Weyl symmetry of the sum-zero plane)."""
    return max(tuple(sorted(t, reverse=True)),
               tuple(sorted((-x for x in t), reverse=True)))


def g2_modules_with_infchar(target, amax: int):
    """All G2 cases with parameters up to amax whose infinitesimal
    character lies in the permutation-and-sign orbit of target, ordered
    by the parameter a, the regular cases (by b, then I, II, III) before
    the wall cases.

    The character of a case is lambda + rho(case), so each of the at
    most 12 images u of target gives each case one candidate,
    lambda = u - rho(case), kept when the case admits it."""
    images = {*itertools.permutations(target),
              *itertools.permutations(_neg(target))}
    found = []
    for u in images:
        for order, case_id in enumerate(CASE_IDS):
            row = _CASES["G2", case_id]
            try:
                case = AqCase("G2", case_id, _sub(u, row.rho))
            except ValueError:
                continue
            if row.weights is None:
                a, b, _ = row.lam(*case.lam)
            else:
                a, b = _wall_parameter(row.lam, case.lam), 0
            if a <= amax:
                wall = row.weights is not None
                found.append(((a, wall, b, order), case, aq_data(case)))
    found.sort(key=lambda f: f[0])
    return [(case, data) for _, case, data in found]


# ---------------------------------------------------------------------------
# restriction segments of lifted minimal types


def ftau_restriction_segments(a: int):
    """For the three wall-parameter U(2) types (a-1, -2a-1),
    (a, -2a-1), (a+1, -2a-1): lift each to its rank-7 module, take the
    minimal K-type, and restrict to the rank-2 subgroup generated by
    the outer SU(2) and one module factor.  Each restriction is a
    multiplicity-free Clebsch-Gordan segment, returned as an ascending
    list of (x, y) types."""
    if a <= 0:
        raise ValueError("need a > 0")
    segments = []
    for t in (a - 1, a, a + 1):
        lift = theta_e6_u2(t, -2 * a - 1)
        ((mod, mult),) = lift.lifts
        assert mult == 1 and mod.kind == "sigma"
        m, n = (int(f[0]) for f in mod.wm)
        xs = clebsch_gordan(mod.s - 2, n)
        segments.append([(x, m) for x in xs])
    return segments


# ---------------------------------------------------------------------------
# unitary theta decision tables


class ThetaUnitaryResult(_Record):
    """Outcome for one minimal-type bullet: a definite zero, or a
    minimal (x, y) type that applies only if the lift is nonzero
    (conditional=True records that the nonvanishing itself is left
    open)."""

    __slots__ = ("zero", "minimal_type_xy", "conditional")

    def __init__(
        self, zero: bool, minimal_type_xy: tuple | None = None,
        conditional: bool = False,
    ):
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "minimal_type_xy", minimal_type_xy)
        object.__setattr__(self, "conditional", conditional)

    def to_json(self) -> dict:
        if self.zero:
            return {"zero": True}
        out = {"minimal_type_xy": list(self.minimal_type_xy)}
        if self.conditional:
            out["if_nonzero"] = True
        return out


def theta_unitary(regime: str, params, tau) -> ThetaUnitaryResult:
    """Decision table of the unitary correspondence.

    regime 'wall': params is a > 0; the source has infinitesimal
    character (a+1, a, -2a-1) and tau is one of the four minimal U(2)
    types with that character.  regime 'regular': params = (a, b, c)
    with a > b > c, b > 0, and tau one of the three minimal types for
    character (a+1, b, c-1).
    """
    tau = tuple(map(_as_int, tau))
    if regime == "wall":
        a = _as_int(params)
        if a <= 0:
            raise ValueError("need a > 0")
        if tau == (a + 1, a + 1):
            return ThetaUnitaryResult(zero=True)
        table = {
            (a - 1, -2 * a - 1): (3 * a + 5, a - 1),
            (a, -2 * a - 1): (3 * a + 4, a),
            (a + 1, -2 * a - 1): (3 * a + 3, a + 1),
        }
        if tau in table:
            return ThetaUnitaryResult(False, table[tau], conditional=True)
        raise ValueError(f"{tau} is not a minimal type for wall parameter {a}")
    if regime == "regular":
        a, b, c = map(_as_int, params)
        if not (a > b > c) or b <= 0 or a + b + c != 0:
            raise ValueError("need a > b > c with b > 0 summing to zero")
        if tau == (a + 1, b + 1):
            return ThetaUnitaryResult(zero=True)
        table = {
            (a + 1, c - 1): (3 - c + b, a + 1),
            (b - 1, c - 1): (5 + a - c, b - 1),
        }
        if tau in table:
            return ThetaUnitaryResult(False, table[tau], conditional=True)
        raise ValueError(f"{tau} is not a minimal type for {(a, b, c)}")
    raise ValueError(f"unknown regime {regime!r}")
