"""Root systems and exact weights in epsilon coordinates.

Weights live in an ambient coordinate space per system (Bourbaki
conventions), with every coordinate a half-integer.  Root data has one
representation, _SysData (interned by _sys): ambient dimension, simple
roots, positive roots and rho, all as doubled integer tuples.  HalfInt
and Weight exist for input and output only: a HalfInt stores the doubled
value and is parsed, compared, hashed and printed, with no arithmetic.
Nothing in this package touches floating point.

Supported system labels:

    A1 A2 A3 A5          su(n+1), ambient dimension n+1
    B1 B2 B3 B4          so(2n+1), ambient dimension n
    C1 C2 C3             sp(n), ambient dimension n
    D2 D3 D4 D6          so(2n), ambient dimension n
    G2                   ambient dimension 3 (coordinates sum to zero)
    F4 E6 E7 E8          ambient dimensions 4, 8, 8, 8
    Spin2                one-dimensional torus, no roots

G2 is realised inside the sum-zero plane of Z^3 with simple roots
(1,-1,0) and (-1,2,-1); the compact dual pair computations elsewhere in
the package rely on this realisation (rho = (2,1,-3)).

The root-data kernels behind the character oracle are integer-only, on
doubled coordinates: simple reflections divide with divmod, the weight
lattice is "every simple-coroot pairing is an integer", and a Weyl orbit
is walked down from its dominant representative.  Fraction appears only
at the API edge (HalfInt accepts and produces it).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub


# ---------------------------------------------------------------------------
# half-integers


@dataclass(frozen=True, eq=False)
class HalfInt:
    """An element of (1/2)Z stored as its doubled value."""

    twice: int

    @staticmethod
    def of(x) -> "HalfInt":
        if isinstance(x, HalfInt):
            return x
        if isinstance(x, bool):
            raise TypeError("bool is not a weight coordinate")
        if isinstance(x, int):
            return HalfInt(2 * x)
        if isinstance(x, Fraction):
            if x.denominator not in (1, 2):
                raise ValueError(f"{x} is not a half-integer")
            return HalfInt(int(x * 2))
        if isinstance(x, str):
            return HalfInt.parse(x)
        raise TypeError(f"cannot interpret {x!r} as a half-integer")

    @staticmethod
    def parse(s: str) -> "HalfInt":
        s = s.strip()
        if "/" in s:
            num, den = s.split("/")
            if den.strip() != "2":
                raise ValueError(f"bad half-integer literal {s!r}")
            return HalfInt(int(num))
        return HalfInt(2 * int(s))

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __int__(self) -> int:
        if self.twice % 2:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def _cmp_twice(self, other) -> int:
        # only the numeric types the hash agrees with: a string equal to
        # a HalfInt would have to hash like it too
        if not isinstance(other, (HalfInt, int, Fraction)):
            raise TypeError(f"cannot compare a half-integer with {other!r}")
        return HalfInt.of(other).twice

    def __eq__(self, other):
        try:
            return self.twice == self._cmp_twice(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __lt__(self, other):
        return self.twice < self._cmp_twice(other)

    def __le__(self, other):
        return self.twice <= self._cmp_twice(other)

    def __gt__(self, other):
        return self.twice > self._cmp_twice(other)

    def __ge__(self, other):
        return self.twice >= self._cmp_twice(other)

    def __hash__(self):
        # agree with int/Fraction hashing so mixed-type dict keys work
        q, r = divmod(self.twice, 2)
        return hash(self.as_fraction()) if r else hash(q)

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    __repr__ = __str__


def _twice_json(tvec) -> list:
    """JSON coordinates of a doubled vector: ints, or "n/2" strings."""
    return [t // 2 if t % 2 == 0 else f"{t}/2" for t in tvec]


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class Weight:
    """A vector of half-integers tagged with its root-system label."""

    coords: tuple
    system: str

    def __post_init__(self):
        object.__setattr__(
            self, "coords", tuple(HalfInt.of(c) for c in self.coords)
        )

    def twice(self) -> tuple:
        return tuple(c.twice for c in self.coords)

    @staticmethod
    def from_twice(tvec, system: str) -> "Weight":
        return Weight(tuple(HalfInt(t) for t in tvec), system)

    def to_json(self) -> list:
        return _twice_json(self.twice())

    @staticmethod
    def from_json(data, system: str) -> "Weight":
        return Weight(tuple(HalfInt.of(c) for c in data), system)

    def __repr__(self):
        return f"Weight({', '.join(str(c) for c in self.coords)}; {self.system})"


# ---------------------------------------------------------------------------
# root-system construction (doubled coordinates throughout)


def _e(i: int, n: int, v: int = 2) -> tuple:
    row = [0] * n
    row[i] = v
    return tuple(row)


def _add(u, v) -> tuple:
    return tuple(map(add, u, v))


def _sub(u, v) -> tuple:
    return tuple(map(sub, u, v))


def _neg(u):
    return tuple(-a for a in u)


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _type_a(n: int):
    dim = n + 1
    simple = [_sub(_e(i, dim), _e(i + 1, dim)) for i in range(n)]
    pos = [_sub(_e(i, dim), _e(j, dim)) for i in range(dim) for j in range(dim) if i < j]
    return dim, simple, pos


def _type_b(n: int):
    simple = [_sub(_e(i, n), _e(i + 1, n)) for i in range(n - 1)] + [_e(n - 1, n)]
    pos = [_e(i, n) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            pos.append(_sub(_e(i, n), _e(j, n)))
            pos.append(_add(_e(i, n), _e(j, n)))
    return n, simple, pos


def _type_c(n: int):
    simple = [_sub(_e(i, n), _e(i + 1, n)) for i in range(n - 1)] + [_e(n - 1, n, 4)]
    pos = [_e(i, n, 4) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            pos.append(_sub(_e(i, n), _e(j, n)))
            pos.append(_add(_e(i, n), _e(j, n)))
    return n, simple, pos


def _type_d(n: int):
    simple = [_sub(_e(i, n), _e(i + 1, n)) for i in range(n - 1)]
    simple.append(_add(_e(n - 2, n), _e(n - 1, n)))
    pos = []
    for i in range(n):
        for j in range(i + 1, n):
            pos.append(_sub(_e(i, n), _e(j, n)))
            pos.append(_add(_e(i, n), _e(j, n)))
    return n, simple, pos


def _type_g2():
    simple = [(2, -2, 0), (-2, 4, -2)]
    pos = [
        (2, -2, 0),
        (0, 2, -2),
        (2, 0, -2),
        (4, -2, -2),
        (-2, 4, -2),
        (2, 2, -4),
    ]
    return 3, simple, pos


def _type_f4():
    simple = [
        (0, 2, -2, 0),
        (0, 0, 2, -2),
        (0, 0, 0, 2),
        (1, -1, -1, -1),
    ]
    pos = [_e(i, 4) for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            pos.append(_sub(_e(i, 4), _e(j, 4)))
            pos.append(_add(_e(i, 4), _e(j, 4)))
    for signs in itertools.product((1, -1), repeat=3):
        pos.append((1, signs[0], signs[1], signs[2]))
    return 4, simple, pos


def _type_e6():
    # positive roots: +-e_i + e_j (1 <= i < j <= 5) and
    # (e_8 - e_7 - e_6 + sum of +-e_i)/2 with an even number of minus signs
    pos = []
    for j in range(1, 5):
        for i in range(j):
            pos.append(_sub(_e(j, 8), _e(i, 8)))
            pos.append(_add(_e(j, 8), _e(i, 8)))
    for signs in itertools.product((1, -1), repeat=5):
        if signs.count(-1) % 2 == 0:
            pos.append(tuple(signs) + (-1, -1, 1))
    simple = [
        (1, -1, -1, -1, -1, -1, -1, 1),
        (2, 2, 0, 0, 0, 0, 0, 0),
        (-2, 2, 0, 0, 0, 0, 0, 0),
        (0, -2, 2, 0, 0, 0, 0, 0),
        (0, 0, -2, 2, 0, 0, 0, 0),
        (0, 0, 0, -2, 2, 0, 0, 0),
    ]
    return 8, simple, pos


def _type_e7():
    pos = []
    for j in range(1, 6):
        for i in range(j):
            pos.append(_sub(_e(j, 8), _e(i, 8)))
            pos.append(_add(_e(j, 8), _e(i, 8)))
    pos.append((0, 0, 0, 0, 0, 0, -2, 2))
    for signs in itertools.product((1, -1), repeat=6):
        if signs.count(-1) % 2 == 1:
            pos.append(tuple(signs) + (-1, 1))
    simple = [
        (1, -1, -1, -1, -1, -1, -1, 1),
        (2, 2, 0, 0, 0, 0, 0, 0),
        (-2, 2, 0, 0, 0, 0, 0, 0),
        (0, -2, 2, 0, 0, 0, 0, 0),
        (0, 0, -2, 2, 0, 0, 0, 0),
        (0, 0, 0, -2, 2, 0, 0, 0),
        (0, 0, 0, 0, -2, 2, 0, 0),
    ]
    return 8, simple, pos


def _type_e8():
    pos = []
    for j in range(1, 8):
        for i in range(j):
            pos.append(_sub(_e(j, 8), _e(i, 8)))
            pos.append(_add(_e(j, 8), _e(i, 8)))
    for signs in itertools.product((1, -1), repeat=7):
        if signs.count(-1) % 2 == 0:
            pos.append(tuple(signs) + (1,))
    simple = [
        (1, -1, -1, -1, -1, -1, -1, 1),
        (2, 2, 0, 0, 0, 0, 0, 0),
        (-2, 2, 0, 0, 0, 0, 0, 0),
        (0, -2, 2, 0, 0, 0, 0, 0),
        (0, 0, -2, 2, 0, 0, 0, 0),
        (0, 0, 0, -2, 2, 0, 0, 0),
        (0, 0, 0, 0, -2, 2, 0, 0),
        (0, 0, 0, 0, 0, -2, 2, 0),
    ]
    return 8, simple, pos


_BUILDERS = {
    "A1": lambda: _type_a(1),
    "A2": lambda: _type_a(2),
    "A3": lambda: _type_a(3),
    "A5": lambda: _type_a(5),
    "B1": lambda: (1, [(2,)], [(2,)]),
    "B2": lambda: _type_b(2),
    "B3": lambda: _type_b(3),
    "B4": lambda: _type_b(4),
    "C1": lambda: (1, [(4,)], [(4,)]),
    "C2": lambda: _type_c(2),
    "C3": lambda: _type_c(3),
    "D2": lambda: _type_d(2),
    "D3": lambda: _type_d(3),
    "D4": lambda: _type_d(4),
    "D6": lambda: _type_d(6),
    "G2": _type_g2,
    "F4": _type_f4,
    "E6": _type_e6,
    "E7": _type_e7,
    "E8": _type_e8,
    "Spin2": lambda: (1, [], []),
}


class _SysData:
    """Interned per-label root data in doubled coordinates; every kernel
    is integer-only."""

    __slots__ = (
        "label", "dim", "rank", "simple", "pos", "rho2", "simple_norm",
    )

    def __init__(self, label):
        if label not in _BUILDERS:
            raise ValueError(f"unsupported root system label {label!r}")
        dim, simple, pos = _BUILDERS[label]()
        self.label = label
        self.dim = dim
        self.rank = len(simple)
        self.simple = tuple(simple)
        self.pos = tuple(sorted(pos))
        rho2_doubled = [0] * dim  # 2*rho, doubled
        for a in pos:
            rho2_doubled = list(_add(rho2_doubled, a))
        if any(t % 2 for t in rho2_doubled):
            raise AssertionError(f"rho of {label} not a half-integer vector")
        self.rho2 = tuple(t // 2 for t in rho2_doubled)  # doubled rho
        self.simple_norm = tuple(_dot(a, a) for a in self.simple)

    def in_chamber(self, tvec) -> bool:
        """True iff the vector lies in the closed dominant chamber."""
        return all(_dot(tvec, a) >= 0 for a in self.simple)

    def is_integral(self, tvec) -> bool:
        """True iff every simple-coroot pairing 2<w,a>/<a,a> is an integer,
        i.e. the vector lies in the weight lattice."""
        return all(
            2 * _dot(tvec, a) % n == 0
            for a, n in zip(self.simple, self.simple_norm)
        )

    def reflect_simple(self, tvec, i: int):
        a = self.simple[i]
        p, r = divmod(2 * _dot(tvec, a), self.simple_norm[i])
        if r:
            raise ValueError("vector not in the weight lattice")
        return tuple(x - p * y for x, y in zip(tvec, a))

    def dominant_twice(self, t):
        """Dominant Weyl representative of a doubled coordinate vector."""
        if self.rank == 0:
            return tuple(t)
        fam = self.label[0]
        if fam == "A":
            return tuple(sorted(t, reverse=True))
        if fam in ("B", "C"):
            return tuple(sorted(map(abs, t), reverse=True))
        if fam == "D":
            mags = sorted(map(abs, t), reverse=True)
            if sum(1 for x in t if x < 0) % 2:
                mags[-1] = -mags[-1]
            return tuple(mags)
        t = tuple(t)
        # each step s_i (taken where <t, alpha_i> < 0) removes alpha_i from
        # the positive roots pairing negatively with t and permutes the
        # rest, so the walk ends within l(w0) = |positive roots| steps
        guard = len(self.pos)
        while True:
            for i, a in enumerate(self.simple):
                if _dot(t, a) < 0:
                    t = self.reflect_simple(t, i)
                    break
            else:
                return t
            guard -= 1
            if guard < 0:
                raise AssertionError("reflection descent failed to terminate")

    def orbit(self, dom, max_size: int) -> list:
        """Weyl orbit of a dominant doubled vector (in the weight lattice),
        refused once it grows past max_size.

        Walks down from dom, applying s_i only where <u, alpha_i> > 0:
        each such step lengthens the shortest Weyl element reaching u by
        one, so the layers are disjoint and each is built once.
        """
        out = [dom]
        layer = {dom}
        while layer:
            nxt = set()
            for u in layer:
                for i, a in enumerate(self.simple):
                    if _dot(u, a) > 0:
                        nxt.add(self.reflect_simple(u, i))
            out.extend(nxt)
            if len(out) > max_size:
                raise ValueError("orbit too large")
            layer = nxt
        return out


@lru_cache(maxsize=None)
def _sys(label: str) -> _SysData:
    return _SysData(label)


def highest_root(label: str) -> Weight:
    """The highest root: the dominant root of maximal length (the short
    dominant root is a second dominant root in B/C/F4/G2)."""
    d = _sys(label)
    dom = [a for a in d.pos if d.in_chamber(a)]
    if not dom:
        raise ValueError(f"{label} has no roots")
    top_norm = max(_dot(a, a) for a in dom)
    top = [a for a in dom if _dot(a, a) == top_norm]
    if len(top) != 1:
        raise ValueError(f"{label} is reducible: no unique highest root")
    return Weight.from_twice(top[0], label)


def highest_root_coefficients(label: str) -> tuple:
    """Expansion of the highest root in the simple roots, as integers in
    the order of _sys(label).simple."""
    d = _sys(label)
    coeffs = [0] * d.rank
    t = highest_root(label).twice()
    # a positive root beta that is not simple pairs positively with some
    # simple root alpha, and beta - alpha is again a positive root
    while t not in d.simple:
        i = next(i for i, a in enumerate(d.simple) if _dot(t, a) > 0)
        coeffs[i] += 1
        t = _sub(t, d.simple[i])
    coeffs[d.simple.index(t)] += 1
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# dominant representatives


def dominant_representative(w: Weight) -> Weight:
    """The dominant Weyl-chamber representative of the orbit of w.

    Classical families use the signed-permutation normal form; the
    exceptional systems walk simple reflections (which requires w to be
    in the weight lattice, i.e. have integral simple pairings).
    """
    d = _sys(w.system)
    return Weight.from_twice(d.dominant_twice(w.twice()), w.system)


def weyl_orbit(w: Weight, max_size: int = 100000) -> set:
    """Full Weyl orbit of w (exceptional systems need lattice weights),
    walked down from its dominant representative."""
    d = _sys(w.system)
    return {
        Weight.from_twice(t, w.system)
        for t in d.orbit(d.dominant_twice(w.twice()), max_size)
    }


# ---------------------------------------------------------------------------
# quaternionic structure table


@dataclass(frozen=True)
class QuaternionicStructure:
    """Data of the quaternionic real form attached to a group label.

    m_factors are the root-system labels of the factors of M, in the
    order used for highest weights elsewhere; m_simple_coords gives, for
    the factors that are single SU(2)'s, the simple root of the ambient
    system spanning that factor (doubled coordinates).  vm_hw is the
    highest weight tuple of V_M factor by factor.
    """

    g_label: str
    system: str
    m_label: str
    m_factors: tuple
    vm_hw: tuple
    vm_dim: int
    alpha0: Weight
    k_label: str
    m_simple_coords: tuple


_QUAT_TABLE = {}


def _register_quat(
    g_label, system, m_label, m_factors, vm_hw, vm_dim, k_label,
    m_simple_coords,
):
    theta = highest_root(system)
    alpha0 = Weight.from_twice(_neg(theta.twice()), system)
    _QUAT_TABLE[g_label] = QuaternionicStructure(
        g_label=g_label,
        system=system,
        m_label=m_label,
        m_factors=m_factors,
        vm_hw=vm_hw,
        vm_dim=vm_dim,
        alpha0=alpha0,
        k_label=k_label,
        m_simple_coords=m_simple_coords,
    )


def _init_quat_table():
    # Spin(4,3): M = SU(2) x Spin(3); both factors carry integer SU(2)
    # weights (m), (n); V_M = (1) (x) (2).  The split G2 sits inside via
    # SU_s(2) diagonal in SU_0(2) x Spin(3) and SU_l(2) equal to the
    # SU(2) factor; under K2 the tangent space is (3) (x) (1).
    _register_quat(
        "Spin(4,3)", "B3", "SU(2)xSpin(3)", ("C1", "C1"),
        ((1,), (2,)), 6, "SU_0(2) x SU(2) x Spin(3)",
        ((2, -2, 0), (0, 0, 2)),
    )
    # Spin(4,4): M = SU(2)^3.  Factor order (alpha, beta, gamma) pinned to
    # the simple roots e1-e2, e3+e4, e3-e4 so that the Spin(8) lift table
    # reproduces inf chars equal to lambda + rho.
    _register_quat(
        "Spin(4,4)", "D4", "SU(2)^3", ("C1", "C1", "C1"),
        ((1,), (1,), (1,)), 8, "SU_0(2) x SU(2)^3",
        ((2, -2, 0, 0), (0, 0, 2, 2), (0, 0, 2, -2)),
    )
    _register_quat(
        "E6_4", "E6", "SU(6)", ("A5",),
        ((1, 1, 1, 0, 0, 0),), 20, "SU_0(2) x SU(6)",
        (None,),
    )
    _register_quat(
        "E7_4", "E7", "Spin(12)", ("D6",),
        ((HalfInt(1),) * 6,), 32, "SU_0(2) x Spin(12)",
        (None,),
    )
    _register_quat(
        "E8_4", "E8", "E7", ("E7",),
        ((0, 0, 0, 0, 0, 1, HalfInt(-1), HalfInt(1)),), 56, "SU_0(2) x E7",
        (None,),
    )
    _register_quat(
        "F4_4", "F4", "Sp(3)", ("C3",),
        ((1, 1, 1),), 14, "SU_0(2) x Sp(3)",
        (None,),
    )
    # split G2: M is the SU(2) on the short simple root; V_M = (3)
    _register_quat(
        "G2_2", "G2", "SU(2)", ("C1",),
        ((3,),), 4, "SU_0(2) x SU(2)",
        ((2, -2, 0),),
    )


_init_quat_table()


def quaternionic_structure(g_label: str) -> QuaternionicStructure:
    try:
        return _QUAT_TABLE[g_label]
    except KeyError:
        raise ValueError(f"no quaternionic structure for {g_label!r}") from None
