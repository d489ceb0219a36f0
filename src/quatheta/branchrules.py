"""Closed-form branching rules.

Two-step branching for Sp(n), Spin(2n+1), Spin(2n) down to the
next-smaller group of the same family times Sp(1) resp. Spin(2); the
restriction of E7 Cartan powers of the miniscule representation to
SU(2) x Spin(12); and the closed form for multiplicities in the
restriction of F4 irreps to Spin(9).

Conventions: SU(2) representations are labeled by their integer highest
weight m (dimension m+1); Spin(2) weights are half-integers.  Branching
keys are epsilon-coordinate tuples of HalfInt.  The rules compute on
doubled integer coordinates: input is parsed once by _twice, and HalfInt
is built only for the keys they return (for F4 -> Spin(9), only for the
constituents that occur).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .charoracle import Irrep
from .rootdata import HalfInt, Weight


def _twice(seq) -> tuple:
    """Doubled coordinates of a weight given as ints, Fractions, strings
    or HalfInts."""
    return tuple(HalfInt.of(c).twice for c in seq)


def _keys(tvec) -> tuple:
    return tuple(map(HalfInt, tvec))


def _steps(lo: int, hi: int, parity: int) -> range:
    """Doubled values in [lo, hi] of the given parity, integer steps.
    The bounds need not have that parity themselves."""
    return range(lo + (lo - parity) % 2, hi + 1, 2)


# ---------------------------------------------------------------------------
# SU(2) Clebsch-Gordan


def clebsch_gordan(m: int, n: int) -> list:
    """Constituents of (m) tensor (n): |m-n|, |m-n|+2, ..., m+n."""
    if m < 0 or n < 0:
        raise ValueError("SU(2) weights must be nonnegative")
    return list(range(abs(m - n), m + n + 1, 2))


def cg_product(ms) -> dict:
    """Decomposition of (m1) tensor ... tensor (mk) as {weight: mult}."""
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


# ---------------------------------------------------------------------------
# Spin(2) weight modules


@dataclass(frozen=True)
class Spin2Module:
    """Finite multiset of Spin(2) weights (half-integers)."""

    entries: tuple  # sorted tuple of (doubled weight, positive mult)

    @staticmethod
    def A(ta: int) -> "Spin2Module":
        """Weights a, a-1, ..., -a (integer steps); ta is 2a."""
        if ta < 0:
            raise ValueError("A(a) needs a >= 0")
        return Spin2Module(tuple((t, 1) for t in range(-ta, ta + 1, 2)))

    @staticmethod
    def B(tb: int) -> "Spin2Module":
        """Weights b, b-2, ..., -b (steps of two); tb is 2b."""
        if tb < 0:
            raise ValueError("B(b) needs b >= 0")
        return Spin2Module(tuple((t, 1) for t in range(-tb, tb + 1, 4)))

    def negate(self) -> "Spin2Module":
        return Spin2Module(tuple((-t, m) for t, m in reversed(self.entries)))

    def __mul__(self, other: "Spin2Module") -> "Spin2Module":
        out = {}
        for t1, m1 in self.entries:
            for t2, m2 in other.entries:
                out[t1 + t2] = out.get(t1 + t2, 0) + m1 * m2
        return Spin2Module(tuple(sorted(out.items())))


# ---------------------------------------------------------------------------
# interlacing helpers


def _two_step(lam: tuple, parity: int):
    """The mu that two-step interlace lam (x_i >= y_i >= x_{i+2}, x past
    the end is 0, y descending), each with the descending merge z of lam
    and mu; doubled coordinates of the given parity."""
    n = len(lam)
    ranges = [
        _steps(lam[i + 2] if i + 2 < n else 0, lam[i], parity)
        for i in range(n - 1)
    ]
    for mu in itertools.product(*ranges):
        if all(mu[i] >= mu[i + 1] for i in range(n - 2)):
            yield mu, sorted(lam + mu, reverse=True)


def _dominant_tuples(tbound: int, length: int, parity: int, signed_last: bool):
    """Descending doubled tuples with entries of the given parity in
    [0, tbound] (last entry in [-tbound, tbound] when signed_last)."""

    def rec(prefix, hi):
        if len(prefix) == length:
            yield prefix
            return
        last = len(prefix) == length - 1
        for t in range(hi, parity - 1, -2):
            yield from rec(prefix + (t,), t)
            if last and signed_last and t > 0:
                yield prefix + (-t,)

    yield from rec((), tbound - (tbound - parity) % 2)


# ---------------------------------------------------------------------------
# two-step branching rules


def branch_sp(lam) -> dict:
    """Sp(n) restricted to Sp(n-1) x Sp(1).

    Returns {mu: {su2 weight: mult}} over the mu that two-step interlace
    lam; the value is the iterated Clebsch-Gordan product of the
    difference chain of the merged sequence.
    """
    lam = _twice(lam)
    n = len(lam)
    if n < 2:
        raise ValueError("need rank >= 2")
    if any(t % 2 for t in lam) or any(
        lam[i] < lam[i + 1] for i in range(n - 1)
    ) or lam[-1] < 0:
        raise ValueError("lam must be a dominant integer Sp(n) weight")
    out = {}
    for mu, z in _two_step(lam, 0):
        factors = [(z[2 * i] - z[2 * i + 1]) // 2 for i in range(n - 1)]
        factors.append(z[2 * n - 2] // 2)
        out[_keys(mu)] = cg_product(factors)
    return out


def _spin_parity(lam: tuple) -> int:
    if len({t % 2 for t in lam}) > 1:
        raise ValueError("Spin weight entries must be congruent mod 1")
    return lam[0] % 2


def branch_spin_odd(lam) -> dict:
    """Spin(2n+1) restricted to Spin(2n-1) x Spin(2).

    Returns {mu: Spin2Module}; the module is
    B(z1-z2) x B(z3-z4) x ... x A(z_{2n-1}) for the merged chain z.
    """
    lam = _twice(lam)
    n = len(lam)
    if n < 2:
        raise ValueError("need rank >= 2")
    if any(lam[i] < lam[i + 1] for i in range(n - 1)) or lam[-1] < 0:
        raise ValueError("lam must be dominant")
    out = {}
    for mu, z in _two_step(lam, _spin_parity(lam)):
        mod = Spin2Module.A(z[2 * n - 2])
        for i in range(n - 1):
            mod = mod * Spin2Module.B(z[2 * i] - z[2 * i + 1])
        out[_keys(mu)] = mod
    return out


def branch_spin_even(lam) -> dict:
    """Spin(2n) restricted to Spin(2n-2) x Spin(2).

    Keys mu keep their true (possibly negative) last coordinate.  For mu
    with nonnegative last coordinate, the Spin(2) module is computed
    from the Gelfand-Zetlin chain through Spin(2n-1): with intervals
    [L_i, U_i] = [max(x_{i+1}, y_i), min(x_i, y_{i-1})] (indices past the
    ends dropped; the last lower bound is max(|x_n|, |y_{n-1}|)), it is
    the product of the B(U_i - L_i) shifted to be centered at
    sum(lam) + sum(mu) - sum(L_i + U_i).  Negative last coordinates are
    reached by symmetry: flipping the sign of mu's last coordinate
    negates every Spin(2) weight, and likewise for x_n < 0 the flip of
    lam is branched and all Spin(2) weights are negated.  Both flips are
    conjugations by a disconnected orthogonal-group element normalizing
    the subgroup, so the two rules are forced by each other.
    """
    lam = _twice(lam)
    n = len(lam)
    if n < 3:
        raise ValueError("need rank >= 3")
    if any(lam[i] < lam[i + 1] for i in range(n - 2)) or lam[-2] < abs(lam[-1]):
        raise ValueError("lam must be dominant")
    parity = _spin_parity(lam)
    flip = lam[-1] < 0
    if flip:
        lam = lam[:-1] + (-lam[-1],)
    ranges = [_steps(lam[i + 2], lam[i], parity) for i in range(n - 2)]
    # last coordinate of mu enumerated nonnegative; signs by symmetry
    ranges.append(_steps(0, lam[n - 2], parity))
    out = {}
    for mu in itertools.product(*ranges):
        mod = _even_hom(lam, mu)
        if mod is None:
            continue
        out[_keys(mu)] = mod
        if mu[-1] > 0:
            out[_keys(mu[:-1] + (-mu[-1],))] = mod.negate()
    if flip:
        return {mu: mod.negate() for mu, mod in out.items()}
    return out


def _even_hom(lam, mu):
    """The Spin(2) module of mu, or None when mu does not occur.  The
    product of the B(d), d = U_i - L_i, is a convolution of boxes: B(d)
    has d/2 + 1 weights, four doubled units apart, so the product is one
    list of counts on that lattice."""
    n = len(lam)
    lo_sum, hi_sum, counts = 0, 0, [1]
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
        width, size = (hi - lo) // 2 + 1, len(counts)
        if width > 1:
            acc = [0, *itertools.accumulate(counts)]
            counts = [
                acc[min(j, size)] - acc[max(j - width, 0)]
                for j in range(1, size + width)
            ]
    # the product spans -sum(d) .. sum(d); shifted by sum(lam) + sum(mu)
    # - sum(L_i + U_i), its lowest weight is sum(lam) + sum(mu) - 2 sum(U_i)
    low = sum(lam) + sum(mu) - 2 * hi_sum
    return Spin2Module(tuple(
        (low + 4 * j, c) for j, c in enumerate(counts)
    ))


# ---------------------------------------------------------------------------
# E7 restriction


def restrict_e7_to_su2_spin12(k) -> list:
    """Restriction of the k-th Cartan power of the miniscule E7
    representation to SU(2) x Spin(12): pairs (x-y, (x,y,z,z,z,z)) over
    x >= y >= z >= 0 with x+y = k, all entries congruent mod 1."""
    k = int(k)
    if k < 0:
        raise ValueError("need k >= 0")
    out = []
    for tx in range(2 * k, k - 1, -1):  # doubled x in [k, 2k] is x >= y
        ty = 2 * k - tx
        for tz in range(ty % 2, ty + 1, 2):
            out.append((
                (tx - ty) // 2,
                Weight.from_twice((tx, ty, tz, tz, tz, tz), "D6"),
            ))
    return sorted(out, key=lambda p: (p[0], p[1].twice()))


# ---------------------------------------------------------------------------
# F4 to Spin(9)


def _check_ab(a: int, b: int) -> None:
    if not (a >= b >= 0):
        raise ValueError("need a >= b >= 0")


def _cg3(p: int, q: int, r: int, t: int) -> int:
    """Multiplicity of (t) in (p) x (q) x (r): the number of (k) in
    (p) x (q) with (t) in (k) x (r), i.e. of k = p + q mod 2 in
    [max(|p-q|, |r-t|), min(p+q, r+t)], when p + q + r + t is even."""
    if (p + q + r + t) % 2:
        return 0
    return max(0, (min(p + q, r + t) - max(abs(p - q), abs(r - t))) // 2 + 1)


def _f4_mult(a: int, b: int, w: tuple) -> int:
    """f4_to_spin9 on a dominant Spin(9) weight in doubled coordinates:
    the multiplicity of (a-b) in (a+b-w1-w2) x (w1-w2) x (2 w4), and 0
    past w1 + w2 > a + b.  It does not read w3."""
    s12 = w[0] + w[1]
    if s12 > 2 * (a + b):
        return 0
    return _cg3(a + b - s12 // 2, (w[0] - w[1]) // 2, w[3], a - b)


def f4_to_spin9(a: int, b: int, w) -> int:
    """Multiplicity of the Spin(9) irrep (w) in the F4 irrep with
    highest weight (a-b) w4 + b w3, for integers a >= b >= 0."""
    _check_ab(a, b)
    return _f4_mult(a, b, Irrep("B4", tuple(w)).hw.twice())


def f4_to_spin9_table(a: int, b: int) -> dict:
    """All Spin(9) constituents {w: mult} of the F4 irrep for (a, b),
    over dominant w with w1 + w2 <= a + b in both congruence classes,
    in descending lexicographic order of w within each class."""
    _check_ab(a, b)
    top, out = 2 * (a + b), {}
    for parity in (0, 1):
        for t1 in range(top - parity, parity - 1, -2):
            for t2 in range(min(t1, top - t1), parity - 1, -2):
                # _f4_mult, which does not read w3, once per w4
                p, q = a + b - (t1 + t2) // 2, (t1 - t2) // 2
                col = [
                    (t4, m) for t4 in range(t2, parity - 1, -2)
                    if (m := _cg3(p, q, t4, a - b))
                ]
                for t3 in range(t2, parity - 1, -2):
                    for t4, m in col:
                        if t4 <= t3:
                            out[_keys((t1, t2, t3, t4))] = m
    return out
