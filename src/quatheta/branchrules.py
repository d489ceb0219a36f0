"""Closed-form branching rules.

Two-step branching for Sp(n), Spin(2n+1), Spin(2n) down to the
next-smaller group of the same family times Sp(1) resp. Spin(2);
Gelfand-Zetlin interlacing chains for Spin(m) down arbitrary steps; the
restriction of E7 Cartan powers of the miniscule representation to
SU(2) x Spin(12); and the closed form for multiplicities in the
restriction of F4 irreps to Spin(9).

Conventions: SU(2) representations are labeled by their integer highest
weight m (dimension m+1); Spin(2) weights are half-integers.  Branching
keys are epsilon-coordinate tuples of HalfInt.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .rootdata import HalfInt, Weight


def _coords(seq) -> tuple:
    return tuple(map(HalfInt.of, seq))


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


def cg_mult(ms, target: int) -> int:
    """Multiplicity of (target) in the iterated product of the (m_i)."""
    return cg_product(ms).get(target, 0)


# ---------------------------------------------------------------------------
# Spin(2) weight modules


@dataclass(frozen=True)
class Spin2Module:
    """Finite multiset of Spin(2) weights (half-integers)."""

    entries: tuple  # sorted tuple of (doubled weight, positive mult)

    @staticmethod
    def from_dict(d: dict) -> "Spin2Module":
        ent = tuple(sorted(
            (HalfInt.of(w).twice, m) for w, m in d.items() if m
        ))
        if any(m < 0 for _, m in ent):
            raise ValueError("negative multiplicity")
        return Spin2Module(ent)

    @staticmethod
    def single(w) -> "Spin2Module":
        return Spin2Module.from_dict({HalfInt.of(w): 1})

    @staticmethod
    def A(a) -> "Spin2Module":
        """Weights a, a-1, ..., -a (integer steps)."""
        ta = HalfInt.of(a).twice
        if ta < 0:
            raise ValueError("A(a) needs a >= 0")
        return Spin2Module(tuple((t, 1) for t in range(-ta, ta + 1, 2)))

    @staticmethod
    def B(b) -> "Spin2Module":
        """Weights b, b-2, ..., -b (steps of two)."""
        tb = HalfInt.of(b).twice
        if tb < 0:
            raise ValueError("B(b) needs b >= 0")
        return Spin2Module(tuple((t, 1) for t in range(-tb, tb + 1, 4)))

    def shift(self, c) -> "Spin2Module":
        tc = HalfInt.of(c).twice
        return Spin2Module(tuple((t + tc, m) for t, m in self.entries))

    def negate(self) -> "Spin2Module":
        return Spin2Module(tuple(sorted((-t, m) for t, m in self.entries)))

    def __mul__(self, other: "Spin2Module") -> "Spin2Module":
        out = {}
        for t1, m1 in self.entries:
            for t2, m2 in other.entries:
                out[t1 + t2] = out.get(t1 + t2, 0) + m1 * m2
        return Spin2Module(tuple(sorted(out.items())))


# ---------------------------------------------------------------------------
# interlacing helpers


@dataclass(frozen=True)
class InterlacingCert:
    """Witness that mu two-step interlaces lam, with the merged chain."""

    lam: tuple
    mu: tuple
    z: tuple  # descending merge of lam and |mu| entries

    @staticmethod
    def build(lam, mu, use_abs_mu: bool) -> "InterlacingCert | None":
        lam = _coords(lam)
        mu = _coords(mu)
        vals = [abs(y) for y in mu] if use_abs_mu else list(mu)
        n = len(lam)
        if len(mu) != n - 1:
            return None
        if any(vals[i] < vals[i + 1] for i in range(n - 2)):
            return None
        # two-step condition x_i >= y_i >= x_{i+2} (x beyond the end is 0)
        for i in range(n - 1):
            upper = lam[i]
            lower = lam[i + 2] if i + 2 < n else HalfInt(0)
            if not (upper >= vals[i] >= lower):
                return None
        z = sorted(list(lam) + vals, key=lambda v: -v.twice)
        return InterlacingCert(lam, tuple(mu), tuple(z))


def _half_range(lo: HalfInt, hi: HalfInt):
    """Values lo, lo+1, ..., hi (integer steps on half-integers)."""
    t = lo.twice
    while t <= hi.twice:
        yield HalfInt(t)
        t += 2


def _parity_range(lo: HalfInt, hi: HalfInt, parity: int):
    """Values in [lo, hi] with the given doubled parity, integer steps.
    The bounds need not lie in the congruence class themselves."""
    t = lo.twice + (parity - lo.twice) % 2
    while t <= hi.twice:
        yield HalfInt(t)
        t += 2


def _dominant_tuples(bound: HalfInt, length: int, parity: int, signed_last: bool):
    """Descending tuples with entries of the given doubled parity in
    [0, bound] (last entry in [-bound, bound] when signed_last)."""

    def rec(prefix, hi):
        if len(prefix) == length:
            yield tuple(prefix)
            return
        last = len(prefix) == length - 1
        t = hi.twice
        while t >= parity:
            prefix.append(HalfInt(t))
            yield from rec(prefix, HalfInt(t))
            prefix.pop()
            if last and signed_last and t > 0:
                prefix.append(HalfInt(-t))
                yield from rec(prefix, HalfInt(0))
                prefix.pop()
            t -= 2

    hi0 = HalfInt(bound.twice - (bound.twice - parity) % 2)
    yield from rec([], hi0)


# ---------------------------------------------------------------------------
# two-step branching rules


def branch_sp(lam) -> dict:
    """Sp(n) restricted to Sp(n-1) x Sp(1).

    Returns {mu: {su2 weight: mult}} over the mu that two-step interlace
    lam; the value is the iterated Clebsch-Gordan product of the
    difference chain of the merged sequence.
    """
    lam = _coords(lam)
    n = len(lam)
    if n < 2:
        raise ValueError("need rank >= 2")
    if any(x.twice % 2 for x in lam) or any(
        lam[i] < lam[i + 1] for i in range(n - 1)
    ) or lam[-1] < 0:
        raise ValueError("lam must be a dominant integer Sp(n) weight")
    out = {}
    for mu in itertools.product(
        *[list(_half_range(lam[i + 2] if i + 2 < n else HalfInt(0), lam[i]))
          for i in range(n - 1)]
    ):
        cert = InterlacingCert.build(lam, mu, use_abs_mu=False)
        if cert is None:
            continue
        z = cert.z
        factors = [int(z[2 * i] - z[2 * i + 1]) for i in range(n - 1)]
        factors.append(int(z[2 * n - 2]))
        out[cert.mu] = cg_product(factors)
    return out


def branch_spin_odd(lam) -> dict:
    """Spin(2n+1) restricted to Spin(2n-1) x Spin(2).

    Returns {mu: Spin2Module}; the module is
    B(z1-z2) x B(z3-z4) x ... x A(z_{2n-1}) for the merged chain z.
    """
    lam = _coords(lam)
    n = len(lam)
    if n < 2:
        raise ValueError("need rank >= 2")
    if any(lam[i] < lam[i + 1] for i in range(n - 1)) or lam[-1] < 0:
        raise ValueError("lam must be dominant")
    if len({x.twice % 2 for x in lam}) > 1:
        raise ValueError("Spin weight entries must be congruent mod 1")
    parity = lam[0].twice % 2
    out = {}
    for mu in itertools.product(
        *[
            list(_parity_range(
                lam[i + 2] if i + 2 < n else HalfInt(0), lam[i], parity
            ))
            for i in range(n - 1)
        ]
    ):
        cert = InterlacingCert.build(lam, mu, use_abs_mu=False)
        if cert is None:
            continue
        z = cert.z
        mod = Spin2Module.A(z[2 * n - 2])
        for i in range(n - 1):
            mod = mod * Spin2Module.B(z[2 * i] - z[2 * i + 1])
        out[cert.mu] = mod
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
    lam = _coords(lam)
    n = len(lam)
    if n < 3:
        raise ValueError("need rank >= 3")
    if any(lam[i] < lam[i + 1] for i in range(n - 2)) or lam[-2] < abs(lam[-1]):
        raise ValueError("lam must be dominant")
    if len({x.twice % 2 for x in lam}) > 1:
        raise ValueError("Spin weight entries must be congruent mod 1")
    if lam[-1] < 0:
        flipped = lam[:-1] + (-lam[-1],)
        return {
            mu: mod.negate() for mu, mod in branch_spin_even(flipped).items()
        }
    parity = lam[0].twice % 2
    out = {}
    ranges = []
    for i in range(n - 2):
        ranges.append(list(_parity_range(
            lam[i + 2] if i + 2 < n else HalfInt(0), lam[i], parity
        )))
    # last coordinate of mu enumerated nonnegative; signs by symmetry
    ranges.append(list(_parity_range(HalfInt(0), lam[n - 2], parity)))
    for mu in itertools.product(*ranges):
        mod = _even_hom(lam, mu)
        if mod is None:
            continue
        out[tuple(mu)] = mod
        if mu[-1] > 0:
            out[mu[:-1] + (-mu[-1],)] = mod.negate()
    return out


def _even_hom(lam, mu):
    n = len(lam)
    lo_sum, hi_sum, diffs = 0, 0, []
    for i in range(n - 1):
        hi = lam[i] if i == 0 else min(lam[i], mu[i - 1])
        if i < n - 2:
            lo = max(lam[i + 1], mu[i])
        else:
            lo = max(abs(lam[n - 1]), abs(mu[n - 2]))
        if lo > hi:
            return None
        lo_sum += lo.twice
        hi_sum += hi.twice
        diffs.append(hi - lo)
    center = HalfInt(
        sum(x.twice for x in lam) + sum(y.twice for y in mu) - lo_sum - hi_sum
    )
    mod = Spin2Module.single(0)
    for d in diffs:
        mod = mod * Spin2Module.B(d)
    return mod.shift(center)


# ---------------------------------------------------------------------------
# Gelfand-Zetlin chains


def _interlace_down(m: int, lam):
    """One-step branching Spin(m) -> Spin(m-1): yields the next weights."""
    lam = _coords(lam)
    if m % 2 == 0:
        # so(2r) -> so(2r-1): drop to r-1 coords, last bound |x_r|
        r = len(lam)
        ranges = [
            _half_range(lam[i + 1] if i + 1 < r - 1 else abs(lam[r - 1]), lam[i])
            for i in range(r - 1)
        ]
        parity = lam[0].twice % 2
        for nu in itertools.product(*[list(g) for g in ranges]):
            if all(v.twice % 2 == parity for v in nu):
                yield tuple(nu)
    else:
        # so(2r+1) -> so(2r): same length, signed last coordinate
        r = len(lam)
        parity = lam[0].twice % 2
        heads = [
            [v for v in _half_range(lam[i + 1], lam[i]) if v.twice % 2 == parity]
            for i in range(r - 1)
        ]
        tails = [
            v for v in _half_range(-lam[r - 1], lam[r - 1])
            if v.twice % 2 == parity
        ]
        for nu in itertools.product(*(heads + [tails])):
            yield tuple(nu)


def gz_chain(m: int, lam, target_m: int) -> dict:
    """Multiplicities of Spin(target_m) irreps in a Spin(m) irrep,
    counted as Gelfand-Zetlin interlacing chains."""
    lam = _coords(lam)
    if len(lam) != m // 2:
        raise ValueError(f"Spin({m}) weights have {m // 2} coordinates")
    if not (3 <= target_m <= m):
        raise ValueError("target out of range")
    level = {tuple(lam): 1}
    for k in range(m, target_m, -1):
        nxt = {}
        for nu, c in level.items():
            for down in _interlace_down(k, nu):
                nxt[down] = nxt.get(down, 0) + c
        level = nxt
    return level


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
    for tx in range(2 * k, k - 1, -1):  # doubled x in [k, 2k] covers x >= y
        ty = 2 * k - tx
        if tx < ty:
            continue
        x, y = HalfInt(tx), HalfInt(ty)
        tz = ty % 2
        while tz <= ty:
            z = HalfInt(tz)
            out.append((
                int(x - y),
                Weight((x, y, z, z, z, z), "D6"),
            ))
            tz += 2
    return sorted(out, key=lambda p: (p[0], p[1].twice()))


# ---------------------------------------------------------------------------
# F4 to Spin(9)


def f4_to_spin9(a: int, b: int, w) -> int:
    """Multiplicity of the Spin(9) irrep (w) in the F4 irrep with
    highest weight (a-b) w4 + b w3, for integers a >= b >= 0."""
    if not (a >= b >= 0):
        raise ValueError("need a >= b >= 0")
    w = _coords(w)
    if len(w) != 4:
        raise ValueError("Spin(9) weights have 4 coordinates")
    if any(w[i] < w[i + 1] for i in range(3)) or w[3] < 0:
        raise ValueError("w must be dominant")
    if len({x.twice % 2 for x in w}) > 1:
        raise ValueError("w entries must be congruent mod 1")
    s12 = w[0] + w[1]
    if s12 > a + b:
        return 0
    f1 = int(HalfInt.of(a + b) - s12)
    f2 = int(w[0] - w[1])
    f3 = int(w[3] * 2)
    return cg_mult([f1, f2, f3], a - b)


def f4_to_spin9_table(a: int, b: int) -> dict:
    """All Spin(9) constituents {w: mult} of the F4 irrep for (a, b),
    enumerating dominant w with w1 <= a+b in both congruence classes."""
    if not (a >= b >= 0):
        raise ValueError("need a >= b >= 0")
    out = {}
    bound = HalfInt.of(a + b)
    for parity in (0, 1):
        for w in _dominant_tuples(bound, 4, parity, signed_last=False):
            m = f4_to_spin9(a, b, w)
            if m:
                out[w] = m
    return out
