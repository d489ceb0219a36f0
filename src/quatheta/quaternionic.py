"""Modules attached to quaternionic real forms.

A group G from the quaternionic family has maximal compact subgroup
K = SU_0(2) x M.  For an irreducible M-representation W with highest
weight wm and an integer s >= 2, the module A(G, W[s]) has K-type
decomposition

    A(G, W[s]) = sum over k >= 0 of (s + k - 2) (x) (S^k(V_M) (x) W),

with V_M the defining M-constituent of the isotropy representation.
sigma(G, W[s]) denotes the unique irreducible quotient; it shares the
data (G, wm, s) and its K-types form a subset of those of A.  All
K-type computations here operate on the full module A.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd
from operator import add

from .rootdata import (
    HalfInt,
    Weight,
    _Record,
    _add,
    _dot,
    _sub,
    _sys,
    _twice_json,
    dominant_representative,
    quaternionic_structure,
)
from .charoracle import (
    CharMultiset,
    Irrep,
    IsoDecomp,
    _check_dim,
    _dim_single,
    char_weights,
    dim_cap,
    strip_dominant,
    weyl_dim,
)
from .branchrules import clebsch_gordan


class QuatModule(_Record):
    """A(G, W[s]) or its irreducible quotient sigma(G, W[s]).

    wm is a tuple of per-factor highest-weight tuples for M; SU(2)
    factors use the integer label convention (dimension = label + 1).
    kind is "A" for the full module, "sigma" for the quotient.
    """

    __slots__ = ("g_label", "wm", "s", "kind")

    def __init__(self, g_label: str, wm: tuple, s: int, kind: str = "A"):
        qs = quaternionic_structure(g_label)
        if len(wm) and not isinstance(wm[0], (tuple, list)):
            wm = (tuple(wm),)  # single-factor convenience
        wm = tuple(tuple(HalfInt.of(c) for c in f) for f in wm)
        if len(wm) != len(qs.m_factors):
            raise ValueError(
                f"{g_label} needs {len(qs.m_factors)} factor weights"
            )
        object.__setattr__(self, "g_label", g_label)
        object.__setattr__(self, "wm", wm)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "kind", kind)
        self.m_irrep()  # validates dominance and lattice membership per factor
        if not isinstance(s, int) or s < 2:
            raise ValueError("need integer s >= 2")
        if kind not in ("A", "sigma"):
            raise ValueError("kind must be 'A' or 'sigma'")

    def structure(self):
        return quaternionic_structure(self.g_label)

    def m_irrep(self) -> Irrep:
        return Irrep(quaternionic_structure(self.g_label).m_factors, self.wm)

    def quotient(self) -> "QuatModule":
        return QuatModule(self.g_label, self.wm, self.s, "sigma")

    def wm_json(self) -> list:
        return [_twice_json(c.twice for c in f) for f in self.wm]

    def to_json(self) -> dict:
        return {
            "G": self.g_label,
            "wm": self.wm_json(),
            "s": self.s,
            "quotient": self.kind == "sigma",
        }

    @staticmethod
    def from_json(d: dict) -> "QuatModule":
        """The module to_json wrote; "quotient" is optional, and a
        missing G, wm or s raises ValueError naming it."""
        _check_keys(d, "module", ("G", "wm", "s"))
        kind = "sigma" if d.get("quotient") else "A"
        return QuatModule(d["G"], d["wm"], d["s"], kind)


def _check_keys(d, what: str, keys: tuple):
    """Refuse a JSON document that is not an object holding every key,
    with a ValueError naming the first key it lacks."""
    for key in keys:
        if not isinstance(d, dict) or key not in d:
            raise ValueError(f"{what} {d!r} needs the key {key!r}")


def minimal_type(m: QuatModule) -> tuple:
    """Lowest K-type: SU_0(2) label s-2 with M-type W itself."""
    return (m.s - 2, m.wm)


# ---------------------------------------------------------------------------
# symmetric powers


def _vm_irrep(qs) -> Irrep:
    return Irrep(qs.m_factors, qs.vm_hw)


def _sym_char_chain(
    base: CharMultiset, kmax: int, seed: CharMultiset | None = None
) -> list:
    """Characters of S^0 (x) W, ..., S^kmax (x) W for the module with
    character base, read off the generating function
    prod_nu (1 - t x^nu)^(-m_nu) chi_W truncated at degree kmax; W is
    the trivial module unless seed gives its character.  Stripped, it is
    the oracle that _sym_levels is checked against.

    Each factor multiplies in place: running k upwards, h_k gains
    x^nu h_(k-1), and h_(k-1) already carries this factor, which makes
    the factor 1 / (1 - t x^nu).  The series is linear in its constant
    term, so seeding h_0 with chi_W tensors every level with W.
    """
    if seed is None:
        h0 = {(0,) * len(next(iter(base.mults))): 1}
    else:
        h0 = dict(seed.mults)  # a copy: cached characters are shared
    hs = [h0] + [{} for _ in range(kmax)]
    for nu, m in base.mults.items():
        for _ in range(m):
            for k in range(1, kmax + 1):
                hk = hs[k]
                for t, c in hs[k - 1].items():
                    t = _add(t, nu)
                    hk[t] = hk.get(t, 0) + c
    return [CharMultiset(base.labels, h) for h in hs]


def sym_power(vm: Irrep, k: int) -> IsoDecomp:
    """Decomposition of the k-th symmetric power of an irreducible, by
    the chain-and-strip reference: every weight of S^k(vm) is built and
    the result stripped."""
    if k < 0:
        raise ValueError("need k >= 0")
    chain = _sym_char_chain(char_weights(vm), k)
    return strip_dominant(chain[k])


def _sym_levels(vm: Irrep, w: Irrep, kmax: int) -> list:
    """Decompositions of S^0(V) (x) W, ..., S^kmax(V) (x) W, for V the
    irreducible vm, with no level's weights built.

    Let p_j be the character of V with every weight scaled by j (an
    Adams operation).  Newton's identity k h_k = sum_(j=1..k) p_j h_(k-j)
    (Macdonald, Symmetric Functions, I.2) is linear in h_0, so it holds
    for the levels L_k = S^k(V) (x) W from L_0 = W.  Klimyk's formula
    (Humphreys, Lie Algebras, 24) multiplies an irreducible lambda by
    p_j: each weight nu of V, of multiplicity m, adds sign * m to the
    irreducible dom(lambda + j nu + rho) - rho, and nothing when
    lambda + j nu + rho is singular.  One sign_and_chamber call on the
    root data of vm's group answers both: the classical families and
    the SU(2) factors read the sign from the chamber's closed forms, a
    product multiplies its factors' signs, and G2, F4 and E count the
    positive roots pairing negatively.  Levels are held shifted by rho,
    and those answers are memoized for the call.

    V, W and each level's Cartan component (highest weight k vm + w,
    once in its level) are checked against dim_cap() first, so a ledger
    refused there costs no level product.  Every level is then checked
    as it is made: the division by k is exact with a positive quotient,
    each irreducible is within dim_cap() (the first refused is the one
    of greatest rho-pairing, as stripping would refuse it), and the
    dimensions add up to C(k+n-1, k) dim W, n = dim V.
    """
    base = char_weights(vm)  # refuses V above the cap
    d = _sys(vm.labels)
    rho2, cap = d.rho2, dim_cap()
    n, wdim = base.mass(), weyl_dim(w)
    _check_dim(wdim, cap)
    vm2, w2 = vm.twice_concat(), w.twice_concat()
    for k in range(1, kmax + 1):
        t = tuple(k * a + b for a, b in zip(vm2, w2))
        _check_dim(_dim_single(d.label, t), cap)
    memo = {}  # lambda + j nu + rho -> (sign, dominant image), or 0
    adams = [  # adams[j - 1] holds the weights of p_j
        [(tuple(j * x for x in nu), m) for nu, m in base.mults.items()]
        for j in range(1, kmax + 1)
    ]
    shifted = [{_add(w2, rho2): 1}]
    out = []
    for k in range(kmax + 1):
        if k:
            acc = {}
            for j in range(1, k + 1):
                p_j = adams[j - 1]
                for lam, c in shifted[k - j].items():
                    for nu, m in p_j:
                        v = tuple(map(add, lam, nu))
                        hit = memo.get(v)
                        if hit is None:
                            hit = memo[v] = d.sign_and_chamber(v) or 0
                        if hit:
                            top = hit[1]
                            acc[top] = acc.get(top, 0) + hit[0] * m * c
            level = {}
            for t, c in acc.items():
                if c:
                    q, r = divmod(c, k)
                    if r or q < 0:
                        raise AssertionError(
                            f"Newton's identity gave {c}/{k} at level {k}"
                        )
                    level[t] = q
            shifted.append(level)
        twice = {_sub(t, rho2): m for t, m in shifted[k].items()}
        dims = {t: _dim_single(d.label, t) for t in twice}
        over = [t for t, dim in dims.items() if dim > cap]
        if over:
            _check_dim(dims[max(over, key=lambda t: (_dot(t, rho2), t))], cap)
        size = comb(k + n - 1, k) * wdim
        if sum(m * dims[t] for t, m in twice.items()) != size:
            raise AssertionError(f"level {k} lost dimension")
        out.append(IsoDecomp(vm.labels, twice))
    return out


# ---------------------------------------------------------------------------
# K-types


class KTypeLedger(_Record):
    """Levels 0..kmax of the K-type decomposition of A(G, W[s]):
    level k pairs the SU_0(2) label s+k-2 with tau_k = S^k(V_M) (x) W.
    levels is a tuple of (su0_label, IsoDecomp)."""

    __slots__ = ("module", "levels")

    def __init__(self, module: QuatModule, levels: tuple):
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "levels", levels)

    @property
    def kmax(self) -> int:
        return len(self.levels) - 1

    def __iter__(self):
        return iter(self.levels)

    def level_dimension(self, k: int) -> int:
        su0, dec = self.levels[k]
        return (su0 + 1) * dec.dimension()

    def to_json(self) -> dict:
        return {
            "module": self.module.to_json(),
            "levels": [
                {"k": k, "su0": su0, "mtypes": dec.to_json()}
                for k, (su0, dec) in enumerate(self.levels)
            ],
        }

    @staticmethod
    def from_json(d: dict) -> "KTypeLedger":
        """The ledger to_json wrote.  A missing module or levels, levels
        that are not a nonempty list, a level without su0 or mtypes, a
        level k whose su0 is not s+k-2 or whose "k" (optional) is not k,
        or a malformed M-type entry raises ValueError naming it."""
        _check_keys(d, "ledger", ("module", "levels"))
        mod = QuatModule.from_json(d["module"])
        if not (isinstance(d["levels"], list) and d["levels"]):
            raise ValueError(f"ledger {d!r} needs a nonempty list of levels")
        labels = mod.structure().m_factors
        levels = []
        for k, lv in enumerate(d["levels"]):
            _check_keys(lv, "level", ("su0", "mtypes"))
            su0 = mod.s + k - 2
            if not all(type(x) is int and x == want
                       for x, want in ((lv["su0"], su0), (lv.get("k", k), k))):
                raise ValueError(f"level {lv!r} is not level {k}: "
                                 f"it needs k {k} and su0 {su0}")
            levels.append((su0, IsoDecomp.from_json(lv["mtypes"], labels)))
        return KTypeLedger(mod, tuple(levels))


def ktypes(m: QuatModule, kmax: int) -> KTypeLedger:
    """K-type ledger of A(G, W[s]) up to level kmax; _sym_levels makes
    the levels and does every check against dim_cap()."""
    if kmax < 0:
        raise ValueError("need kmax >= 0")
    levels = _sym_levels(_vm_irrep(m.structure()), m.m_irrep(), kmax)
    return KTypeLedger(m, tuple(
        (m.s + k - 2, dec) for k, dec in enumerate(levels)
    ))


# ---------------------------------------------------------------------------
# infinitesimal character


def _mu_ambient(m: QuatModule) -> tuple:
    """Doubled ambient coordinates of wm under the M-embedding; only
    available when every M-factor is an SU(2) spanned by a known root."""
    qs = m.structure()
    if None in qs.m_simple_coords:
        raise ValueError(
            f"no torus embedding data for M of {m.g_label}"
        )
    acc = [0] * _sys(qs.system).dim
    for root2, fac in zip(qs.m_simple_coords, m.wm):
        (c,) = fac
        # label c contributes (c/2) * root; root2 and acc are doubled
        for i, r in enumerate(root2):
            num = c.twice * r
            if num % 4:
                raise AssertionError("non half-integral embedding image")
            acc[i] += num // 4
    return tuple(acc)


def inf_char(m: QuatModule) -> Weight:
    """Infinitesimal character of A(G, W[s]) as the dominant
    representative of mu + (s/2) alpha0 + rho in the ambient system."""
    qs = m.structure()
    mu2 = _mu_ambient(m)
    a02 = qs.alpha0.twice()
    rho2 = _sys(qs.system).rho2
    tot = []
    for x, a, r in zip(mu2, a02, rho2):
        num = 2 * x + m.s * a + 2 * r
        if num % 2:
            raise AssertionError("non half-integral character")
        tot.append(num // 2)
    return dominant_representative(Weight.from_twice(tot, qs.system))


# ---------------------------------------------------------------------------
# restriction filtration


def restrict_filtration(m: QuatModule, kmax: int) -> list:
    """Filtration levels of A(Spin(4,4), W[s]) restricted to Spin(4,3).

    Entry k of the returned list holds the level-k subquotient: the
    direct sum of A(Spin(4,3), (u, v)[s+k]) over u in CG(k, alpha) and
    v in CG(beta, gamma), where wm = (alpha, beta, gamma): the SU(2)
    factor along e1-e2 survives, the last two fuse diagonally into
    Spin(3), and the level-k normal direction contributes an SU(2)
    label k.
    """
    if m.g_label != "Spin(4,4)":
        raise ValueError("filtration is for Spin(4,4) modules")
    if kmax < 0:
        raise ValueError("need kmax >= 0")
    (a,), (b,), (g,) = m.wm
    alpha, beta, gamma = int(a), int(b), int(g)
    vs = clebsch_gordan(beta, gamma)
    out = []
    for k in range(kmax + 1):
        level = [
            QuatModule("Spin(4,3)", ((u,), (v,)), m.s + k, m.kind)
            for u in clebsch_gordan(k, alpha)
            for v in vs
        ]
        out.append(sorted(
            level, key=lambda q: (q.wm[0][0].twice, q.wm[1][0].twice)
        ))
    return out


# ---------------------------------------------------------------------------
# surjectivity of the cubic-to-quadratic contraction


# the cubic x^(3-c) y^c maps into S^2 (x) S^1 with coefficient
# _CUBIC[c][q] on x^(2-q) y^q (x) x^(1-l) y^l, l = c - q (0 or 1)
_CUBIC = ((1, 0, 0), (1, 2, 0), (0, 2, 1), (0, 0, 1))


def _rank(rows) -> int:
    """Rank over Q by integer forward elimination: a row with an entry
    a under the pivot p becomes p*row - a*top, divided by its content.
    Both steps are invertible over Q, so the rank is unchanged."""
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        p = top[col]
        for r in range(rank + 1, len(mat)):
            a = mat[r][col]
            if a:
                row = [p * x - a * y for x, y in zip(mat[r], top)]
                g = gcd(*row)
                mat[r] = [x // g for x in row] if g > 1 else row
        rank += 1
        if rank == len(mat):
            break
    return rank


@lru_cache(maxsize=None)
def _block_rank(clo: int, chi: int, qlo: int, qhi: int) -> int:
    """Rank of the block of _CUBIC with rows clo..chi and columns
    qlo..qhi.  The bounds lie in 0..3 and 0..2, so the cache is bounded;
    only ten blocks occur for any n."""
    return _rank([
        [_CUBIC[c][q] for q in range(qlo, qhi + 1)]
        for c in range(clo, chi + 1)
    ])


def check_lemma_surjectivity(n: int) -> tuple:
    """Rank data of the composite (3)(x)(n) -> (2)(x)(1)(x)(n) ->
    (2)(x)(n+1): returns (rank, codomain_dim, surjective).

    The map preserves y-degree, so its rank is the sum of the ranks of
    its degree-e blocks: rows x^(3-c) y^c (x) x^(n-e+c) y^(e-c), columns
    x^(2-q) y^q (x) x^(n+1-e+q) y^(e-q), at most 4 x 3 each.  A block
    depends only on its row and column bounds."""
    if n < 0:
        raise ValueError("need n >= 0")
    rank = sum(
        _block_rank(max(0, e - n), min(3, e), max(0, e - n - 1), min(2, e))
        for e in range(n + 4)
    )
    codom = 3 * (n + 2)
    return (rank, codom, rank == codom)
