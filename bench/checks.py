"""Reference computations and output checks, written apart from quatheta.

Everything here works on doubled coordinates (a weight coordinate x is
stored as the integer 2x).  The Weyl dimension formula, the root systems,
the SU(2)^r ledger reference and the cone-membership search are the
benchmark's own; the only program code a check uses is the closed-form
branching table that an oracle restriction is compared against, passed
in by the caller.

Each ``check_<kind>(args, out, ...)`` returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import comb, gcd

# ---------------------------------------------------------------------------
# root systems (roots stored doubled, so half-integral roots stay integral)


def _e(i, n, v=2):
    row = [0] * n
    row[i] = v
    return tuple(row)


def _pm_pairs(n):
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            out.append(tuple(a - b for a, b in zip(_e(i, n), _e(j, n))))
            out.append(tuple(a + b for a, b in zip(_e(i, n), _e(j, n))))
    return out


def _e7_positive():
    """E7 as the E8 roots orthogonal to e7 + e8, with positivity chosen so
    that the direction (0,0,0,0,0,1,-1/2,1/2) is dominant."""
    roots = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (2, -2):
                for sj in (2, -2):
                    r = [0] * 8
                    r[i], r[j] = si, sj
                    roots.append(tuple(r))
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(signs)
    roots = [r for r in roots if r[6] + r[7] == 0]
    omega = (0, 0, 0, 0, 0, 2, -1, 1)
    generic = tuple(2 ** i for i in range(8))
    pos = [
        r for r in roots
        if (sum(a * b for a, b in zip(r, omega)),
            sum(a * b for a, b in zip(r, generic))) > (0, 0)
    ]
    assert len(pos) == 63
    return pos


_POS_CACHE = {}


def positive_roots(label):
    """Positive roots (doubled) and the number of coordinates of a system
    label as quatheta names them: A<n>, B<n>, C<n>, D<n>, F4, E7, Spin2."""
    if label in _POS_CACHE:
        return _POS_CACHE[label]
    if label == "Spin2":
        res = (1, [])
    elif label == "F4":
        pos = [_e(i, 4) for i in range(4)] + _pm_pairs(4)
        pos += [(1,) + s for s in itertools.product((1, -1), repeat=3)]
        res = (4, pos)
    elif label == "E7":
        res = (8, _e7_positive())
    else:
        kind, n = label[0], int(label[1:])
        if kind == "A":
            dim = n + 1
            pos = [
                tuple(a - b for a, b in zip(_e(i, dim), _e(j, dim)))
                for i in range(dim) for j in range(i + 1, dim)
            ]
            res = (dim, pos)
        elif kind == "B":
            res = (n, [_e(i, n) for i in range(n)] + _pm_pairs(n))
        elif kind == "C":
            res = (n, [_e(i, n, 4) for i in range(n)] + _pm_pairs(n))
        elif kind == "D":
            res = (n, _pm_pairs(n))
        else:
            raise ValueError(f"no reference root system for {label}")
    _POS_CACHE[label] = res
    return res


def weyl_dim(label, twice):
    """Weyl dimension of the irrep with doubled highest weight ``twice``."""
    ncoord, pos = positive_roots(label)
    if len(twice) != ncoord:
        raise ValueError(f"{label} weights have {ncoord} coordinates")
    if not pos:
        return 1
    rho_d = [sum(r[i] for r in pos) for i in range(ncoord)]  # 2 * 2rho
    num = Fraction(1)
    for r in pos:
        num *= Fraction(
            sum((2 * t + p) * x for t, p, x in zip(twice, rho_d, r)),
            sum(p * x for p, x in zip(rho_d, r)),
        )
    if num.denominator != 1 or num <= 0:
        raise ValueError(f"{label} {twice} is not a dominant integral weight")
    return int(num)


def product_dim(labels, concat):
    """Dimension of a product irrep given by concatenated doubled coords."""
    dim, i = 1, 0
    for lab in labels:
        n = positive_roots(lab)[0]
        dim *= weyl_dim(lab, tuple(concat[i:i + n]))
        i += n
    if i != len(concat):
        raise ValueError("coordinate count does not match the factors")
    return dim


def twice_of(c):
    """Doubled value of a JSON coordinate: an int or a 'p/2' string."""
    if isinstance(c, bool):
        raise ValueError("bool is not a coordinate")
    if isinstance(c, int):
        return 2 * c
    num, den = c.split("/")
    if den != "2" or int(num) % 2 == 0:
        raise ValueError(f"bad half-integer {c!r}")
    return int(num)


# ---------------------------------------------------------------------------
# tables kept by the benchmark

# split-last and F4 embeddings: name -> (source, target factors)
EMBEDDINGS = {
    "Sp2>Sp1xSp1": ("C2", ("C1", "C1")),
    "Sp3>Sp2xSp1": ("C3", ("C2", "C1")),
    "Spin5>Spin3xSpin2": ("B2", ("B1", "Spin2")),
    "Spin7>Spin5xSpin2": ("B3", ("B2", "Spin2")),
    "Spin6>Spin4xSpin2": ("D3", ("D2", "Spin2")),
    "Spin8>Spin6xSpin2": ("D4", ("D3", "Spin2")),
    "F4>B4": ("F4", ("B4",)),
}

# quaternionic groups: M factors, V_M highest weights (doubled) and
# d = dim V_M
GROUPS = {
    "Spin(4,3)": (("C1", "C1"), ((2,), (4,)), 6),
    "Spin(4,4)": (("C1", "C1", "C1"), ((2,), (2,), (2,)), 8),
    "G2_2": (("C1",), ((6,),), 4),
    "F4_4": (("C3",), ((2, 2, 2),), 14),
    "E6_4": (("A5",), ((2, 2, 2, 0, 0, 0),), 20),
}


# ---------------------------------------------------------------------------
# restrictions


def oracle_table(out):
    """Restriction output [[concat, mult], ...] as {head: {last: mult}}."""
    table = {}
    for concat, m in out:
        table.setdefault(tuple(concat[:-1]), {})[concat[-1]] = m
    return table


def check_restrict(args, out, closed=None):
    """Restriction of (label, twice, embedding): the dimensions add up to
    the source dimension, and the table equals the closed form."""
    label, twice, emb = args
    source, targets = EMBEDDINGS[emb]
    problems = []
    if source != label:
        return [f"embedding {emb} does not start at {label}"]
    if any(m <= 0 for _, m in out):
        problems.append("non-positive multiplicity")
    total = sum(m * product_dim(targets, c) for c, m in out)
    want = weyl_dim(label, tuple(twice))
    if total != want:
        problems.append(f"dimensions sum to {total}, source has {want}")
    if closed is not None:
        got = (
            {tuple(c): m for c, m in out} if emb == "F4>B4"
            else oracle_table(out)
        )
        if got != closed:
            problems.append("oracle restriction differs from the closed form")
    return problems


# ---------------------------------------------------------------------------
# K-type ledgers


def su2_weights(label_twice):
    """Weights of the SU(2) irrep (m) as labels m, m-2, ..., -m; the
    doubled C1 coordinate of (m) is 2m."""
    m = label_twice // 2
    return list(range(-m, m + 1, 2))


def _factor_weights(hws):
    """Torus weights of a product of SU(2) irreps: {label tuple: mult}."""
    out = {(): 1}
    for (t,) in hws:
        out = {
            w + (x,): m for w, m in out.items() for x in su2_weights(t)
        }
    return out


def su2_ledger(vm_hws, w_hws, kmax):
    """Levels 0..kmax of S^k(V_M) (x) W for M a product of SU(2)s.

    Torus weights of S^k(V_M) come from the generating function
    prod over weights nu of (1 - t x^nu)^(-1), truncated at t^kmax; each
    level is tensored with W and decomposed by the 2^r-term
    inclusion-exclusion of the SU(2)^r Weyl character.  Returns a list
    of {label tuple: mult}.
    """
    r = len(vm_hws)
    zero = (0,) * r
    levels = [{zero: 1}] + [{} for _ in range(kmax)]
    for nu, mult in _factor_weights(vm_hws).items():
        for _ in range(mult):
            for k in range(1, kmax + 1):
                cur = levels[k]
                for w, m in levels[k - 1].items():
                    key = tuple(a + b for a, b in zip(w, nu))
                    cur[key] = cur.get(key, 0) + m
    w_wts = _factor_weights(w_hws)
    shifts = list(itertools.product((0, 2), repeat=r))
    out = []
    for lev in levels:
        tau = {}
        for w1, m1 in lev.items():
            for w2, m2 in w_wts.items():
                key = tuple(a + b for a, b in zip(w1, w2))
                tau[key] = tau.get(key, 0) + m1 * m2
        dec = {}
        for lam in tau:
            if min(lam) < 0:
                continue
            m = 0
            for eps in shifts:
                key = tuple(a + e for a, e in zip(lam, eps))
                m += (-1) ** (sum(eps) // 2) * tau.get(key, 0)
            if m < 0:
                raise ValueError("negative multiplicity in the reference")
            if m:
                dec[lam] = m
        out.append(dec)
    return out


def parse_ktypes_argv(argv):
    opts = dict(zip(argv[1::2], argv[2::2]))
    wm = tuple(
        tuple(twice_of(int(x) if "/" not in x else x) for x in f.split(","))
        for f in opts["--wm"].split(";")
    )
    return opts["--g"], wm, int(opts["--s"]), int(opts["--kmax"])


def _mtype_concat(hw, nfactors):
    if nfactors == 1:
        return tuple(twice_of(c) for c in hw)
    return tuple(twice_of(c) for f in hw for c in f)


def check_ktypes(args, out, reference=None):
    """Ledger of ``quatheta ktypes``: exit code 0, the module echoed, one
    level per k with SU_0(2) label s+k-2, dim tau_k = C(k+d-1, k) dim W,
    and, when given, the SU(2)^r reference level by level."""
    (argv,) = args
    g, wm, s, kmax = parse_ktypes_argv(argv)
    labels, _, d = GROUPS[g]
    if out["code"] != 0:
        return [f"exit code {out['code']}"]
    try:
        doc = json.loads(out["stdout"])
    except ValueError:
        return ["stdout is not one JSON document"]
    problems = []
    mod = doc["module"]
    if mod["G"] != g or mod["s"] != s or mod["quotient"]:
        problems.append("module echo differs from the input")
    echo = tuple(tuple(twice_of(c) for c in f) for f in mod["wm"])
    if echo != wm:
        problems.append("module weight echo differs from the input")
    levels = doc["levels"]
    if [lv["k"] for lv in levels] != list(range(kmax + 1)):
        problems.append("levels are not 0..kmax")
        return problems
    dim_w = product_dim(labels, tuple(c for f in wm for c in f))
    for k, lv in enumerate(levels):
        if lv["su0"] != s + k - 2:
            problems.append(f"level {k}: SU_0(2) label {lv['su0']}")
        got = {}
        for entry in lv["mtypes"]:
            key = _mtype_concat(entry["hw"], len(labels))
            if entry["mult"] <= 0 or key in got:
                problems.append(f"level {k}: bad entry {entry}")
            got[key] = entry["mult"]
        total = sum(m * product_dim(labels, c) for c, m in got.items())
        want = comb(k + d - 1, k) * dim_w
        if total != want:
            problems.append(f"level {k}: dim {total}, identity gives {want}")
        if reference is not None:
            ref = {tuple(2 * x for x in lam): m
                   for lam, m in reference[k].items()}
            if got != ref:
                problems.append(f"level {k}: differs from the SU(2)^r reference")
    return problems


def ktypes_reference(argv):
    """SU(2)^r reference for a ledger, or None when M is not a product of
    SU(2)s."""
    g, wm, _, kmax = parse_ktypes_argv(argv)
    labels, vm, _ = GROUPS[g]
    if any(lab != "C1" for lab in labels):
        return None
    return su2_ledger(vm, wm, kmax)


# ---------------------------------------------------------------------------
# closed forms


def check_branch_sp(args, out):
    """Sp(n) -> Sp(n-1) x Sp(1): sum of mult * dim(mu) * (k+1) is dim(lam)."""
    (twice,) = args
    n = len(twice)
    total = sum(
        m * weyl_dim(f"C{n - 1}", tuple(mu)) * (k + 1)
        for mu, su2 in out for k, m in su2
    )
    want = weyl_dim(f"C{n}", tuple(twice))
    return [] if total == want else [f"dims sum to {total}, want {want}"]


def check_branch_spin(args, out, odd):
    """Spin(m) -> Spin(m-2) x Spin(2): the Spin(2) weights of each mu
    carry dim(mu) each and add up to dim(lam)."""
    (twice,) = args
    n = len(twice)
    src, dst = (f"B{n}", f"B{n - 1}") if odd else (f"D{n}", f"D{n - 1}")
    total = sum(
        m * weyl_dim(dst, tuple(mu)) for mu, spin2 in out for _, m in spin2
    )
    want = weyl_dim(src, tuple(twice))
    return [] if total == want else [f"dims sum to {total}, want {want}"]


def check_f4_table(args, out):
    """F4 -> Spin(9) for (a, b): constituents add up to the dimension of
    the F4 irrep ((2a+b)/2, b/2, b/2, b/2)."""
    a, b = args
    total = sum(m * weyl_dim("B4", tuple(w)) for w, m in out)
    want = weyl_dim("F4", (2 * a + b, b, b, b))
    return [] if total == want else [f"dims sum to {total}, want {want}"]


def check_e7_rows(args, out):
    """SU(2) x Spin(12) rows of the k-th Cartan power of the 56: they add
    up to the E7 dimension of k times (0,0,0,0,0,1,-1/2,1/2)."""
    (k,) = args
    total = sum((m + 1) * weyl_dim("D6", tuple(w)) for m, w in out)
    want = weyl_dim("E7", (0, 0, 0, 0, 0, 2 * k, -k, k))
    return [] if total == want else [f"dims sum to {total}, want {want}"]


def check_surjectivity(args, out):
    """Rank of the contraction map (3)(x)(n) -> (2)(x)(n+1): it has
    maximal rank, min(4(n+1), 3(n+2)), so it is onto exactly when n >= 2."""
    (n,) = args
    rank, codom, surj = out
    problems = []
    if codom != 3 * (n + 2):
        problems.append(f"codomain {codom}, want {3 * (n + 2)}")
    if rank != min(4 * (n + 1), 3 * (n + 2)):
        problems.append(f"rank {rank} is not maximal for n = {n}")
    if surj != (n >= 2):
        problems.append(f"surjective is {surj} for n = {n}")
    return problems


def check_true(args, out):
    return [] if out is True else [f"cross-check returned {out!r}"]


def check_pair_equal(args, out, twin_out):
    """A theta lift must equal the lift of its symmetric twin: the
    negated torus character, or the U(2) type (-b, -a)."""
    return [] if out == twin_out else ["lift differs from its symmetric twin"]


def check_aq(args, out):
    """A_q(lambda): the minimal type minus lambda is the sum of the
    u cap p weights, and the (x, y) chart is (b - c, a)."""
    _, _, lam = args
    mu = out["minimal_type_abc"]
    acc = list(lam)
    for w in out["u_cap_p_weights"]:
        acc = [x + y for x, y in zip(acc, w)]
    problems = []
    if acc != mu:
        problems.append(f"minimal type {mu} != lambda + sum(u cap p) {acc}")
    if out["minimal_type_xy"] != [mu[1] - mu[2], mu[0]]:
        problems.append("(x, y) chart does not match the minimal type")
    if sum(out["inf_char"]) != 0:
        problems.append("infinitesimal character leaves the sum-zero plane")
    return problems


def check_theta_unitary(args, out):
    """A nonzero minimal type lies on the K-type lattice: x, y >= 0 with
    x = y mod 2."""
    if out.get("zero"):
        return []
    x, y = out["minimal_type_xy"]
    if x < 0 or y < 0 or (x - y) % 2:
        return [f"minimal type ({x}, {y}) is off the K-type lattice"]
    return []


def _xy_to_abc(x, y):
    return (y, (x - y) // 2, -(x + y) // 2)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def cone_member(aq_out, xy):
    """Is the (x, y) type in mu + Z>=0-span of the u cap p weights?

    Exhaustive search: a small integer functional phi positive on every
    generator bounds the count of generator w by phi(rest) / phi(w).
    """
    x, y = xy
    if (x - y) % 2:
        return False
    target = _xy_to_abc(x, y)
    mu = tuple(aq_out["minimal_type_abc"])
    gens = [tuple(w) for w in aq_out["u_cap_p_weights"]]
    phi = next(
        p for p in itertools.product(range(-4, 5), repeat=3)
        if all(_dot(p, w) > 0 for w in gens)
    )

    def rec(i, rem):
        if not any(rem):
            return True
        if i == len(gens) or _dot(phi, rem) <= 0:
            return False
        w = gens[i]
        for n in range(_dot(phi, rem) // _dot(phi, w) + 1):
            if rec(i + 1, tuple(r - n * c for r, c in zip(rem, w))):
                return True
        return False

    return rec(0, tuple(t - m for t, m in zip(target, mu)))


def check_cone_contains(args, out, aq_out):
    """Membership agrees with the benchmark's own search over the same
    minimal type and generators."""
    want = cone_member(aq_out, tuple(args[3]))
    return [] if out is want else [f"membership {out}, search says {want}"]


def check_cone_rays(args, out, aq_out):
    """Both rays are primitive and every generator image lies between
    them."""
    lo, hi = (tuple(r) for r in out)
    problems = []
    for r in (lo, hi):
        if gcd(*r) != 1:
            problems.append(f"ray {r} is not primitive")
    for w in aq_out["u_cap_p_weights"]:
        g = (w[1] - w[2], w[0])
        if lo[0] * g[1] - lo[1] * g[0] < 0 or hi[0] * g[1] - hi[1] * g[0] > 0:
            problems.append(f"generator {g} lies outside the rays")
    return problems
