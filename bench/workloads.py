"""Seeded inputs of the three workloads.

``make_ops(workload, seed)`` returns the operations of one pass, in the
order they run, as dicts ``{"kind": str, "args": list, "ref": int |
None}``.  Only kind and args reach the program; ``ref`` points at another
operation of the same pass whose output a check needs (the twin of a
theta lift, the A_q data of a cone query).

The seed picks inputs, but the work of a pass must not depend on it, or
the figures would move with the seed rather than with the program.  So
the seed only chooses between inputs of equal or neighbouring cost: the
sign of the last entry of a Spin(2n) weight (an outer automorphism, so
the same work), one of two neighbours in dimension order, the free
parameter s of a ledger, and the parameters of operations that take
well under a millisecond.  Families run in a fixed order, smaller groups
first, so a restriction finds the characters of its subgroup already
cached by the family before it, whatever the seed picked.
"""

from __future__ import annotations

import itertools
import random

from checks import weyl_dim

WORKLOADS = ("oracle-branching", "ktype-ledgers", "closed-forms")


def dominant(kind, n, bound2):
    """Dominant doubled weights of type kind (B, C or D) and rank n with
    entries at most bound2 / 2 (absolute value for a signed D entry)."""
    out = []
    for parity in ((0,) if kind == "C" else (0, 1)):
        vals = range(bound2 - (bound2 - parity) % 2, parity - 1, -2)
        for t in itertools.combinations_with_replacement(vals, n):
            out.append(t)
            if kind == "D" and t[-1] > 0:
                out.append(t[:-1] + (-t[-1],))
    return out


def spread(rng, items, take, key):
    """``take`` items at evenly spaced places of items sorted by key; at
    each place the seed picks one of two neighbours."""
    items = sorted(items, key=key)
    n = len(items)
    if 2 * take > n:
        raise ValueError("need at least two candidates per place")
    return [items[j * n // take + rng.randrange(2)] for j in range(take)]


def _by_dim(label):
    return lambda t: (weyl_dim(label, t), t)


def _op(kind, *args, ref=None):
    return {"kind": kind, "args": list(args), "ref": ref}


# ---------------------------------------------------------------------------
# oracle-branching

# (source label, embedding, how many of the entries <= 3 weights: None
# for all of them).  The subgroup of each family is the source of a
# family before it, so its characters are cached by then.  A Spin(2n)
# family counts a weight and its sign flip once, and the seed picks the
# sign; the flips the seed did not pick cost the same whichever they are.
ORACLE_FAMILIES = (
    ("C2", "Sp2>Sp1xSp1", None),
    ("B2", "Spin5>Spin3xSpin2", None),
    ("C3", "Sp3>Sp2xSp1", None),
    ("D3", "Spin6>Spin4xSpin2", None),
    ("B3", "Spin7>Spin5xSpin2", 10),
    ("D4", "Spin8>Spin6xSpin2", 5),
)
# F4 -> Spin(9) parameters (a, b): highest weight ((2a+b)/2, b/2, b/2, b/2)
F4_AB = ((1, 0), (1, 1), (2, 0))


def oracle_branching(rng):
    ops = []
    for label, emb, take in ORACLE_FAMILIES:
        cands = dominant(label[0], int(label[1]), 6)
        if label[0] == "D":
            reps = sorted((t for t in cands if t[-1] >= 0), key=_by_dim(label))
            if take is not None:
                reps = [reps[j * len(reps) // take] for j in range(take)]
            picked = [
                t if rng.randrange(2) else t[:-1] + (-t[-1],) for t in reps
            ]
        elif take is None:
            picked = cands
        else:
            picked = spread(rng, cands, take, _by_dim(label))
        for t in sorted(picked, key=_by_dim(label)):
            ops.append(_op("restrict", label, list(t), emb))
    for a, b in F4_AB:
        ops.append(_op("restrict", "F4", [2 * a + b, b, b, b], "F4>B4"))
    return ops


# ---------------------------------------------------------------------------
# ktype-ledgers

# (group, kmax, ledgers, largest label per M factor); the shallow ledgers
# of one group share V_M, so its character is cached after the first
SHALLOW = (
    ("G2_2", 4, 13, (30,)),
    ("Spin(4,3)", 3, 14, (5, 5)),
    ("Spin(4,4)", 3, 13, (3, 3, 3)),
)
DEEP_KMAX = 11


def _ktypes(g, wm, s, kmax):
    return _op("ktypes", [
        "ktypes", "--g", g, "--wm", wm, "--s", str(s), "--kmax", str(kmax),
    ])


def _dim_w(w):
    dim = 1
    for x in w:
        dim *= x + 1
    return (dim, w)


def ktype_ledgers(rng):
    ops = []
    for g, kmax, count, ranges in SHALLOW:
        cands = itertools.product(*(range(r + 1) for r in ranges))
        for w in spread(rng, cands, count, _dim_w):
            wm = ";".join(str(x) for x in w)
            ops.append(_ktypes(g, wm, rng.randint(2, 12), kmax))
    ops.append(_ktypes("Spin(4,4)", "0;0;0", rng.randint(2, 12), DEEP_KMAX))
    ops.append(_ktypes("F4_4", "0,0,0", rng.randint(2, 12), 3))
    ops.append(_ktypes("E6_4", "0,0,0,0,0,0", rng.randint(2, 12), 2))
    return ops


# ---------------------------------------------------------------------------
# closed-forms

# closed-form branching over every dominant weight with entries <= 4
BRANCH_FAMILIES = (
    ("branch_sp", "C2"),
    ("branch_sp", "C3"),
    ("branch_spin_odd", "B2"),
    ("branch_spin_odd", "B3"),
    ("branch_spin_even", "D3"),
    ("branch_spin_even", "D4"),
)
F4_TABLE_A = 6  # f4_to_spin9_table for every a >= b >= 0 with a <= 6
E7_KMAX = 12
SURJECTIVITY_N = 30


def _g2_case(rng, case_id):
    a = rng.randint(2, 6)
    b = rng.randint(1, a - 1)
    c = -a - b
    regular = {"I": (a, b, c), "II": (-c, -b, -a), "III": (b, a, c)}
    walls = {
        "Ia.1": (b, b, -2 * b), "Ia.2": (b, b, -2 * b),
        "Ia.3": (b, b, -2 * b), "Ib": (2 * b, -b, -b),
        "IIa.1": (b, 0, -b), "IIa.2": (b, 0, -b), "IIa.3": (b, 0, -b),
        "IIb": (0, b, -b),
    }
    return ("G2", case_id, (regular | walls)[case_id])


def _pu21_case(rng, case_id):
    mid = rng.randint(-3, 3)
    hi = rng.randint(1, 5) + max(mid, -2 * mid)
    lo = -hi - mid  # hi > mid > lo, sum zero
    b = rng.randint(1, 5)
    regular = {"I": (hi, mid, lo), "II": (hi, lo, mid), "III": (mid, hi, lo)}
    walls = {
        "Ia.1": (b, b, -2 * b), "Ia.2": (b, b, -2 * b),
        "Ia.3": (b, b, -2 * b), "Ib": (b, -2 * b, b),
        "IIa.1": (2 * b, -b, -b), "IIa.2": (2 * b, -b, -b),
        "IIa.3": (2 * b, -b, -b), "IIb": (-b, 2 * b, -b),
    }
    return ("PU21", case_id, (regular | walls)[case_id])


CASE_IDS = ("I", "II", "III", "Ia.1", "Ia.2", "Ia.3", "Ib",
            "IIa.1", "IIa.2", "IIa.3", "IIb")


def _half(t):
    return t // 2 if t % 2 == 0 else f"{t}/2"


def closed_forms(rng):
    ops = []
    for kind, label in BRANCH_FAMILIES:
        for t in sorted(dominant(label[0], int(label[1]), 8),
                        key=_by_dim(label)):
            ops.append(_op(kind, list(t)))
    for a in range(F4_TABLE_A + 1):
        for b in range(a + 1):
            ops.append(_op("f4_table", a, b))
    for k in range(E7_KMAX + 1):
        ops.append(_op("e7_rows", k))
    # theta lifts next to their symmetric twins
    for _ in range(4):
        p, q = rng.randint(0, 5), rng.randint(0, 5)
        t = [p, q, -p - q]
        rng.shuffle(t)
        i = len(ops)
        ops.append(_op("theta_e6_torus", *t, None, ref=i + 1))
        ops.append(_op("theta_e6_torus", *[-x for x in t], None, ref=i))
    for _ in range(4):
        a = rng.randint(-4, 6)
        b = rng.randint(-6, a)
        i = len(ops)
        ops.append(_op("theta_e6_u2", a, b, None, ref=i + 1))
        ops.append(_op("theta_e6_u2", -b, -a, None, ref=i))
    # infinitesimal-character cross-checks of every theta table
    for _ in range(3):
        a = rng.randint(0, 6)
        ops.append(_op("infchar", "tmain", [a, rng.randint(-a, a)]))
        a = rng.randint(1, 5)
        b = rng.randint(0, a)
        c = rng.randint(0, a - b) if rng.random() < 0.5 else (
            a - b + 2 * rng.randint(1, b) if b else 0)
        ops.append(_op("infchar", "e7", [a, b, c]))
        par = rng.randint(0, 1)
        w = sorted((2 * rng.randint(0, 3) + par for _ in range(4)),
                   reverse=True)
        ops.append(_op("infchar", "e8_spin9", [_half(t) for t in w]))
        w = sorted((2 * rng.randint(0, 3) + par for _ in range(4)),
                   reverse=True)
        if rng.random() < 0.5:
            w[3] = -w[3]
        ops.append(_op("infchar", "e8_spin8", [_half(t) for t in w]))
        ops.append(_op("infchar", "f4", [rng.randint(0, 9)]))
        ops.append(_op("infchar", "t161",
                       [rng.randint(1, 5), rng.randint(0, 5)]))
    # A_q(lambda) data, cone queries against them, theta-unitary tables
    for make in (_g2_case, _pu21_case):
        for case_id in CASE_IDS:
            case = make(rng, case_id)
            i = len(ops)
            ops.append(_op("aq", *case[:2], list(case[2])))
            ops.append(_op("cone_rays", *case[:2], list(case[2]), ref=i))
            for _ in range(2):
                xy = [rng.randint(0, 12), rng.randint(0, 8)]
                ops.append(_op("cone_contains", *case[:2], list(case[2]), xy,
                               ref=i))
    for _ in range(3):
        a = rng.randint(1, 6)
        for tau in ((a + 1, a + 1), (a - 1, -2 * a - 1), (a, -2 * a - 1),
                    (a + 1, -2 * a - 1)):
            ops.append(_op("theta_unitary", "wall", a, list(tau)))
        b = rng.randint(1, 4)
        a = rng.randint(b + 1, b + 4)
        c = -a - b
        for tau in ((a + 1, b + 1), (a + 1, c - 1), (b - 1, c - 1)):
            ops.append(_op("theta_unitary", "regular", [a, b, c], list(tau)))
    for n in range(SURJECTIVITY_N + 1):
        ops.append(_op("surjectivity", n))
    return ops


_MAKERS = {
    "oracle-branching": oracle_branching,
    "ktype-ledgers": ktype_ledgers,
    "closed-forms": closed_forms,
}


def make_ops(workload, seed):
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))
