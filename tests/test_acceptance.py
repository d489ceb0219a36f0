"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion, asserts exact
equality (no tolerances apply anywhere: all arithmetic is integral),
enforces the stated runtime budget, and prints a single PASS/FAIL line
(shown under pytest -s; the -v report carries the same per-criterion
verdict through the test names).
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from itertools import product
from math import comb
from unittest import mock

import quatheta
from quatheta.charoracle import (
    DEFAULT_DIM_CAP,
    Irrep,
    _dim_single,
    embedding,
    irrep,
    restrict,
    weyl_dim,
)
from quatheta.cli import main
from quatheta.quaternionic import (
    KTypeLedger,
    QuatModule,
    check_lemma_surjectivity,
    ktypes,
)
from quatheta.branchrules import (
    _dominant_tuples,
    branch_spin_even,
    branch_spin_odd,
    f4_to_spin9_table,
    restrict_e7_to_su2_spin12,
)
from quatheta.rootdata import (
    HalfInt, Weight, _half, _sys, highest_root_coefficients,
)
from quatheta.verify import SUITES, run_suite


def _report(num, desc, ok, elapsed, budget=None):
    verdict = "PASS" if ok and (budget is None or elapsed < budget) else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" < {budget:g}s" if budget else "")
    print(f"{verdict} criterion {num}: {desc} [{timing}]")
    assert ok, f"criterion {num}: {desc}"
    if budget is not None:
        assert elapsed < budget, \
            f"criterion {num} exceeded budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_01_e6_highest_root_coefficients():
    t0 = time.perf_counter()
    ok = highest_root_coefficients("E6") == (1, 2, 2, 3, 2, 1)
    _report(1, "E6 highest-root expansion coefficients are (1,2,2,3,2,1)",
            ok, time.perf_counter() - t0, budget=1.0)


def test_criterion_02_appendix_branching_vs_oracle():
    t0 = time.perf_counter()
    lines, ok = run_suite("appendix-branching", max_entry=3)
    _report(2, "closed-form Sp/Spin branching equals the character oracle "
               "for all dominant weights with entries <= 3",
            ok, time.perf_counter() - t0, budget=60.0)


def test_criterion_03_f4_to_spin9():
    t0 = time.perf_counter()
    lines, ok = run_suite("f4-spin9")
    _report(3, "F4 -> Spin(9) closed form equals the oracle on five "
               "two-parameter weights and splits 26 as 1+9+16",
            ok, time.perf_counter() - t0, budget=300.0)


def test_criterion_04_infinitesimal_character_crosschecks():
    t0 = time.perf_counter()
    lines, ok = run_suite("infchar")
    _report(4, "lift parameter maps and stated infinitesimal characters "
               "agree after Weyl canonicalization for parameters <= 6",
            ok, time.perf_counter() - t0, budget=10.0)


def test_criterion_05_seesaw_truncation():
    t0 = time.perf_counter()
    lines, ok = run_suite("seesaw")
    _report(5, "see-saw multiplicity identity holds level-by-level up to "
               "outer label 16 for eight (b,d) pairs",
            ok, time.perf_counter() - t0, budget=120.0)


def test_criterion_06_surjectivity_rank():
    t0 = time.perf_counter()
    ok = all(
        check_lemma_surjectivity(n) == (3 * (n + 2), 3 * (n + 2), True)
        for n in range(2, 31)
    )
    ok = ok and not check_lemma_surjectivity(0)[2]
    ok = ok and not check_lemma_surjectivity(1)[2]
    _report(6, "pairing matrix has full rank 3(n+2) for 2 <= n <= 30 "
               "and drops rank for n in {0,1}",
            ok, time.perf_counter() - t0, budget=1.0)


def test_criterion_07_restriction_filtration():
    t0 = time.perf_counter()
    lines, ok = run_suite("filtration")
    _report(7, "restriction filtration of A(Spin(4,4),(0,b,a)[4+a+b]) "
               "matches the displayed sum exactly",
            ok, time.perf_counter() - t0)


def test_criterion_08_aq_tables():
    t0 = time.perf_counter()
    lines, ok = run_suite("aq")
    _report(8, "A_q(lambda) tables, restriction-segment maxima, and "
               "unitarity bullets reproduce at 20 instantiations per case",
            ok, time.perf_counter() - t0)


def test_criterion_09_e7_family_dimension_sums():
    t0 = time.perf_counter()
    want = {0: 1, 1: 56, 2: 1463, 3: 24320}
    ok = True
    for k in range(4):
        rows = restrict_e7_to_su2_spin12(k)
        total = sum((m + 1) * weyl_dim(irrep("D6", w)) for m, w in rows)
        hw = (0, 0, 0, 0, 0, k, HalfInt(-k), HalfInt(k))
        computed = weyl_dim(irrep("E7", hw))
        ok = ok and total == computed == want[k]
    _report(9, "SU(2) x Spin(12) family dimension sums equal the computed "
               "E7 dimensions 1, 56, 1463, 24320 for k <= 3",
            ok, time.perf_counter() - t0, budget=5.0)


def test_criterion_10_verify_all_is_deterministic():
    t0 = time.perf_counter()
    cmd = [sys.executable, "-m", "quatheta.cli", "verify", "--suite", "all"]
    # the subprocesses import the same quatheta as this test run
    src = os.path.dirname(os.path.dirname(quatheta.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    a = subprocess.run(cmd, capture_output=True, env=env)
    b = subprocess.run(cmd, capture_output=True, env=env)
    ok = (a.returncode == 0 and b.returncode == 0
          and a.stdout == b.stdout and len(a.stdout) > 0)
    _report(10, "verify --suite all twice produces byte-identical passing "
                "reports",
            ok, time.perf_counter() - t0)


def test_criterion_11_e8_4_ledger():
    t0 = time.perf_counter()
    m = QuatModule("E8_4", ((0,) * 8,), 4, "A")
    ledger = ktypes(m, 2)
    ok = all(
        dec.dimension() == comb(k + 55, k) and su0 == 4 + k - 2
        for k, (su0, dec) in enumerate(ledger)
    )
    _report(11, "the E8_4 ledger of A(E8_4, 0[4]) reaches level 2 at the "
                "default cap, level k of dimension C(k+55, k)",
            ok, time.perf_counter() - t0, budget=5.0)


def test_criterion_12_spin44_deep_ledger():
    t0 = time.perf_counter()
    s, kmax = 4, 20
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["ktypes", "--g", "Spin(4,4)", "--wm", "0;0;0",
                     "--s", str(s), "--kmax", str(kmax)])
    ledger = KTypeLedger.from_json(json.loads(out.getvalue()))
    ok = code == 0 and ledger.kmax == kmax and all(
        sum(m * weyl_dim(r) for r, m in dec.items()) == comb(k + 7, k)
        and su0 == s + k - 2
        for k, (su0, dec) in enumerate(ledger)
    )
    _report(12, "the Spin(4,4) ledger of A(Spin(4,4), 0[4]) through the CLI "
                "reaches level 20, level k of dimension C(k+7, k)",
            ok, time.perf_counter() - t0, budget=5.0)


def test_criterion_13_e8_4_ledger_at_level_3():
    t0 = time.perf_counter()
    m = QuatModule("E8_4", ((0,) * 8,), 4, "A")
    with mock.patch.dict(os.environ, {"QUATHETA_DIM_CAP": "24320"}):
        ledger = ktypes(m, 3)
    ok = ledger.kmax == 3 and all(
        dec.dimension() == comb(k + 55, k) and su0 == 4 + k - 2
        for k, (su0, dec) in enumerate(ledger)
    )
    _report(13, "the E8_4 ledger of A(E8_4, 0[4]) reaches level 3 at "
                "QUATHETA_DIM_CAP=24320, level k of dimension C(k+55, k)",
            ok, time.perf_counter() - t0, budget=1.0)


def test_criterion_14_closed_forms_at_scale():
    t0 = time.perf_counter()
    ok = all(
        check_lemma_surjectivity(n) == (3 * (n + 2), 3 * (n + 2), True)
        for n in range(2, 201)
    )
    for a in range(11):
        for b in range(a + 1):
            # the F4 irrep (a-b) w4 + b w3 has highest weight
            # ((2a+b)/2, b/2, b/2, b/2)
            hw = (HalfInt(2 * a + b),) + (HalfInt(b),) * 3
            table = f4_to_spin9_table(a, b)
            ok = ok and sum(
                m * weyl_dim(irrep("B4", w)) for w, m in table.items()
            ) == weyl_dim(irrep("F4", hw))
    _report(14, "the surjectivity rank is full for 2 <= n <= 200, and every "
                "F4 -> Spin(9) table with a <= 10 sums to the F4 dimension",
            ok, time.perf_counter() - t0, budget=2.0)


def test_criterion_15_e8_4_ledger_at_level_8():
    # level 8 holds an irreducible of dimension 1630294050, larger than
    # its Cartan component 8 w7 (839848450): the least cap that admits
    # the level
    t0 = time.perf_counter()
    m = QuatModule("E8_4", ((0,) * 8,), 4, "A")
    with mock.patch.dict(os.environ, {"QUATHETA_DIM_CAP": "1630294050"}):
        ledger = ktypes(m, 8)
    ok = ledger.kmax == 8 and all(
        dec.dimension() == comb(k + 55, k) and su0 == 4 + k - 2
        for k, (su0, dec) in enumerate(ledger)
    )
    _report(15, "the E8_4 ledger of A(E8_4, 0[4]) reaches level 8 at "
                "QUATHETA_DIM_CAP=1630294050, level k of dimension "
                "C(k+55, k)",
            ok, time.perf_counter() - t0, budget=2.0)


def test_criterion_16_spin_branching_at_scale():
    # every D4 weight with doubled entries <= 12 (either sign of the last
    # entry) and every B4 weight with doubled entries <= 10, both
    # congruence classes
    t0 = time.perf_counter()
    ok, weights, keys = True, 0, 0
    for label, sub, rule, bound, signed in (
        ("D4", "D3", branch_spin_even, 12, True),
        ("B4", "B3", branch_spin_odd, 10, False),
    ):
        for parity in (0, 1):
            for t in _dominant_tuples(bound, 4, parity, signed):
                table = rule(tuple(map(_half, t)))
                ok = ok and sum(
                    _dim_single(sub, tuple(c.twice for c in mu))
                    * sum(m for _, m in mod.entries)
                    for mu, mod in table.items()
                ) == _dim_single(label, t)
                weights += 1
                keys += len(table)
    ok = ok and (weights, keys) == (784, 25364)
    _report(16, "Spin(8) -> Spin(6) x Spin(2) for every weight with doubled "
                "entries <= 12 and Spin(9) -> Spin(7) x Spin(2) for every "
                "weight with doubled entries <= 10 preserve dimension "
                "(784 weights, 25364 mu)",
            ok, time.perf_counter() - t0, budget=2.0)


def test_criterion_17_import_loads_no_dataclasses_or_fractions():
    # compared with the modules loaded before the import, since site may
    # load some of these itself
    t0 = time.perf_counter()
    code = ("import sys; before = set(sys.modules); "
            "import quatheta, quatheta.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    src = os.path.dirname(os.path.dirname(quatheta.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    added = set(proc.stdout.split())
    ok = (proc.returncode == 0 and "quatheta.cli" in added
          and not added & {"dataclasses", "inspect", "fractions", "decimal"})
    _report(17, "import quatheta, quatheta.cli loads none of dataclasses, "
                "inspect, fractions and decimal",
            ok, time.perf_counter() - t0, budget=2.0)


def test_criterion_18_oracle_restriction_at_scale():
    # every dominant weight with doubled entries in [-8, 8] within the
    # default cap, along the three rank-4 equal-rank embeddings
    t0 = time.perf_counter()
    ok, count, total = True, 0, 0
    for label, name in (("F4", "F4>B4"), ("B4", "Spin9>Spin8"),
                        ("D4", "Spin8>Spin6xSpin2")):
        d, e = _sys(label), embedding(name)
        for t in product(range(-8, 9), repeat=4):
            if not (d.in_chamber(t) and d.is_integral(t)) \
                    or _dim_single(label, t) > DEFAULT_DIM_CAP:
                continue
            r = Irrep(label, Weight.from_twice(t, label))
            dim = restrict(r, e).dimension()
            ok = ok and dim == weyl_dim(r)
            count += 1
            total += dim
    ok = ok and (count, total) == (216, 1164064)
    _report(18, "F4 -> Spin(9), Spin(9) -> Spin(8) and Spin(8) -> Spin(6) x "
                "Spin(2) preserve dimension on every weight with doubled "
                "entries <= 8 within the default cap (216 restrictions, "
                "total dimension 1164064)",
            ok, time.perf_counter() - t0, budget=2.0)


def test_criterion_19_every_verify_line_compares_cases():
    # each suite's total case count at its default ranges: a range that
    # shrinks fails here, not only one that empties
    t0 = time.perf_counter()
    want = {
        "rootdata": 9, "oracle": 15, "appendix-branching": 91,
        "f4-spin9": 6, "e7d6": 4, "quaternionic": 56, "filtration": 88,
        "surjectivity": 31, "theta": 199, "infchar": 777, "seesaw": 498,
        "aq": 1031,
    }
    records = {name: list(suite(None)) for name, suite in SUITES.items()}
    ok = (
        sum(map(len, records.values())) == 58
        and all(cases >= 1 for recs in records.values()
                for _, cases, _ in recs)
        and {name: sum(cases for _, cases, _ in recs)
             for name, recs in records.items()} == want
    )
    _report(19, "all 58 verify lines compare at least one case, and each "
                "suite's total case count at its default ranges is pinned",
            ok, time.perf_counter() - t0)
