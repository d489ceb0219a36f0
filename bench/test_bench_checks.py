"""Each output check accepts the program's output and rejects the same
output with one multiplicity (or one number) changed.

Run with ``PYTHONPATH=src python -m pytest bench/test_bench_checks.py``.
"""

import copy
import json

import pytest

import checks
import ops


def run(kind, *args):
    call, convert = ops.KINDS[kind](*args)
    return json.loads(json.dumps(convert(call())))


def test_reference_dimensions():
    assert checks.weyl_dim("F4", (2, 0, 0, 0)) == 26
    assert checks.weyl_dim("F4", (3, 1, 1, 1)) == 273
    assert checks.weyl_dim("E7", (0, 0, 0, 0, 0, 2, -1, 1)) == 56
    assert checks.weyl_dim("E7", (0, 0, 0, 0, 0, 4, -2, 2)) == 1463
    assert checks.weyl_dim("A5", (2, 2, 2, 0, 0, 0)) == 20
    assert checks.weyl_dim("C3", (2, 2, 2)) == 14
    assert checks.weyl_dim("D4", (1, 1, 1, -1)) == 8


@pytest.mark.parametrize("args", [
    ("C2", [4, 2], "Sp2>Sp1xSp1"),
    ("B3", [3, 1, 1], "Spin7>Spin5xSpin2"),
    ("D3", [2, 2, -2], "Spin6>Spin4xSpin2"),
    ("F4", [2, 0, 0, 0], "F4>B4"),
])
def test_restrict_rejects_one_multiplicity(args):
    out = run("restrict", *args)
    closed = (
        {tuple(c): m for c, m in out} if args[2] == "F4>B4"
        else checks.oracle_table(out)
    )
    assert checks.check_restrict(args, out, closed) == []
    bad = copy.deepcopy(out)
    bad[0][1] += 1
    assert checks.check_restrict(args, bad) != []  # dimension identity
    assert checks.check_restrict(args, bad, closed) != []


def _bump_level(out, k, delta):
    doc = json.loads(out["stdout"])
    doc["levels"][k]["mtypes"][0]["mult"] += delta
    return {"code": 0, "stdout": json.dumps(doc)}


@pytest.mark.parametrize("argv", [
    ["ktypes", "--g", "Spin(4,3)", "--wm", "1;2", "--s", "5", "--kmax", "3"],
    ["ktypes", "--g", "Spin(4,4)", "--wm", "0;1;2", "--s", "4", "--kmax", "3"],
    ["ktypes", "--g", "G2_2", "--wm", "3", "--s", "7", "--kmax", "4"],
    ["ktypes", "--g", "F4_4", "--wm", "0,0,0", "--s", "4", "--kmax", "2"],
])
def test_ktypes_rejects_one_multiplicity(argv):
    out = run("ktypes", argv)
    ref = checks.ktypes_reference(argv)
    assert checks.check_ktypes([argv], out, ref) == []
    assert checks.check_ktypes([argv], _bump_level(out, 2, 1), ref) != []


def test_ktypes_reference_sees_a_dimension_preserving_swap():
    argv = ["ktypes", "--g", "Spin(4,4)", "--wm", "0;0;0", "--s", "4",
            "--kmax", "2"]
    out = run("ktypes", argv)
    doc = json.loads(out["stdout"])
    # level 1 is V_M = (1)(x)(1)(x)(1); (7)(x)(0)(x)(0) has its dimension
    assert doc["levels"][1]["mtypes"] == [{"hw": [[1], [1], [1]], "mult": 1}]
    doc["levels"][1]["mtypes"][0]["hw"] = [[7], [0], [0]]
    swapped = {"code": 0, "stdout": json.dumps(doc)}
    ref = checks.ktypes_reference(argv)
    assert checks.check_ktypes([argv], swapped) == []
    assert checks.check_ktypes([argv], swapped, ref) != []


def test_su2_reference_level_one():
    # S^1((1) x (2)) (x) (0;0) is V_M itself
    assert checks.su2_ledger(((2,), (4,)), ((0,), (0,)), 1)[1] == {(1, 2): 1}


@pytest.mark.parametrize("kind,args,check", [
    ("branch_sp", ([4, 2, 2],), checks.check_branch_sp),
    ("branch_spin_odd", ([3, 3, 1],),
     lambda a, o: checks.check_branch_spin(a, o, True)),
    ("branch_spin_even", ([4, 2, -2],),
     lambda a, o: checks.check_branch_spin(a, o, False)),
])
def test_branch_tables_reject_one_multiplicity(kind, args, check):
    out = run(kind, *args)
    assert check(args, out) == []
    bad = copy.deepcopy(out)
    bad[0][1][0][1] += 1
    assert check(args, bad) != []


def test_f4_table_rejects_one_multiplicity():
    out = run("f4_table", 2, 1)
    assert checks.check_f4_table([2, 1], out) == []
    out[-1][1] += 1
    assert checks.check_f4_table([2, 1], out) != []


def test_e7_rows_reject_one_label():
    out = run("e7_rows", 3)
    assert checks.check_e7_rows([3], out) == []
    out[0][0] += 2
    assert checks.check_e7_rows([3], out) != []


def test_surjectivity_rejects_one_rank():
    for n in (0, 1, 2, 7):
        out = run("surjectivity", n)
        assert checks.check_surjectivity([n], out) == []
        out[0] += 1 if n < 2 else -1
        assert checks.check_surjectivity([n], out) != []


def test_theta_twins_and_infchar():
    lift = run("theta_e6_u2", 3, -5, None)
    twin = run("theta_e6_u2", 5, -3, None)
    assert checks.check_pair_equal([], lift, twin) == []
    twin["sigma"]["s"] += 1
    assert checks.check_pair_equal([], lift, twin) != []
    assert checks.check_true([], run("infchar", "e7", [3, 1, 2])) == []
    assert checks.check_true([], False) != []


def test_aq_and_cones_reject_one_coordinate():
    case = ("G2", "I", [3, 1, -4])
    data = run("aq", *case)
    assert checks.check_aq(case, data) == []
    bad = copy.deepcopy(data)
    bad["minimal_type_abc"][0] += 1
    assert checks.check_aq(case, bad) != []
    rays = run("cone_rays", *case)
    assert checks.check_cone_rays(case, rays, data) == []
    assert checks.check_cone_rays(case, [rays[1], rays[0]], data) != []
    mu = data["minimal_type_xy"]
    for xy in (mu, [mu[0] + 1, mu[1]], [mu[0] + 4, mu[1] + 2], [0, 0]):
        got = run("cone_contains", *case, xy)
        assert checks.check_cone_contains(case + (xy,), got, data) == []
        assert checks.check_cone_contains(case + (xy,), not got, data) != []


def test_theta_unitary_lattice():
    out = run("theta_unitary", "wall", 2, [1, -5])
    assert checks.check_theta_unitary([], out) == []
    out["minimal_type_xy"][0] += 1
    assert checks.check_theta_unitary([], out) != []
