import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quatheta
from quatheta import cli, verify
from quatheta.aqmodules import AqCase, AqData, aq_data
from quatheta.cli import main
from quatheta.quaternionic import KTypeLedger, QuatModule, inf_char, ktypes
from quatheta.rootdata import Weight, _SysData
from quatheta.thetamaps import (
    ThetaLift,
    theta_e6_torus,
    theta_e6_u2,
    theta_e7,
    theta_e8_spin8,
    theta_e8_spin9,
    theta_f4,
)


# subprocesses import the same quatheta as this test run
SRC = os.path.dirname(os.path.dirname(quatheta.__file__))
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
VERIFY_ALL_GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "verify_all.txt")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, _ = run(capsys, "theta", "--ambient", "E6", "--u2", "2,1")
        assert code == 0

    def test_domain_error_is_one(self, capsys):
        code, out, err = run(capsys, "theta", "--ambient", "E6",
                             "--torus", "1,0,0")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv,message", [
        (["E7", "--type", "2,1,3", "--sign", "+"],
         "--sign does not apply to ambient E7"),
        (["E8", "--spin8", "2,1,1,1", "--sign", "-"],
         "--sign does not apply to ambient E8"),
        (["E8", "--spin9", "2,1,1,1", "--sign", "-"],
         "--sign does not apply to ambient E8"),
        (["E8", "--spin9", "2,1,1,1", "--type", "1,1,1"],
         "give exactly one source type for the ambient group"),
        (["E6", "--type", "1,1,1"], "--type does not apply to ambient E6"),
        # a sign away from the split points
        (["E6", "--torus=1,-1,0", "--sign", "+"],
         "sign tag only applies to the zero character"),
        (["E6", "--u2", "2,1", "--sign", "-"],
         "sign tag only applies when a + b = 0"),
        (["F4", "--su2", "3", "--sign", "+"],
         "sign tag only applies to n = 0"),
    ])
    def test_theta_source_refusals(self, capsys, argv, message):
        code, out, err = run(capsys, "theta", "--ambient", *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["branch", "--rule", "spin-even", "--lam", "4,3,2,1", "--json"],
        ["ktypes", "--g", "Spin(4,4)", "--wm", "0;0;0", "--s", "4",
         "--kmax", "3"],
    ])
    # buffered, the closed pipe shows at main's flush; unbuffered, at the
    # first write
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_141_silently(self, argv, unbuffered):
        # the reader is gone before quatheta writes, as for `| head` once
        # head has exited
        env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "quatheta.cli", *argv],
                stdout=w, stderr=subprocess.PIPE, env=env,
            )
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_in_process_stringio_stdout_keeps_the_output(self):
        # main flushes stdout to see a closed pipe; a StringIO is unaffected
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["branch", "--rule", "spin-even", "--lam", "4,3,2,1",
                         "--json"])
        assert code == 0
        assert json.loads(out.getvalue())

    def test_verification_failure_is_two(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "run_suite", lambda *a, **k: (["FAIL x: y"], False)
        )
        code, out, _ = run(capsys, "verify", "--suite", "rootdata")
        assert code == 2
        assert "FAIL" in out

    def test_usage_error_is_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["theta", "--bogus"])
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert "usage" in err

    def test_missing_subcommand_is_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 64

    @pytest.mark.parametrize("exc", [
        AssertionError("ledger levels out of step"),
        TypeError("unhashable type: 'list'"),
    ])
    def test_internal_failure_is_70(self, capsys, monkeypatch, exc):
        def broken(*args):
            raise exc
        monkeypatch.setattr(cli, "ktypes", broken)
        code, out, err = run(capsys, "ktypes", "--g", "Spin(4,3)",
                             "--wm", "0;1", "--s", "6", "--kmax", "1")
        assert code == 70
        assert out == ""
        assert err == f"error: internal: {type(exc).__name__}: {exc}\n"


def _readme_commands():
    """The quatheta lines of the README's CLI block, as argv lists with
    the comment and any output redirection removed."""
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("## CLI", 1)[1].split("```sh", 1)[1]
    commands = []
    for line in block.split("```", 1)[0].splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["quatheta"]:
            commands.append(argv[1:argv.index(">")] if ">" in argv
                            else argv[1:])
    return commands


_THETA_MAPS = {
    "torus": theta_e6_torus, "u2": theta_e6_u2, "type_": theta_e7,
    "spin8": theta_e8_spin8, "spin9": theta_e8_spin9, "su2": theta_f4,
}


def _theta_of(args) -> ThetaLift:
    dest, = (d for d in _THETA_MAPS if getattr(args, d) is not None)
    value = getattr(args, dest)
    params = value if isinstance(value, tuple) else (value,)
    kw = {} if args.sign is None else {"sign": args.sign}
    return _THETA_MAPS[dest](*params, **kw)


def _module_of(args) -> QuatModule:
    return QuatModule(args.g, args.wm, args.s, "sigma" if args.sigma else "A")


def _aq_of(args) -> tuple:
    case = AqCase(args.group.upper(), args.case, args.lam)
    return case, aq_data(case)


# the JSON-printing subcommands, each with the readers README names for
# its document, the library call its argv stands for, and the writer:
# decode(document), compute(argv namespace) and encode(record)
_README_JSON = {
    "theta": (ThetaLift.from_json, _theta_of, ThetaLift.to_json),
    "ktypes": (
        KTypeLedger.from_json,
        lambda a: ktypes(_module_of(a), a.kmax),
        KTypeLedger.to_json,
    ),
    "infchar": (
        lambda d: (QuatModule.from_json(d["module"]),
                   Weight.from_json(d["inf_char"], d["system"])),
        lambda a: (_module_of(a), inf_char(_module_of(a))),
        lambda r: {"module": r[0].to_json(), "system": r[1].system,
                   "inf_char": r[1].to_json()},
    ),
    "aq": (
        lambda d: (AqCase(d["case"]["group"], d["case"]["id"],
                          d["case"]["lambda"]),
                   AqData.from_json(d["data"])),
        _aq_of,
        lambda r: {"case": {"group": r[0].group, "id": r[0].case_id,
                            "lambda": list(r[0].lam)},
                   "data": r[1].to_json()},
    ),
}


class TestReadmeExamples:
    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_documented_command_runs(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out

    def test_cli_block_is_found(self):
        assert len(_readme_commands()) >= 15
        assert {argv[0] for argv in _readme_commands()} >= set(_README_JSON)

    @pytest.mark.parametrize(
        "argv", [argv for argv in _readme_commands()
                 if argv[0] in _README_JSON], ids=" ".join)
    def test_documented_json_re_parses(self, capsys, argv):
        # the record read back is the library's own, and writes the
        # same bytes again
        code, out, _ = run(capsys, *argv)
        assert code == 0
        decode, compute, encode = _README_JSON[argv[0]]
        record = decode(json.loads(out))
        assert record == compute(cli.build_parser().parse_args(argv))
        assert json.dumps(encode(record), sort_keys=True,
                          ensure_ascii=False) + "\n" == out

    def test_theta_e6_u2(self, capsys):
        code, out, _ = run(capsys, "theta", "--ambient", "E6", "--u2", "2,1")
        assert code == 0
        assert out == \
            '{"sigma": {"G": "Spin(4,3)", "s": 7, "wm": [[0], [1]]}}\n'

    def test_branch_f4_spin9_text(self, capsys):
        code, out, _ = run(capsys, "branch", "--rule", "f4-spin9",
                           "--ab", "1,0")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        dims = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert sum(dims) == 26
        assert sorted(dims) == [1, 9, 16]

    def test_verify_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "rootdata")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())


class TestJsonContracts:
    def test_sorted_keys(self, capsys):
        _, out, _ = run(capsys, "infchar", "--g", "Spin(4,3)",
                        "--wm", "0;1", "--s", "6")
        data = json.loads(out)
        assert list(data) == sorted(data)

    def test_theta_round_trip(self, capsys):
        for args in (
            ("theta", "--ambient", "E6", "--u2", "2,1"),
            ("theta", "--ambient", "E6", "--torus", "0,0,0"),
            ("theta", "--ambient", "E6", "--u2", "1,-1"),
            ("theta", "--ambient", "E7", "--type", "1,1,3"),
            ("theta", "--ambient", "E8", "--spin9", "2,1,1,1"),
            ("theta", "--ambient", "F4", "--su2", "0"),
        ):
            code, out, _ = run(capsys, *args)
            assert code == 0
            data = json.loads(out)
            back = ThetaLift.from_json(data)
            assert json.dumps(back.to_json(), sort_keys=True) == out.strip()

    def test_ktypes_round_trip(self, capsys):
        code, out, _ = run(capsys, "ktypes", "--g", "Spin(4,3)",
                           "--wm", "0;1", "--s", "6", "--kmax", "2")
        assert code == 0
        data = json.loads(out)
        led = KTypeLedger.from_json(data)
        assert json.dumps(led.to_json(), sort_keys=True) == out.strip()

    def test_infchar_round_trip(self, capsys):
        _, out, _ = run(capsys, "infchar", "--g", "Spin(4,3)",
                        "--wm", "0;1", "--s", "6")
        data = json.loads(out)
        w = Weight.from_json(data["inf_char"], data["system"])
        assert w.twice() == (3, 2, 1)
        mod = QuatModule.from_json(data["module"])
        assert mod == QuatModule("Spin(4,3)", ((0,), (1,)), 6, "A")

    def test_aq_round_trip(self, capsys):
        code, out, _ = run(capsys, "aq", "--group", "g2", "--case", "I",
                           "--lambda=2,1,-3")
        assert code == 0
        data = json.loads(out)
        back = AqData.from_json(data["data"])
        assert json.dumps(back.to_json(), sort_keys=True) == \
            json.dumps(data["data"], sort_keys=True)

    @pytest.mark.parametrize("wm,s,expected", [
        ("3", 4, ["3/2", 1, "-5/2"]),
        ("1", 4, [1, "1/2", "-3/2"]),
        ("0", 5, ["3/2", "1/2", -2]),
    ])
    def test_g2_infchar_off_the_weight_lattice(self, capsys, wm, s, expected):
        # wm + s odd puts mu + (s/2) alpha0 + rho off the G2 weight lattice
        code, out, err = run(capsys, "infchar", "--g", "G2_2",
                             "--wm", wm, "--s", str(s))
        assert (code, err) == (0, "")
        assert json.loads(out)["inf_char"] == expected


class TestDeterminism:
    def test_theta_byte_identical(self, capsys):
        _, a, _ = run(capsys, "theta", "--ambient", "E8",
                      "--spin8", "3,2,1,0")
        _, b, _ = run(capsys, "theta", "--ambient", "E8",
                      "--spin8", "3,2,1,0")
        assert a == b

    def test_verify_byte_identical(self, capsys):
        _, a, _ = run(capsys, "verify", "--suite", "quaternionic")
        _, b, _ = run(capsys, "verify", "--suite", "quaternionic")
        assert a == b

    def test_verify_all_matches_the_golden_file(self, capsys):
        # the verify report is a contract: a change to any of its lines
        # shows up as a change to tests/golden/verify_all.txt
        code, out, _ = run(capsys, "verify", "--suite", "all")
        with open(VERIFY_ALL_GOLDEN, encoding="utf-8") as fh:
            assert (code, out) == (0, fh.read())

    def test_plot_byte_identical(self, capsys):
        args = ("plot", "--figure", "cones", "--group", "g2",
                "--lambda=2,1,-3")
        _, a, _ = run(capsys, *args)
        _, b, _ = run(capsys, *args)
        assert a == b


_KTYPES = ["ktypes", "--g", "Spin(4,3)", "--wm", "0;1", "--s", "6",
           "--kmax", "2"]


class TestOneParserPerProcess:
    def test_calls_in_one_process_match_fresh_processes(self, capsys):
        sequence = [
            _KTYPES,
            _KTYPES[:-2],  # no --kmax: usage error, 64
            ["ktypes", "--help"],
            ["ktypes", "--g", "Spin(4,4)", "--wm", "0;0", "--s", "4",
             "--kmax", "1"],  # wrong factor count: domain error, 1
            ["verify", "--suite", "e7d6"],
            _KTYPES,
        ]
        # help is wrapped to the terminal width; fix it for both sides
        env = {**ENV, "COLUMNS": "80"}
        for argv in sequence:
            with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            captured = capsys.readouterr()
            proc = subprocess.run(
                [sys.executable, "-m", "quatheta.cli", *argv],
                capture_output=True, text=True, env=env,
            )
            assert (code, captured.out, captured.err) == \
                (proc.returncode, proc.stdout, proc.stderr), argv
        assert cli.build_parser() is cli.build_parser()

    def test_import_does_not_build_the_parser(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import quatheta.cli as c; "
             "print(c.build_parser.cache_info().currsize)"],
            capture_output=True, text=True, env=ENV, check=True,
        )
        assert proc.stdout == "0\n"


class TestBranchCommand:
    def test_sp_text(self, capsys):
        code, out, _ = run(capsys, "branch", "--rule", "sp", "--lam", "2,1")
        assert code == 0
        assert out.splitlines() == [
            "(0) : (1) x1",
            "(1) : (0) x1, (2) x1",
            "(2) : (1) x1",
        ]

    def test_sp_json(self, capsys):
        code, out, _ = run(capsys, "branch", "--rule", "sp", "--lam", "2,1",
                           "--json")
        data = json.loads(out)
        assert data["rule"] == "sp"
        assert data["components"][1] == {"mu": [1], "su2": {"0": 1, "2": 1}}

    def test_spin_odd_json(self, capsys):
        code, out, _ = run(capsys, "branch", "--rule", "spin-odd",
                           "--lam", "1,1", "--json")
        data = json.loads(out)
        assert data["components"] == [
            {"mu": [0], "spin2": [[0, 1]]},
            {"mu": [1], "spin2": [[-1, 1], [0, 1], [1, 1]]},
        ]

    def test_half_integral_lam(self, capsys):
        code, out, _ = run(capsys, "branch", "--rule", "spin-odd",
                           "--lam", "3/2,1/2")
        assert code == 0
        assert "(1/2)" in out

    def test_e7_family(self, capsys):
        code, out, _ = run(capsys, "branch", "--rule", "e7-su2spin12",
                           "--k", "1")
        assert code == 0
        assert out.splitlines() == [
            "su2 (0)  spin12 (1/2,1/2,1/2,1/2,1/2,1/2)",
            "su2 (1)  spin12 (1,0,0,0,0,0)",
        ]

    def test_missing_parameter_is_domain_error(self, capsys):
        code, _, err = run(capsys, "branch", "--rule", "f4-spin9")
        assert code == 1
        assert "needs" in err

    def test_f4_spin9_json(self, capsys):
        code, out, _ = run(capsys, "branch", "--rule", "f4-spin9",
                           "--ab", "1,0", "--json")
        assert code == 0
        assert out == (
            '{"ab": [1, 0], "components": ['
            '{"dim": 9, "mult": 1, "w": [1, 0, 0, 0]}, '
            '{"dim": 16, "mult": 1, "w": ["1/2", "1/2", "1/2", "1/2"]}, '
            '{"dim": 1, "mult": 1, "w": [0, 0, 0, 0]}], '
            '"rule": "f4-spin9"}\n'
        )

    def test_e7_family_json(self, capsys):
        code, out, _ = run(capsys, "branch", "--rule", "e7-su2spin12",
                           "--k", "2", "--json")
        assert code == 0
        assert out == (
            '{"components": ['
            '{"spin12": [1, 1, 0, 0, 0, 0], "su2": 0}, '
            '{"spin12": [1, 1, 1, 1, 1, 1], "su2": 0}, '
            '{"spin12": ["3/2", "1/2", "1/2", "1/2", "1/2", "1/2"], '
            '"su2": 1}, '
            '{"spin12": [2, 0, 0, 0, 0, 0], "su2": 2}], '
            '"k": 2, "rule": "e7-su2spin12"}\n'
        )

    def test_spin_even_text(self, capsys):
        code, out, _ = run(capsys, "branch", "--rule", "spin-even",
                           "--lam", "2,1,1")
        assert code == 0
        assert out.splitlines() == [
            "(1,-1) : (-2) x1, (0) x1",
            "(1,0) : (-1) x1, (1) x1",
            "(1,1) : (0) x1, (2) x1",
            "(2,-1) : (-1) x1",
            "(2,0) : (0) x1",
            "(2,1) : (1) x1",
        ]

    def test_spin_even_json(self, capsys):
        code, out, _ = run(capsys, "branch", "--rule", "spin-even",
                           "--lam", "3/2,1/2,1/2", "--json")
        assert code == 0
        assert out == (
            '{"components": ['
            '{"mu": ["1/2", "-1/2"], "spin2": [["-3/2", 1], ["1/2", 1]]}, '
            '{"mu": ["1/2", "1/2"], "spin2": [["-1/2", 1], ["3/2", 1]]}, '
            '{"mu": ["3/2", "-1/2"], "spin2": [["-1/2", 1]]}, '
            '{"mu": ["3/2", "1/2"], "spin2": [["1/2", 1]]}], '
            '"lam": ["3/2", "1/2", "1/2"], "rule": "spin-even"}\n'
        )

    def test_e7_family_needs_k(self, capsys):
        code, out, err = run(capsys, "branch", "--rule", "e7-su2spin12")
        assert code == 1
        assert out == ""
        assert err == "error: --rule e7-su2spin12 needs --k\n"


class TestPlotCommand:
    def test_cone_figure_geometry(self, capsys):
        code, out, _ = run(capsys, "plot", "--figure", "cones",
                           "--group", "g2", "--lambda=2,1,-3")
        assert code == 0
        assert out.startswith(
            '<svg xmlns="http://www.w3.org/2000/svg" '
            'width="620" height="620"'
        )
        # apexes at (10,4), (1,7), (13,1) in lattice coordinates
        assert '<circle cx="430.00" cy="310.00" r="5" fill="#c0392b"/>' in out
        assert '<circle cx="70.00" cy="100.00" r="5" fill="#27ae60"/>' in out
        assert '<circle cx="550.00" cy="520.00" r="5" fill="#2980b9"/>' in out
        # lambda markers as open circles
        assert ('<circle cx="190.00" cy="450.00" r="5" fill="none" '
                'stroke="#c0392b" stroke-width="2"/>') in out
        assert out.count('r="2"') == 135  # 15 x 9 lattice dots

    def test_vertical_scale_is_seven_fourths(self, capsys):
        _, out, _ = run(capsys, "plot", "--figure", "cones",
                        "--group", "g2", "--lambda=2,1,-3")
        # one lattice step: x pitch 40 px, y pitch 70 px
        assert '<circle cx="70.00" cy="590.00" r="2"' in out
        assert '<circle cx="30.00" cy="520.00" r="2"' in out

    def test_lattice_only_when_lambda_omitted(self, capsys):
        code, out, _ = run(capsys, "plot", "--figure", "cones",
                           "--group", "g2")
        assert code == 0
        assert out.count('r="2"') == 135
        assert 'r="5"' not in out
        assert "<line" not in out

    def test_pu21_region_clips_lattice(self, capsys):
        _, out, _ = run(capsys, "plot", "--figure", "cones",
                        "--group", "pu21", "--lambda=1,1,-2")
        assert out.count("<line") == 7  # one cone degenerates to a ray

    @pytest.mark.parametrize("group,lam,labels,lines,apexes", [
        ("g2", "2,0,-2", ["IIa.1", "IIa.2", "IIa.3", "IIb"], 8,
         [("110.00", "100.00"), ("230.00", "170.00"),
          ("350.00", "240.00"), ("510.00", "520.00")]),
        ("pu21", "3,1,-4", ["I", "II", "III"], 6,
         [("630.00", "100.00"), ("70.00", "100.00"), ("790.00", "380.00")]),
        ("pu21", "4,-2,-2", ["IIa.1", "IIa.2", "IIa.3", "IIb"], 7,
         [("150.00", "100.00"), ("70.00", "100.00"),
          ("230.00", "100.00"), ("550.00", "660.00")]),
    ])
    def test_sibling_sets(self, capsys, group, lam, labels, lines, apexes):
        code, out, _ = run(capsys, "plot", "--figure", "cones",
                           "--group", group, f"--lambda={lam}")
        assert code == 0
        assert re.findall(r'font-size="14">([^<]*)</text>', out) == labels
        assert out.count("<line") == lines
        assert re.findall(
            r'<circle cx="([0-9.]+)" cy="([0-9.]+)" r="5" fill="#', out
        ) == apexes

    def test_ledger_figure(self, capsys):
        code, out, _ = run(capsys, "plot", "--figure", "ledger",
                           "--g", "Spin(4,3)", "--wm", "0;1", "--s", "6",
                           "--kmax", "3")
        assert code == 0
        assert out.count("<rect") == 1 + 4  # background + one bar per level
        assert ">10<" in out and ">896<" in out  # level dims annotate bars

    @pytest.mark.parametrize("argv,message", [
        (["cones"], "--figure cones needs --group"),
        (["ledger", "--g", "Spin(4,3)"], "--figure ledger needs --wm"),
        (["cones", "--group", "g2", "--lambda=1,1,1"],
         "lambda must sum to zero"),
        # admissible lambdas of other cases: a case-II lambda (of the
        # 2,1,-3 figure) and Ib wall points
        (["cones", "--group", "g2", "--lambda=3,-1,-2"],
         "lambda (3, -1, -2) is neither a first-chamber point nor an "
         "Ia/IIa wall point of G2"),
        (["cones", "--group", "g2", "--lambda=2,-1,-1"],
         "lambda (2, -1, -1) is neither a first-chamber point nor an "
         "Ia/IIa wall point of G2"),
        (["cones", "--group", "pu21", "--lambda=1,-2,1"],
         "lambda (1, -2, 1) is neither a first-chamber point nor an "
         "Ia/IIa wall point of PU21"),
    ])
    def test_refusals(self, capsys, argv, message):
        code, out, err = run(capsys, "plot", "--figure", *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


class TestKtypesCommand:
    def test_env_cap_bites(self, capsys, monkeypatch):
        # V_M = (1) (x) (2) of Spin(4,3) has dimension 6
        monkeypatch.setenv("QUATHETA_DIM_CAP", "5")
        code, out, err = run(capsys, "ktypes", "--g", "Spin(4,3)", "--wm",
                             "0;0", "--s", "4", "--kmax", "1")
        assert code == 1
        assert out == ""
        assert "exceeds oracle cap 5" in err

    @pytest.mark.parametrize("raw", ["abc", "0", "-3"])
    def test_bad_env_cap_names_the_setting(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("QUATHETA_DIM_CAP", raw)
        code, out, err = run(capsys, "ktypes", "--g", "Spin(4,3)", "--wm",
                             "0;0", "--s", "4", "--kmax", "1")
        assert code == 1
        assert out == ""
        assert err == ("error: QUATHETA_DIM_CAP must be a positive integer, "
                       f"not {raw!r}\n")

    def test_e8_4_ledger_reaches_level_two(self, capsys):
        # M = E7 and V_M = 56: level k holds S^k(56), of dimension C(k+55, k)
        code, out, _ = run(capsys, "ktypes", "--g", "E8_4", "--wm",
                           "0,0,0,0,0,0,0,0", "--s", "4", "--kmax", "2")
        assert code == 0
        ledger = KTypeLedger.from_json(json.loads(out))
        assert [dec.dimension() for _, dec in ledger] == [1, 56, 1596]

    def test_e8_4_ledger_level_three_hits_the_cap(self, capsys):
        # S^3(56) holds the 24320-dimensional irrep of E7
        code, out, err = run(capsys, "ktypes", "--g", "E8_4", "--wm",
                             "0,0,0,0,0,0,0,0", "--s", "4", "--kmax", "3")
        assert code == 1
        assert out == ""
        assert err == "error: dim 24320 exceeds oracle cap 20000\n"

    def test_e8_4_refuses_an_m_type_off_the_root_span(self, capsys):
        # every simple-coroot pairing of (0,...,0,1/2,1/2) is 0, but E7's
        # roots span x7 + x8 = 0: the weight is no M-type
        code, out, err = run(capsys, "ktypes", "--g", "E8_4", "--wm",
                             "0,0,0,0,0,0,1/2,1/2", "--s", "4", "--kmax", "1")
        assert (code, out) == (1, "")
        assert err == ("error: Weight(0, 0, 0, 0, 0, 0, 1/2, 1/2; E7) is not "
                       "in the weight lattice of E7: it must lie in the root "
                       "span x7 + x8 = 0\n")

    def test_cap_is_checked_before_any_level(self, capsys, monkeypatch):
        # level 3's Cartan component is refused before any level product
        # runs: every level past W takes the Klimyk kernel
        def no_level(*args, **kwargs):
            raise AssertionError("a level computed before the cap check")

        monkeypatch.setattr(_SysData, "sign_and_chamber", no_level)
        code, out, err = run(capsys, "ktypes", "--g", "E8_4", "--wm",
                             "0,0,0,0,0,0,0,0", "--s", "4", "--kmax", "3")
        assert code == 1
        assert out == ""
        assert err == "error: dim 24320 exceeds oracle cap 20000\n"

    @pytest.mark.parametrize("wm,kmax,cap,dim", [
        # a level's largest irreducible is not always its Cartan component
        ("0,0,0", 4, 1001, 1078),
        # of two refused irreducibles, the one of greater rho-pairing
        # (2184) is named, not the larger (2240)
        ("2,2,1", 2, 2002, 2184),
    ])
    def test_each_irreducible_of_a_level_is_capped(self, capsys, monkeypatch,
                                                   wm, kmax, cap, dim):
        monkeypatch.setenv("QUATHETA_DIM_CAP", str(cap))
        code, out, err = run(capsys, "ktypes", "--g", "F4_4", "--wm", wm,
                             "--s", "4", "--kmax", str(kmax))
        assert code == 1
        assert out == ""
        assert err == f"error: dim {dim} exceeds oracle cap {cap}\n"

    def test_cap_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ktypes", "--g", "Spin(4,3)", "--wm", "0;0", "--s", "4",
                  "--kmax", "1", "--cap", "5"])
        assert exc.value.code == 64

    def test_sigma_flag(self, capsys):
        _, out, _ = run(capsys, "ktypes", "--g", "Spin(4,3)", "--wm", "0;0",
                        "--s", "4", "--kmax", "0", "--sigma")
        assert json.loads(out)["module"]["quotient"] is True

    # one ledger per family of M: SU(2)^3, SU(2), SU(2) x Spin(3), Sp(3),
    # SU(6) and Spin(12); each golden is the stdout of its argv at --s 4
    @pytest.mark.parametrize("name,g,wm,kmax", [
        ("ktypes_spin44_0_0_0_k11.json", "Spin(4,4)", "0;0;0", 11),
        ("ktypes_g22_16_k4.json", "G2_2", "16", 4),
        ("ktypes_spin43_3_2_k3.json", "Spin(4,3)", "3;2", 3),
        ("ktypes_f44_0_0_0_k3.json", "F4_4", "0,0,0", 3),
        ("ktypes_e64_0_k2.json", "E6_4", "0,0,0,0,0,0", 2),
        ("ktypes_e74_0_k2.json", "E7_4", "0,0,0,0,0,0", 2),
    ])
    def test_ledger_matches_its_golden(self, capsys, name, g, wm, kmax):
        code, out, err = run(capsys, "ktypes", "--g", g, "--wm", wm,
                             "--s", "4", "--kmax", str(kmax))
        assert (code, err) == (0, "")
        path = os.path.join(os.path.dirname(__file__), "golden", name)
        with open(path) as f:
            golden = f.read()
        assert out == golden
        # the golden decodes to the library's ledger and re-encodes to
        # the same bytes
        back = KTypeLedger.from_json(json.loads(golden))
        assert back == ktypes(QuatModule(g, cli._wm(wm), 4), kmax)
        assert json.dumps(back.to_json(), sort_keys=True,
                          ensure_ascii=False) + "\n" == golden


class TestErrorsReachTheUserAsOneLine:
    @pytest.mark.parametrize("argv", [
        # off-lattice M-types
        ["ktypes", "--g", "Spin(4,3)", "--wm", "1/2;1", "--s", "6",
         "--kmax", "2"],
        ["ktypes", "--g", "F4_4", "--wm", "1/2,1/2,1/2", "--s", "6",
         "--kmax", "2"],
        ["infchar", "--g", "Spin(4,3)", "--wm", "1/2;1", "--s", "6"],
        # M factors without torus data
        ["infchar", "--g", "E6_4", "--wm", "0,0,0,0,0,0", "--s", "4"],
        ["infchar", "--g", "F4_4", "--wm", "0,0,0", "--s", "4"],
        # wrong arity for the ambient's source type
        ["theta", "--ambient", "E6", "--torus", "1,2"],
        ["theta", "--ambient", "E6", "--u2", "1,2,3"],
        ["theta", "--ambient", "E7", "--type", "1,1"],
        ["theta", "--ambient", "E8", "--spin8", "1,1,1"],
        ["theta", "--ambient", "E8", "--spin9", "1,1,1,1,1"],
        ["branch", "--rule", "f4-spin9", "--ab", "1"],
        ["plot", "--figure", "cones", "--group", "g2", "--lambda=1,2"],
        ["aq", "--group", "g2", "--case", "I", "--lambda=1,1"],
    ])
    def test_exit_code_without_traceback(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "quatheta.cli", *argv],
            capture_output=True, text=True, env=ENV,
        )
        assert proc.returncode in (1, 64)
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr

    def test_off_lattice_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "infchar", "--g", "Spin(4,3)",
                           "--wm", "1/2;1", "--s", "6")
        assert code == 1
        assert "weight lattice" in err

    def test_arity_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["theta", "--ambient", "E6", "--torus", "1,2"])
        assert exc.value.code == 64
        assert "expected 3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["plot", "--figure", "cones", "--group", "g2", "--lambda=1,2"],
        ["aq", "--group", "g2", "--case", "I", "--lambda=1,1"],
    ])
    def test_lambda_arity_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        assert "expected 3" in capsys.readouterr().err


class TestVerifyCounts:
    def test_seesaw_comparing_nothing_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "seesaw",
                           "--max-entry", "0")
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 8
        assert all(line.startswith("FAIL seesaw:") for line in lines)
        assert all(line.endswith("(0 K-types compared) (no cases compared)")
                   for line in lines)

    def test_appendix_negative_bound_is_refused(self, capsys):
        code, out, err = run(capsys, "verify", "--suite",
                             "appendix-branching", "--max-entry", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: max-entry must be >= 0, got -1\n"

    def test_infchar_negative_bound_is_refused(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "infchar",
                             "--max-entry", "-1")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_run_suite_refuses_negative_bound(self):
        with pytest.raises(ValueError, match="max-entry must be >= 0"):
            quatheta.run_suite("all", -1)

    def test_filtration_comparing_nothing_fails(self, capsys, monkeypatch):
        # an emptied enumeration: every range() in the suites yields nothing
        monkeypatch.setattr(verify, "range", lambda *a: (), raising=False)
        code, out, _ = run(capsys, "verify", "--suite", "filtration")
        assert code == 2
        assert out == (
            "FAIL filtration: level filtration of (0,b,a) modules matches "
            "the displayed sum on 0 cases (b <= 3, a <= 6, level <= 3) "
            "(no cases compared)\n"
        )

    def test_surjectivity_comparing_nothing_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "range", lambda *a: (), raising=False)
        code, out, _ = run(capsys, "verify", "--suite", "surjectivity")
        assert code == 2
        assert out.splitlines() == [
            "PASS surjectivity: multiplication-map surjectivity fails for "
            "n = 0, 1",
            "FAIL surjectivity: multiplication map has full rank 3(n+2) for "
            "2 <= n <= 30 (no cases compared)",
        ]

    def test_record_with_no_cases_fails(self, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "fake",
                            lambda max_entry: [("nothing", 0, True)])
        assert verify.run_suite("fake") == (
            ["FAIL fake: nothing (no cases compared)"], False
        )

    def test_infchar_empty_torus_range_fails(self, capsys):
        # at bound 0 only (a, b) = (0, 0) is in range, and it is excluded
        code, out, _ = run(capsys, "verify", "--suite", "infchar",
                           "--max-entry", "0")
        assert code == 2
        lines = out.splitlines()
        assert [line[:4] for line in lines] == ["PASS"] * 4 + ["FAIL"]
        assert "cyclic torus lifts" in lines[-1]


# ---------------------------------------------------------------------------
# fuzzed argv: the exit-code contract holds for any command line

_NUM = st.sampled_from(
    ["0", "0", "0", "1", "1", "2", "3", "-1", "1/2", "3/2", "5/2", "-1/2"]
)
_JUNK = st.sampled_from(["x", "", " ", "1/3", "1/0", "1.5", "+", "1,,2"])
_MOSTLY = st.sampled_from([True] * 7 + [False])


def _csv(n: int):
    return st.lists(_NUM, min_size=n, max_size=n).map(",".join)


def _ints(n: int, lo: int, hi: int):
    return st.lists(st.integers(lo, hi), min_size=n, max_size=n).map(
        lambda xs: ",".join(map(str, xs))
    )


def _int(lo: int, hi: int):
    return st.sampled_from([str(i) for i in range(hi, lo - 1, -1)])


# M-type shape per group: coordinates per factor
_WM_SHAPES = {
    "Spin(4,3)": (1, 1), "Spin(4,4)": (1, 1, 1), "G2_2": (1,),
    "F4_4": (3,), "E6_4": (6,), "E7_4": (6,), "E8_4": (8,),
}
_THETA_SOURCES = {
    "--torus": _ints(3, -3, 3), "--u2": _ints(2, -3, 3),
    "--type": _ints(3, -1, 4), "--spin8": _csv(4), "--spin9": _csv(4),
    "--su2": _int(-1, 6),
}


@st.composite
def _argv(draw):
    """A command line of one of the fuzzed subcommands: mostly well-formed
    flags with values near the valid range, sometimes a flag left out,
    a junk value or an extra theta source.  Ledgers stay at kmax <= 2."""
    sub = draw(st.sampled_from(["aq", "branch", "infchar", "ktypes", "theta"]))
    if sub == "branch":
        opts = {
            "--rule": st.sampled_from(
                ["sp", "spin-odd", "spin-even", "f4-spin9", "e7-su2spin12"]
            ),
            "--lam": st.integers(1, 4).flatmap(_csv),
            "--ab": _ints(2, -1, 4), "--k": _int(-1, 5), "--json": None,
        }
    elif sub == "theta":
        sources = draw(st.lists(
            st.sampled_from(sorted(_THETA_SOURCES)), min_size=1, max_size=2
        ))
        opts = {
            "--ambient": st.sampled_from(["E6", "E7", "E8", "F4"]),
            **{f: _THETA_SOURCES[f] for f in sources},
            "--sign": st.sampled_from(["+", "-"]),
        }
    elif sub == "aq":
        opts = {
            "--group": st.sampled_from(["g2", "pu21"]),
            "--case": st.sampled_from([
                "I", "II", "III", "Ia.1", "Ia.2", "Ia.3", "Ib", "IIa.1",
                "IIa.2", "IIa.3", "IIb",
            ]),
            "--lambda": _ints(3, -4, 4),
        }
    else:
        g = draw(st.sampled_from(sorted(_WM_SHAPES)))
        opts = {
            "--g": st.just(g),
            "--wm": st.tuples(*map(_csv, _WM_SHAPES[g])).map(";".join),
            "--s": _int(1, 8), "--sigma": None,
        }
        if sub == "ktypes":
            opts["--kmax"] = _int(-1, 2)
    argv = [sub]
    for flag, values in opts.items():
        if values is None or flag == "--sign":  # optional flags
            if draw(st.booleans()):
                argv.append(flag if values is None else
                            f"{flag}={draw(values)}")
            continue
        if not draw(_MOSTLY):
            continue
        junk = flag != "--kmax" and not draw(_MOSTLY)
        argv.append(f"{flag}={draw(_JUNK if junk else values)}")
    return argv


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_argv())
def test_fuzzed_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"QUATHETA_DIM_CAP": "2000"}):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 64), argv
    assert "Traceback" not in err.getvalue()
