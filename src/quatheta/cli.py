"""Batch query front-end.

Subcommands: branch, theta, ktypes, infchar, aq, verify, plot.  JSON
output is UTF-8 with sorted keys; identical argv produces byte-identical
output.  Exit codes: 0 success, 1 domain error, 2 verification failure,
64 usage error, 70 internal failure (one line on stderr, no traceback),
141 stdout closed by its reader (128 + SIGPIPE, as for `| head`; nothing
is printed).
The environment variable QUATHETA_DIM_CAP bounds the dimension the
character oracle is willing to expand (default 20000).

main(argv) may be called repeatedly in one process: the parser is built
on the first call and reused, since argparse keeps no state between
parses (each returns a fresh Namespace; help is formatted at print time).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .rootdata import HalfInt, _twice_json
from .charoracle import OracleCapError, irrep, weyl_dim
from .branchrules import (
    branch_sp,
    branch_spin_even,
    branch_spin_odd,
    f4_to_spin9_table,
    restrict_e7_to_su2_spin12,
)
from .quaternionic import QuatModule, inf_char, ktypes
from .thetamaps import (
    theta_e6_torus,
    theta_e6_u2,
    theta_e7,
    theta_e8_spin8,
    theta_e8_spin9,
    theta_f4,
)
from .aqmodules import AqCase, aq_data
from .svg import _svg_cones, _svg_ledger
from .verify import SUITE_ORDER, run_suite


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(64)


def _coords(s: str) -> tuple:
    return tuple(map(HalfInt.parse, s.split(",")))


def _ints(s: str) -> tuple:
    return tuple(int(x) for x in s.split(","))


def _arity(parse, n: int):
    """argparse type: parse a comma-separated tuple and require exactly n
    entries, so a wrong count is a usage error."""
    def typed(s: str) -> tuple:
        t = parse(s)
        if len(t) != n:
            raise argparse.ArgumentTypeError(
                f"expected {n} comma-separated values, got {len(t)}"
            )
        return t

    typed.__name__ = parse.__name__  # argparse names it in "invalid ... value"
    return typed


def _wm(s: str) -> tuple:
    return tuple(tuple(map(HalfInt.parse, f.split(","))) for f in s.split(";"))


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, ensure_ascii=False))


def _coords_json(w) -> list:
    return _twice_json(c.twice for c in w)


def _fmt_tuple(t) -> str:
    return "(" + ",".join(str(c) for c in t) + ")"


# ---------------------------------------------------------------------------
# branch


def _cmd_branch(args) -> int:
    # each rule builds its parameter's JSON key and value, the JSON
    # components and the text lines
    rule = args.rule
    if rule == "f4-spin9":
        if args.ab is None:
            raise ValueError("--rule f4-spin9 needs --ab a,b")
        a, b = args.ab
        key, value = "ab", [a, b]
        comps = [
            {"w": _coords_json(w), "mult": m,
             "dim": weyl_dim(irrep("B4", w))}
            for w, m in sorted(f4_to_spin9_table(a, b).items(), reverse=True)
        ]
        lines = [
            f"{_fmt_tuple(c['w'])} x{c['mult']} dim {c['dim']}" for c in comps
        ]
    elif rule == "e7-su2spin12":
        if args.k is None:
            raise ValueError("--rule e7-su2spin12 needs --k")
        rows = restrict_e7_to_su2_spin12(args.k)
        key, value = "k", args.k
        comps = [{"su2": m, "spin12": w.to_json()} for m, w in rows]
        lines = [f"su2 ({m})  spin12 {_fmt_tuple(w.coords)}" for m, w in rows]
    else:
        if args.lam is None:
            raise ValueError(f"--rule {rule} needs --lam")
        key, value = "lam", _coords_json(args.lam)
        if rule == "sp":
            comps = [
                {"mu": _coords_json(mu),
                 "su2": {str(k): m for k, m in sorted(cg.items())}}
                for mu, cg in sorted(branch_sp(args.lam).items())
            ]
            terms = [c["su2"].items() for c in comps]
        else:
            fn = branch_spin_odd if rule == "spin-odd" else branch_spin_even
            comps = [
                {"mu": _coords_json(mu),
                 "spin2": [[*_twice_json((t,)), m] for t, m in mod.entries]}
                for mu, mod in sorted(fn(args.lam).items())
            ]
            terms = [c["spin2"] for c in comps]
        lines = [
            f"{_fmt_tuple(c['mu'])} : "
            + ", ".join(f"({w}) x{m}" for w, m in ts)
            for c, ts in zip(comps, terms)
        ]
    if args.json:
        _print_json({"rule": rule, key: value, "components": comps})
    else:
        for line in lines:
            print(line)
    return 0


# ---------------------------------------------------------------------------
# theta


# source flag -> (argparse dest, ambient, lift, takes --sign), in the order
# the flags are looked for
_THETA_SOURCES = {
    "torus": ("torus", "E6", theta_e6_torus, True),
    "u2": ("u2", "E6", theta_e6_u2, True),
    "type": ("type_", "E7", theta_e7, False),
    "spin8": ("spin8", "E8", theta_e8_spin8, False),
    "spin9": ("spin9", "E8", theta_e8_spin9, False),
    "su2": ("su2", "F4", theta_f4, True),
}


def _cmd_theta(args) -> int:
    given = [src for src, (dest, *_) in _THETA_SOURCES.items()
             if getattr(args, dest) is not None]
    if len(given) != 1:
        raise ValueError("give exactly one source type for the ambient group")
    src = given[0]
    dest, amb, lift_of, signed = _THETA_SOURCES[src]
    if amb != args.ambient:
        raise ValueError(f"--{src} does not apply to ambient {args.ambient}")
    value = getattr(args, dest)
    params = value if isinstance(value, tuple) else (value,)
    if signed:
        lift = lift_of(*params, sign=args.sign)
    elif args.sign is not None:
        raise ValueError(f"--sign does not apply to ambient {amb}")
    else:
        lift = lift_of(*params)
    _print_json(lift.to_json())
    return 0


# ---------------------------------------------------------------------------
# ktypes / infchar


def _module_from_args(args) -> QuatModule:
    kind = "sigma" if args.sigma else "A"
    return QuatModule(args.g, args.wm, args.s, kind)


def _cmd_ktypes(args) -> int:
    mod = _module_from_args(args)
    led = ktypes(mod, args.kmax)
    _print_json(led.to_json())
    return 0


def _cmd_infchar(args) -> int:
    mod = _module_from_args(args)
    w = inf_char(mod)
    _print_json({
        "module": mod.to_json(), "system": w.system, "inf_char": w.to_json(),
    })
    return 0


# ---------------------------------------------------------------------------
# aq


_GROUPS = {"g2": "G2", "pu21": "PU21"}


def _cmd_aq(args) -> int:
    group = _GROUPS[args.group]
    case = AqCase(group, args.case, args.lam)
    data = aq_data(case)
    _print_json({
        "case": {"group": group, "id": args.case, "lambda": list(args.lam)},
        "data": data.to_json(),
    })
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    lines, ok = run_suite(args.suite, args.max_entry)
    for line in lines:
        print(line)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# plot


def _cmd_plot(args) -> int:
    if args.figure == "cones":
        if args.group is None:
            raise ValueError("--figure cones needs --group")
        sys.stdout.write(_svg_cones(_GROUPS[args.group], args.lam))
        return 0
    for flag in ("g", "wm", "s", "kmax"):  # --figure ledger
        if getattr(args, flag) is None:
            raise ValueError(f"--figure ledger needs --{flag}")
    led = ktypes(_module_from_args(args), args.kmax)
    sys.stdout.write(_svg_ledger(led))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_module_flags(p, required=True):
    p.add_argument("--g", required=required,
                   help='group label, e.g. "Spin(4,3)"')
    p.add_argument("--wm", type=_wm, required=required,
                   help='M-type per factor, e.g. "1;2" or "1,1,0,0,0,0"')
    p.add_argument("--s", type=int, required=required,
                   help="outer parameter s")
    p.add_argument("--sigma", action="store_true",
                   help="take the irreducible quotient")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quatheta",
        description="Branching, theta-lift, and K-type queries for "
                    "quaternionic exceptional groups.",
        epilog="QUATHETA_DIM_CAP caps the dimensions the character oracle "
               "will expand (default 20000).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("branch", parents=[], help="closed-form branching")
    p.add_argument("--rule", required=True,
                   choices=("sp", "spin-odd", "spin-even", "f4-spin9",
                            "e7-su2spin12"))
    p.add_argument("--lam", type=_coords, default=None,
                   help="dominant weight, e.g. 2,1 or 3/2,1/2")
    p.add_argument("--ab", type=_arity(_ints, 2), default=None,
                   help="f4-spin9 parameters a,b")
    p.add_argument("--k", type=int, default=None,
                   help="e7-su2spin12 level k")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=_cmd_branch)

    p = sub.add_parser("theta", help="theta-correspondence parameter maps")
    p.add_argument("--ambient", required=True,
                   choices=("E6", "E7", "E8", "F4"))
    p.add_argument("--torus", type=_arity(_ints, 3), default=None,
                   help="E6: torus character a,b,c (use --torus=-1,0,1 "
                        "for a leading minus)")
    p.add_argument("--u2", type=_arity(_ints, 2), default=None,
                   help="E6: U(2) type a,b")
    p.add_argument("--type", dest="type_", type=_arity(_ints, 3), default=None,
                   help="E7: Sp(2) x Sp(1) type a,b,c")
    p.add_argument("--spin8", type=_arity(_coords, 4), default=None,
                   help="E8: Spin(8) weight a,b,c,d")
    p.add_argument("--spin9", type=_arity(_coords, 4), default=None,
                   help="E8: Spin(9) weight a,b,c,d")
    p.add_argument("--su2", type=int, default=None, help="F4: SU(2) label n")
    p.add_argument("--sign", choices=("+", "-"), default=None,
                   help="select one member of a split pair")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("ktypes", help="K-type ledger of A(G, W[s])")
    _add_module_flags(p)
    p.add_argument("--kmax", type=int, required=True, help="highest level")
    p.set_defaults(func=_cmd_ktypes)

    p = sub.add_parser("infchar", help="infinitesimal character of A(G, W[s])")
    _add_module_flags(p)
    p.set_defaults(func=_cmd_infchar)

    p = sub.add_parser("aq", help="cohomologically induced module data")
    p.add_argument("--group", required=True, choices=("g2", "pu21"))
    p.add_argument("--case", required=True,
                   help="case id: I, II, III, Ia.1..Ia.3, Ib, "
                        "IIa.1..IIa.3, IIb")
    p.add_argument("--lambda", dest="lam", type=_arity(_ints, 3),
                   required=True,
                   help="sum-zero parameter a,b,c (use --lambda=2,1,-3)")
    p.set_defaults(func=_cmd_aq)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("--suite", required=True,
                   choices=SUITE_ORDER + ("all",))
    p.add_argument("--max-entry", type=int, default=None,
                   help="enumeration bound, >= 0, read by "
                        "appendix-branching (weight entries, default 2), "
                        "infchar (parameters, default 6) and seesaw "
                        "(outer label, default 16)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("plot", help="deterministic SVG figures")
    p.add_argument("--figure", required=True, choices=("cones", "ledger"))
    p.add_argument("--group", choices=("g2", "pu21"), default=None,
                   help="cones: dual-pair member")
    p.add_argument("--lambda", dest="lam", type=_arity(_ints, 3), default=None,
                   help="cones: parameter a,b,c; omit for a bare lattice")
    _add_module_flags(p, required=False)
    p.add_argument("--kmax", type=int, default=None,
                   help="ledger: highest level")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone (`| head`): not a fault.  Point stdout at
        # devnull so that the interpreter's final flush is silent too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OracleCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # EX_SOFTWARE: a fault of quatheta, not the input
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
