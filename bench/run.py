"""Benchmark of quatheta: cold passes over seeded workloads, checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload oracle-branching --seed 1 \
        --seconds 30 --trace 0

A run compiles the package's bytecode into .bench_out/ once, then
repeats a pass of the workload's operations for about --seconds seconds.
Each pass is a fresh worker interpreter (bench/worker.py), one at a time,
with the inherited PYTHON* variables cleared and the hash seed fixed.
run.py sends the next operation only after the previous one
returned (closed loop, one client) and checks every output, with the
benchmark's own reference computations (bench/checks.py), after the
passes.  The last line of stdout is one JSON object: correct, attempted,
failed and metrics.

--trace 0 reports the end-to-end metrics:
  setup_s      CPU seconds of `import quatheta, quatheta.cli` in a fresh
               worker (bytecode cached), median over the run's workers;
  solve_s      sum over operations of each one's median CPU time across
               passes;
  op_p50_ms    median over operations of those per-operation medians;
  peak_rss_mb  worker peak resident set, median over passes.
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (bench/tracer.py), the per-module
import times from `python -X importtime`, and the tracing overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
from workloads import WORKLOADS, make_ops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
MIN_PASSES = 3  # untraced passes; a traced run adds as many traced ones
SETUP_PROBES = 4  # extra fresh workers that only import, for setup_s
IMPORT_PROBES = 5
PASS_TIMEOUT = 120

MODULES = ("rootdata", "charoracle", "branchrules", "quaternionic",
           "thetamaps", "aqmodules", "verify", "cli")
SPAN_SELF = ("charoracle.char_weights", "charoracle.strip_dominant",
             "charoracle.convolve", "charoracle.restrict",
             "charoracle.weyl_dim", "quaternionic.ktypes",
             "quaternionic.check_lemma_surjectivity", "quaternionic.inf_char",
             "cli.main")
SPAN_CALLS = ("charoracle.char_weights", "charoracle.strip_dominant",
              "charoracle.weyl_dim")
MODULE_SPANS = ("branchrules", "thetamaps", "aqmodules", "rootdata")


def worker_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    return env


ENV = worker_env()


def build():
    """Compile the package and the worker into the benchmark's own
    bytecode cache, then run one untimed worker so that the standard
    library modules it imports are cached there too."""
    os.makedirs(OUT, exist_ok=True)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q",
         os.path.join(SRC, "quatheta"), HERE],
        env=ENV, check=True, stdout=subprocess.DEVNULL,
    )
    run_pass([], trace=False)


def run_pass(ops, trace):
    """One fresh worker runs every operation in order; returns
    (setup_s, [reply per op], final reply)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), SRC,
           "1" if trace else "0"]
    with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True, env=ENV, cwd=ROOT) as p:
        try:
            def read():
                line = p.stdout.readline()
                if not line:
                    raise RuntimeError("worker exited before answering")
                return json.loads(line)

            setup = read()["setup_s"]
            replies = []
            for op in ops:
                p.stdin.write(json.dumps([op["kind"], op["args"]]) + "\n")
                p.stdin.flush()
                replies.append(read())
            p.stdin.write("end\n")
            p.stdin.flush()
            final = read()
            p.stdin.close()
            p.wait(timeout=PASS_TIMEOUT)
        finally:
            if p.poll() is None:
                p.kill()
                p.wait()
    return setup, replies, final


def import_times():
    """Median self time (s) per module from `python -X importtime`."""
    code = (f"import sys; sys.path.insert(0, {SRC!r}); "
            "import quatheta, quatheta.cli")
    samples = {m: [] for m in MODULES}
    for _ in range(IMPORT_PROBES):
        res = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            env=ENV, check=True, capture_output=True, text=True,
        )
        for line in res.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2].strip()
            if name.startswith("quatheta."):
                mod = name[len("quatheta."):]
                if mod in samples:
                    samples[mod].append(int(parts[0].split(":")[1]) / 1e6)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


# ---------------------------------------------------------------------------
# checks


def closed_form(label, twice, emb):
    """The program's closed-form table for a restriction, in the shape
    of checks.oracle_table (computed after the passes, untimed)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from quatheta import branchrules
    from quatheta.rootdata import HalfInt

    lam = tuple(HalfInt(t) for t in twice)
    if emb == "F4>B4":
        b = twice[1]
        table = {
            tuple(c.twice for c in w): m
            for w, m in branchrules.f4_to_spin9_table((twice[0] - b) // 2, b)
            .items()
        }
    elif label[0] == "C":
        table = {
            tuple(c.twice for c in mu): {2 * k: m for k, m in cg.items() if m}
            for mu, cg in branchrules.branch_sp(lam).items()
        }
    else:
        rule = (branchrules.branch_spin_odd if label[0] == "B"
                else branchrules.branch_spin_even)
        table = {
            tuple(c.twice for c in mu): dict(mod.entries)
            for mu, mod in rule(lam).items()
        }
    return {k: v for k, v in table.items() if v}


def check_op(op, out, ref_out):
    kind, args = op["kind"], op["args"]
    if kind == "restrict":
        return checks.check_restrict(args, out, closed_form(*args))
    if kind == "ktypes":
        return checks.check_ktypes(args, out,
                                   checks.ktypes_reference(args[0]))
    if kind in ("theta_e6_torus", "theta_e6_u2"):
        return checks.check_pair_equal(args, out, ref_out)
    if kind == "cone_contains":
        return checks.check_cone_contains(args, out, ref_out)
    if kind == "cone_rays":
        return checks.check_cone_rays(args, out, ref_out)
    simple = {
        "branch_sp": checks.check_branch_sp,
        "branch_spin_odd": lambda a, o: checks.check_branch_spin(a, o, True),
        "branch_spin_even": lambda a, o: checks.check_branch_spin(a, o, False),
        "f4_table": checks.check_f4_table,
        "e7_rows": checks.check_e7_rows,
        "infchar": checks.check_true,
        "aq": checks.check_aq,
        "theta_unitary": checks.check_theta_unitary,
        "surjectivity": checks.check_surjectivity,
    }
    return simple[kind](args, out)


def settle(ops, first, replies):
    """Counts the failed operations of a pass and checks that its outputs
    equal the first pass's; drops the outputs, which are no longer
    needed.  Returns (failed, mismatches)."""
    failed = mismatches = 0
    for i, (r, f) in enumerate(zip(replies, first)):
        if "error" in r:
            failed += 1
            print(f"op {i} {ops[i]['kind']} {ops[i]['args']} failed: "
                  f"{r['error']}", file=sys.stderr)
        elif r.get("out") != f.get("out"):
            mismatches += 1
            print(f"op {i} output differs between passes", file=sys.stderr)
        if r is not f:
            r.pop("out", None)
    return failed, mismatches


def check_outputs(ops, first):
    """Runs the checks on the first pass's outputs; returns the number
    of operations whose output failed them."""
    outs = [r.get("out") for r in first]
    bad = 0
    for i, (op, out) in enumerate(zip(ops, outs)):
        ref = outs[op["ref"]] if op["ref"] is not None else None
        if out is None or (op["ref"] is not None and ref is None):
            continue  # failed, or its twin failed: counted by settle
        problems = check_op(op, out, ref)
        if problems:
            bad += 1
            print(f"op {i} {op['kind']} {op['args']}: {'; '.join(problems)}",
                  file=sys.stderr)
    return bad


# ---------------------------------------------------------------------------
# metrics


def op_medians(passes):
    per_op = zip(*(replies for _, replies, _ in passes))
    return [statistics.median(r["cpu"] for r in rs) for rs in per_op]


def end_to_end(passes, setups):
    meds = op_medians(passes)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (sum(meds), "s"),
        "op_p50_ms": (statistics.median(meds) * 1000, "ms"),
        "peak_rss_mb": (statistics.median(
            final["rss_kb"] / 1024 for _, _, final in passes), "MB"),
    }


def layer_values(summary):
    self_s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]
    out = {}
    for name in SPAN_SELF:
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in SPAN_CALLS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for mod in MODULE_SPANS:
        names = [n for n in self_s if n.startswith(mod + ".")]
        out[f"{mod}.self_s"] = (sum(self_s[n] for n in names), "s")
        out[f"{mod}.calls"] = (sum(calls[n] for n in names), "count")
    for name, value in counts.items():
        out[name] = (value, "count")
    cw = calls.get("charoracle.char_weights", 0)
    out["charoracle.char_weights.fresh_ratio"] = (
        counts["charoracle.char_weights.distinct_irreps"] / cw if cw else 0.0,
        "ratio")
    w_in = counts["charoracle.strip_dominant.weights_in"]
    out["charoracle.strip_dominant.irreps_per_weight"] = (
        counts["charoracle.strip_dominant.irreps_out"] / w_in if w_in else 0.0,
        "ratio")
    return out


def per_layer(plain, traced):
    rows = [layer_values(final["trace"]) for _, _, final in traced]
    out = {
        name: (statistics.median(r[name][0] for r in rows), rows[0][name][1])
        for name in rows[0]
    }
    for mod, secs in import_times().items():
        out[f"{mod}.import_s"] = (secs, "s")
    out["trace.overhead_s"] = (
        sum(op_medians(traced)) - sum(op_medians(plain)), "s")
    return out


def write_breakdown(workload, seed, traced):
    """Median self time and calls of every span name, for reading."""
    names = sorted({n for _, _, f in traced for n in f["trace"]["self_s"]})
    rows = {
        n: {
            "self_s": statistics.median(
                f["trace"]["self_s"].get(n, 0.0) for _, _, f in traced),
            "calls": statistics.median(
                f["trace"]["calls"].get(n, 0) for _, _, f in traced),
        }
        for n in names
    }
    path = os.path.join(OUT, f"trace-{workload}-{seed}.json")
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=1, sort_keys=True)


def run_workload(workload, seed, seconds, trace):
    """One run: passes for about ``seconds``, then checks; returns the
    result object."""
    ops = make_ops(workload, seed)
    build()
    passes = []  # (traced, (setup_s, replies, final))
    failed = mismatches = 0
    start = time.monotonic()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        passes.append((traced, run_pass(ops, traced)))
        f, m = settle(ops, passes[0][1][1], passes[-1][1][1])
        failed, mismatches = failed + f, mismatches + m
        n = len(passes)
        elapsed = time.monotonic() - start
        if (n >= MIN_PASSES * (1 + trace)
                and elapsed * (n + 1) / n > seconds):
            break
    setups = [p[0] for _, p in passes]
    setups += [run_pass([], trace=False)[0] for _ in range(SETUP_PROBES)]

    correct = mismatches == 0 and check_outputs(ops, passes[0][1][1]) == 0
    plain = [p for t, p in passes if not t]
    if trace:
        traced = [p for t, p in passes if t]
        metrics = per_layer(plain, traced)
        write_breakdown(workload, seed, traced)
    else:
        metrics = end_to_end(plain, setups)
    return {
        "correct": correct,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn (one result "
                         "line each)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quatheta", "__init__.py")):
        print("error: run from the root of a quatheta checkout "
              "(src/quatheta not found)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
