"""One cold pass: a fresh interpreter that imports quatheta and then runs
the operations run.py sends, one at a time.

Usage: worker.py SRC_DIR TRACE(0|1)

Protocol (JSON lines): the worker first prints {"setup_s": cpu seconds
of ``import quatheta, quatheta.cli``}.  It then reads one operation
[kind, args] per line and answers {"cpu": seconds, "out": ...} or
{"cpu": seconds, "error": text}; the line "end" makes it print
{"rss_kb": peak resident set, "trace": summary or null} and exit.
CPU time counts the worker and any children it starts.
"""

import resource
import sys
import time


def cpu():
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


sys.path.insert(0, sys.argv[1])
_t0 = cpu()
import quatheta  # noqa: E402
import quatheta.cli  # noqa: E402
SETUP_S = cpu() - _t0

import json  # noqa: E402

from ops import KINDS  # noqa: E402


def peak_rss_kb():
    """Peak resident set of this process image.  ru_maxrss would not do:
    Linux carries it over from the parent through fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    proto = sys.stdout
    tracer = None
    if sys.argv[2] == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def send(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    send({"setup_s": SETUP_S})
    for line in sys.stdin:
        if line.strip() == "end":
            break
        kind, args = json.loads(line)
        call, convert = KINDS[kind](*args)
        t0 = cpu()
        try:
            res = call()
        except Exception as exc:  # reported to run.py as a failed op
            send({"cpu": cpu() - t0, "error": f"{type(exc).__name__}: {exc}"})
            continue
        dt = cpu() - t0
        send({"cpu": dt, "out": convert(res)})
    rss = peak_rss_kb()
    send({"rss_kb": rss, "trace": tracer.summary() if tracer else None})


if __name__ == "__main__":
    main()
