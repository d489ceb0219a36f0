"""Spans around the public functions of quatheta, recorded from outside.

``Tracer.install()`` wraps every public function of the eight modules and
rebinds the wrapper wherever the package binds the original, so that a
call through a name imported into another module (``quaternionic`` uses
``char_weights`` that way) is seen too.  A span holds a name, start, end
(process CPU time, ns) and its parent span; spans stay in memory and are
reduced once, by ``summary()``, when the pass ends.  Counts are read from
arguments and return values.  Private helpers, such as the root-data
kernels, are not wrapped: their time shows in the self time of the
public function that calls them.
"""

import functools
import inspect
import sys
import time

MODULES = ("rootdata", "charoracle", "branchrules", "quaternionic",
           "thetamaps", "aqmodules", "verify", "cli")


def _count_char_weights(tr, args, kwargs, res):
    r = args[0]
    tr.distinct.add((r.labels, r.twice_concat()))
    tr.counts["charoracle.char_weights.weights_out"] += len(res.mults)


def _count_strip(tr, args, kwargs, res):
    tr.counts["charoracle.strip_dominant.weights_in"] += len(args[0].mults)
    tr.counts["charoracle.strip_dominant.irreps_out"] += len(res.mults)


def _count_convolve(tr, args, kwargs, res):
    tr.counts["charoracle.convolve.pairs"] += (
        len(args[0].mults) * len(args[1].mults)
    )


def _count_ktypes(tr, args, kwargs, res):
    tr.counts["quaternionic.ktypes.levels"] += len(res.levels)


COUNTERS = {
    "charoracle.char_weights": _count_char_weights,
    "charoracle.strip_dominant": _count_strip,
    "charoracle.convolve": _count_convolve,
    "quaternionic.ktypes": _count_ktypes,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # [name id, start ns, end ns, parent index]
        self.stack = []
        self.counts = dict.fromkeys(
            ("charoracle.char_weights.weights_out",
             "charoracle.strip_dominant.weights_in",
             "charoracle.strip_dominant.irreps_out",
             "charoracle.convolve.pairs",
             "quaternionic.ktypes.levels"), 0)
        self.distinct = set()

    def install(self):
        pkg = [m for name, m in sys.modules.items()
               if name == "quatheta" or name.startswith("quatheta.")]
        for modname in MODULES:
            mod = sys.modules[f"quatheta.{modname}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{modname}.{attr}", fn)
                for m in pkg:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapper)

    def _wrap(self, name, fn):
        sid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        clock = time.process_time_ns
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                spans[idx] = (sid, t0, clock(), parent)
                stack.pop()
            if counter is not None:
                counter(self, args, kwargs, res)
            return res

        return wrapper

    def summary(self):
        """Self time and calls per span name, plus the counts."""
        child = [0] * len(self.spans)
        for sid, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_name = {}
        for (sid, t0, t1, _), ch in zip(self.spans, child):
            acc = by_name.setdefault(self.names[sid], [0, 0])
            acc[0] += t1 - t0 - ch
            acc[1] += 1
        counts = dict(self.counts)
        counts["charoracle.char_weights.distinct_irreps"] = len(self.distinct)
        return {
            "self_s": {n: ns / 1e9 for n, (ns, _) in by_name.items()},
            "calls": {n: c for n, (_, c) in by_name.items()},
            "counts": counts,
            "spans": len(self.spans),
        }
