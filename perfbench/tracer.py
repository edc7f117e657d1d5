"""Run one qndsim CLI invocation with a span around every public function of
its six modules, then write the spans to a JSON file.

    python perfbench/tracer.py SPANS.json <experiment> --config FILE [--jobs 1]

The wrappers replace module attributes, so calls between and inside the
modules (which look functions up in module globals) are traced as well.
Spans stay in memory until the CLI returns. Worker processes started by
--jobs > 1 would keep their spans to themselves, so run traced sweeps with
one job.
"""

import functools
import importlib
import inspect
import json
import math
import sys
import time

MODULES = ("fock", "protocol", "sampler", "wigner", "threelevel", "cli")


def _attrs(name, call, result):
    """Counts taken at a span from the call's bound arguments (defaults
    applied): the Fock dimension of an expm, the blocks a pulse walked, the
    steps of a three-level run, the matvecs of a displaced-parity walk."""
    if name in ("fock.squeeze", "fock.displacement"):
        return {"dim": call["dim"]}
    if name == "protocol.evolve_pulse":
        return {"blocks": len(result.blocks)}
    if name == "threelevel.evolve_full":
        return {"steps": call["steps"]}
    if name == "wigner.wigner_numeric_protocol":
        # One matvec per patch point: the patch spans tail_sigmas Im standard
        # deviations e^{-r}/2 either side of a peak, on every Re column.
        spec = call["spec"]
        h = (spec.im_max - spec.im_min) / (spec.im_count - 1)
        half_rows = math.ceil(call["tail_sigmas"] * math.exp(-call["params"].r) / 2.0 / h)
        return {"matvecs": (2 * half_rows + 1) * spec.re_count}
    return None


class Tracer:
    """Spans as [name, start, end, parent index, attrs], in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            span[4] = _attrs(name, call.arguments, result)
            return result

        return traced

    def install(self):
        for short in MODULES:
            mod = importlib.import_module(f"qndsim.{short}")
            for attr, fn in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    setattr(mod, attr, self.wrap(f"{short}.{attr}", fn))
        return importlib.import_module("qndsim.cli")


def main():
    out_path, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = tracer.install()
    code = cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
