"""Run one kinkfit CLI invocation with per-module spans and counters.

Usage: python benchmarks/traced.py SPANS_JSON INVOCATION_ID ARG...

Every public function of kinkfit.fit, kinkfit.io and kinkfit.oracle,
``adaptive_simpson`` as bound in kinkfit.oracle, and kinkfit.cli.main are
replaced, in this process only, by wrappers that record a span (name, start,
end, parent).  The per-point closed forms of kinkfit.model get accumulated
timers and counters instead of one span per call, which bounds the overhead;
their time is charged to the enclosing span as child time.  Counts come from
arguments and return values, plus the step generator of the RK4 march.
Spans stay in memory and are written to SPANS_JSON when the CLI returns.
No file of the package is modified.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

import kinkfit.cli
import kinkfit.fit
import kinkfit.io
import kinkfit.model
import kinkfit.oracle
import kinkfit.quadrature

MODEL_FUNCTIONS = ("value", "value_gradient", "slope", "piecewise_limit")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.open: list[int] = []
        self.model: dict[str, list] = {}  # name -> [seconds, calls, points]
        self.counts: dict[str, int] = {}

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, fn, on_return=None):
        def traced(*args, **kwargs):
            parent = self.open[-1] if self.open else None
            record = {"name": name, "parent": parent, "child_s": 0.0}
            self.spans.append(record)
            self.open.append(len(self.spans) - 1)
            record["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = perf_counter()
                self.open.pop()
                if parent is not None:
                    self.spans[parent]["child_s"] += record["end"] - record["start"]
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def accumulate(self, name, fn):
        slot = self.model.setdefault(name, [0.0, 0, 0])
        spans, open_spans = self.spans, self.open

        def timed(phi, *args, **kwargs):
            start = perf_counter()
            result = fn(phi, *args, **kwargs)
            elapsed = perf_counter() - start
            slot[0] += elapsed
            slot[1] += 1
            slot[2] += getattr(phi, "size", 1)
            if open_spans:
                spans[open_spans[-1]]["child_s"] += elapsed
            return result

        return timed


def _counting(tracer: Tracer, name: str, fn):
    def counted(*args, **kwargs):
        tracer.count(name, 1)
        return fn(*args, **kwargs)

    return counted


def _count_steps(tracer: Tracer, march):
    def counted(*args, **kwargs):
        steps = 0
        try:
            for item in march(*args, **kwargs):
                steps += 1
                yield item
        finally:
            tracer.count("oracle.rk4_steps", steps)

    return counted


def _series_points(spec) -> int:
    return sum(len(s.x) for s in spec.series)


def install(tracer: Tracer) -> None:
    """Replace the traced functions wherever a kinkfit module binds them."""
    hooks = {
        "fit.fit_piecewise": lambda a, r: tracer.count("fit.fit_piecewise.candidates", r.candidate_count),
        "fit.fit_smooth": lambda a, r: tracer.count("fit.fit_smooth.iterations", r.iterations),
        "io.read_dataset": lambda a, r: (tracer.count("io.read_dataset.rows", len(r)),
                                         tracer.count("io.read_dataset.bytes", len(a[0]))),
        "io.write_dataset": lambda a, r: (tracer.count("io.write_dataset.rows", len(a[0])),
                                          tracer.count("io.write_dataset.bytes", len(r))),
        "io.generate_synthetic": lambda a, r: tracer.count("io.generate_synthetic.points", len(r)),
        "io.render_svg": lambda a, r: (tracer.count("io.render_svg.points", _series_points(a[0])),
                                       tracer.count("io.render_svg.bytes", len(r))),
    }
    replaced = {}
    for module in (kinkfit.fit, kinkfit.io, kinkfit.oracle):
        layer = module.__name__.split(".")[-1]
        for attr, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                replaced[fn] = tracer.span(name, fn, hooks.get(name))
    for attr in MODEL_FUNCTIONS:
        fn = getattr(kinkfit.model, attr)
        replaced[fn] = tracer.accumulate(f"model.{attr}", fn)

    simpson = kinkfit.quadrature.adaptive_simpson
    simpson_span = tracer.span("quadrature.adaptive_simpson", simpson)
    replaced[simpson] = lambda f, *a, **k: simpson_span(
        _counting(tracer, "quadrature.integrand_evals", f), *a, **k)
    replaced[kinkfit.oracle._rk4_march] = _count_steps(tracer, kinkfit.oracle._rk4_march)

    for module in (kinkfit.cli, kinkfit.fit, kinkfit.io, kinkfit.model,
                   kinkfit.oracle, kinkfit.quadrature):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(module, attr, replaced[value])


def main(argv: list[str]) -> int:
    spans_path, invocation_id, cli_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    install(tracer)
    cli_main = tracer.span("cli.main", kinkfit.cli.main)
    try:
        return cli_main(cli_argv)
    finally:
        record = {
            "invocation": invocation_id,
            "spans": [dict(s, id=i) for i, s in enumerate(tracer.spans)],
            "model": tracer.model,
            "counts": tracer.counts,
        }
        with open(spans_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
