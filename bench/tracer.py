"""Span tracing at the package's module boundaries, installed from outside.

``Tracer.install`` replaces the public functions of each ``pasynch``
module with wrappers that record a span (name, start, end, parent, op id),
in the defining module and in every sibling module that imported the
name, so calls between modules are seen too. ``Dist.__init__`` is only
counted, because it runs once per step and a span there would cost more
than the work it measures. Spans stay in memory until ``write``.

A span's self time is its duration minus the durations of its child
spans. Each op is one root span ``bench.op``, so the self times of all
spans sum to the traced op time.
"""
from __future__ import annotations

import time
from collections import Counter

import pasynch
from pasynch import analysis, cli, core, paformat, reduction, semantics

from workloads import word_count

MODULES = (pasynch, core, semantics, reduction, analysis, paformat, cli)

# module -> public callables wrapped in spans; "Class.__init__" is named "Class.new"
SPANNED = {
    core: ("Pa.__init__", "Pa.validate"),
    semantics: ("step", "outcome", "acceptance_probability", "norm_trace",
                "lasso_trace", "max_norm_from"),
    reduction: ("Value1Instance.__init__", "lift", "twin", "check_p1", "check_p2",
                "build_witness_prefix"),
    analysis: ("bounded_value_search", "witness_schedule_search", "certificate_check",
               "dollar_absorption_check", "half_bound_check", "matrix_oracle"),
    paformat: ("parse_pa", "serialize_pa", "load_pa", "save_pa", "write_trace_csv",
               "read_trace_csv"),
    cli: ("main",),
}

# spans reported one by one as <name>.self_s and <name>.calls
REPORTED = (
    "core.Pa.new", "core.Pa.validate",
    "semantics.step", "semantics.outcome", "semantics.norm_trace",
    "reduction.lift", "reduction.twin", "reduction.check_p1", "reduction.check_p2",
    "analysis.bounded_value_search", "analysis.witness_schedule_search",
    "analysis.dollar_absorption_check", "analysis.half_bound_check",
    "analysis.certificate_check",
    "paformat.parse_pa", "paformat.serialize_pa", "paformat.write_trace_csv",
    "cli.main",
)
LAYERS = ("core", "semantics", "reduction", "analysis", "paformat", "cli", "bench")
SEARCHES = ("analysis.bounded_value_search", "analysis.witness_schedule_search")


def span_name(module, attr: str) -> str:
    short = module.__name__.rsplit(".", 1)[-1]
    return f"{short}.{attr.replace('.__init__', '.new')}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id]
        self.stack = [-1]
        self.op_id = -1
        self.active = False
        self.counts: Counter[str] = Counter()
        self.den_bits_max = 0
        self.after = {
            "semantics.step": self._after_step,
            "semantics.outcome": self._after_outcome,
            "analysis.bounded_value_search": self._after_bounded,
            "analysis.witness_schedule_search": self._after_schedule,
            "paformat.parse_pa": self._after_parse,
            "paformat.write_trace_csv": self._after_csv,
            "cli.main": self._after_main,
        }

    # -- counters read from arguments and results ---------------------------
    def _after_step(self, args, dist):
        bits = max((p.denominator.bit_length() for _, p in dist.items()), default=0)
        if bits > self.den_bits_max:
            self.den_bits_max = bits

    def _after_outcome(self, args, dists):
        self.counts["semantics.letters"] += len(dists) - 1

    def _after_bounded(self, args, result):
        b, max_len = args[0], args[1]
        self.counts["analysis.search.explored"] += result.explored
        self.counts["analysis.search.word_space"] += word_count(len(b.pa.alphabet), max_len)

    def _after_schedule(self, args, result):
        # the shortlex scan stops early: it covers exactly the words it explored
        self.counts["analysis.search.explored"] += result.explored
        self.counts["analysis.search.word_space"] += result.explored

    def _after_parse(self, args, result):
        self.counts["paformat.parse_pa.bytes"] += len(args[0].encode("utf-8"))

    def _after_csv(self, args, result):
        self.counts["paformat.write_trace_csv.rows"] += len(args[1].entries)

    def _after_main(self, args, code):
        self.counts["cli.main.nonzero_exit"] += code != 0

    # -- installation -------------------------------------------------------
    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        after = self.after.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0, stack[-1], self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attrs in SPANNED.items():
            for attr in attrs:
                name = span_name(module, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                    continue
                fn = getattr(module, attr)
                wrapper = self._wrap(name, fn)
                for m in MODULES:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapper)
        dist_init = core.Dist.__init__
        counts = self.counts

        def counted_init(dist, mass):
            if self.active:
                counts["core.Dist.new.count"] += 1
            dist_init(dist, mass)

        core.Dist.__init__ = counted_init

    def run_op(self, op_id: int, fn):
        """Run one op as a root span with tracing switched on."""
        self.op_id = op_id
        rec = ["bench.op", time.perf_counter_ns(), 0, -1, op_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.active = True
        try:
            return fn()
        finally:
            self.active = False
            rec[2] = time.perf_counter_ns()
            self.stack.pop()

    # -- results ------------------------------------------------------------
    def summary(self, scale: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); span times are
        multiplied by `scale` to convert wall seconds to reference seconds."""
        n = len(self.spans)
        child_ns = [0] * n
        under_search = [False] * n
        self_ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        search_steps = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += end - start
                under_search[i] = under_search[parent] or self.spans[parent][0] in SEARCHES
                if name == "semantics.step" and under_search[i]:
                    search_steps += 1
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_ns[name] += end - start - child_ns[i]
            calls[name] += 1

        out: dict[str, tuple[float, str]] = {}
        for name in REPORTED:
            out[f"{name}.self_s"] = (self_ns[name] * scale / 1e9, "s")
            out[f"{name}.calls"] = (calls[name], "count")
        for layer in LAYERS:
            total = sum(v for k, v in self_ns.items() if k.split(".", 1)[0] == layer)
            out[f"{layer}.self_s"] = (total * scale / 1e9, "s")
        for key in ("core.Dist.new.count", "semantics.letters", "analysis.search.explored",
                    "analysis.search.word_space", "paformat.parse_pa.bytes",
                    "paformat.write_trace_csv.rows", "cli.main.nonzero_exit"):
            out[key] = (self.counts[key], "bytes" if key.endswith(".bytes") else "count")
        out["semantics.den_bits_max"] = (self.den_bits_max, "bits")
        space = self.counts["analysis.search.word_space"]
        out["analysis.search.steps_per_word"] = (search_steps / space if space else 0.0, "ratio")
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start},{end},{parent},{op}\n")
