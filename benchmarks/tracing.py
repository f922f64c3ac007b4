"""In-memory span tracer that instruments roughkit from outside the package.

`Tracer` records a span (name, parent, start, end) around each wrapped call
and plain counters for hot calls that are too frequent for spans.  Spans stay
in memory until the run ends; self time is a span's duration minus the time
its direct children cover.

`instrument` patches roughkit's public functions at the name each caller
looks them up under (a module global of the calling module, or a class
attribute), so no file of the package changes.  `Tracer.restore` undoes
every patch.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        # counts[counter][innermost open span name, or None outside any span]
        self.counts: defaultdict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def current(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def add(self, counter: str, amount: int = 1) -> None:
        self.counts[counter][self.current()] += amount

    def total(self, counter: str) -> int:
        return sum(self.counts[counter].values())

    def spanned(
        self,
        name: str,
        fn: Callable,
        on_call: Callable[["Tracer", dict], None] | None = None,
        on_result: Callable[["Tracer", object], None] | None = None,
    ) -> Callable:
        """`fn` wrapped in a span; the hooks see bound arguments / the result."""
        sig = inspect.signature(fn) if on_call is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, sig.bind(*args, **kwargs).arguments)
            span = Span(len(self.spans), name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def counted(self, counter: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(counter)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def patch_span(self, owner: object, attr: str, name: str, **hooks) -> None:
        self.patch(owner, attr, self.spanned(name, vars(owner)[attr], **hooks))

    def patch_cached_property(self, cls: type, attr: str, name: str, **hooks) -> None:
        prop = cached_property(self.spanned(name, vars(cls)[attr].func, **hooks))
        prop.__set_name__(cls, attr)
        self.patch(cls, attr, prop)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def self_time_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s, t in zip(self.spans, self.self_times()):
            out[s.name] = out.get(s.name, 0.0) + t
        return out

    def as_records(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end, "self": t}
            for s, t in zip(self.spans, self.self_times())
        ]


# -- roughkit instrumentation ----------------------------------------------

# span name -> per-layer self-time metric; together they partition main()
SELF_TIME_METRICS = {
    "cli.main": "cli.self_s",
    "path.read_csv": "path.read_csv_s",
    "path.signature": "path.signature_s",
    "path.pairwise_levels": "path.pairwise_levels_s",
    "path.control": "path.control_s",
    "funcs.field_eval": "funcs.field_eval_s",
    "integrate.compose": "integrate.compose_s",
    "integrate.rough_integral": "integrate.rough_integral_s",
    "oneform.norm_components": "oneform.norm_components_s",
    "oneform.check_domination": "oneform.check_domination_s",
    "rde.picard_step": "rde.picard_step_s",
    "rde.solve": "rde.solve_self_s",
}

COUNT_METRICS = (
    "path.pairwise_bytes",
    "tensor.group_products",
    "tensor.inverses",
    "funcs.field_eval_calls",
    "integrate.rough_integral_calls",
    "oneform.pairs_scanned",
    "rde.picard_steps",
)

RATIO_METRICS = {
    "path.lift_steps_per_s": "1/s",
    "tensor.products_per_lift_step": "ratio",
    "rde.useful_step_ratio": "ratio",
}

TRACE_METRICS = {"trace.overhead_s": "s", "trace.main_s": "s", "trace.accounted_share": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {m: "s" for m in SELF_TIME_METRICS.values()}
    units.update({m: ("B" if m.endswith("bytes") else "count") for m in COUNT_METRICS})
    units.update(RATIO_METRICS)
    units.update(TRACE_METRICS)
    return units


def instrument(tracer: Tracer) -> None:
    """Wrap roughkit's layer entry points; `tracer.restore()` undoes it."""
    import roughkit.cli as cli
    import roughkit.funcs as funcs
    import roughkit.oneform as oneform
    import roughkit.path as path
    import roughkit.rde as rde
    import roughkit.tensor as tensor

    def lift_steps(tr: Tracer, args: dict) -> None:
        tr.add("path.lift_steps", args["path"].num_steps)

    def pair_bytes(tr: Tracer, levels) -> None:
        tr.add("path.pairwise_bytes", sum(block.nbytes for block in levels))

    def scan(base, levels: int) -> int:
        n = len(base.points)
        return n * (n - 1) // 2 * levels

    def norm_pairs(tr: Tracer, args: dict) -> None:
        base = args["self"].base
        tr.add("oneform.pairs_scanned", scan(base, min(base.level, funcs.strict_floor(args["gamma"]))))

    def domination_pairs(tr: Tracer, args: dict) -> None:
        base = args["beta"].base
        tr.add("oneform.pairs_scanned", scan(base, base.level))

    tracer.patch_span(cli, "read_path_csv", "path.read_csv")
    tracer.patch_span(cli, "signature", "path.signature", on_call=lift_steps)
    tracer.patch_cached_property(
        path.SampledRoughPath, "pairwise_levels", "path.pairwise_levels", on_result=pair_bytes
    )
    # cmd_integrate imports control_from_pvar from roughkit.path at call time;
    # RdeProblem.omega uses the name bound in roughkit.rde
    tracer.patch_span(path, "control_from_pvar", "path.control")
    tracer.patch_span(rde, "control_from_pvar", "path.control")
    for cls in vars(funcs).values():
        if isinstance(cls, type) and issubclass(cls, funcs.SmoothMap) and cls is not funcs.SmoothMap:
            for attr in ("apply", "derivative"):
                if attr in vars(cls):
                    tracer.patch_span(cls, attr, "funcs.field_eval")
    tracer.patch_span(rde, "compose_integrand", "integrate.compose")
    tracer.patch_span(cli, "rough_integral", "integrate.rough_integral")
    tracer.patch_span(rde, "rough_integral", "integrate.rough_integral")
    tracer.patch_span(oneform.OneFormPath, "norm_components", "oneform.norm_components", on_call=norm_pairs)
    tracer.patch_span(rde, "check_domination", "oneform.check_domination", on_call=domination_pairs)
    tracer.patch_span(rde, "picard_step", "rde.picard_step")
    tracer.patch_span(cli, "solve", "rde.solve")
    # counters only, no spans: timing each group product would cost more than the product
    tracer.patch(tensor.GroupElement, "__matmul__", tracer.counted("tensor.group_products", tensor.GroupElement.__matmul__))
    tracer.patch(tensor.GroupElement, "inverse", tracer.counted("tensor.inverses", tensor.GroupElement.inverse))


def layer_metrics(tracer: Tracer, main_s: float, untraced_s: float, iterations: int | None) -> dict[str, float]:
    """Per-layer metrics of one traced main() call.

    main_s is the traced call's wall time measured outside the tracer and
    untraced_s the same call with no instrumentation installed.
    """
    selfs = tracer.self_time_by_name()
    out = {metric: selfs.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()}
    names = [s.name for s in tracer.spans]
    parents = [tracer.spans[s.parent].name if s.parent is not None else None for s in tracer.spans]
    out["path.pairwise_bytes"] = tracer.total("path.pairwise_bytes")
    out["tensor.group_products"] = tracer.total("tensor.group_products")
    out["tensor.inverses"] = tracer.total("tensor.inverses")
    out["funcs.field_eval_calls"] = sum(
        1 for n, p in zip(names, parents) if n == "funcs.field_eval" and p != "funcs.field_eval"
    )
    out["integrate.rough_integral_calls"] = names.count("integrate.rough_integral")
    out["oneform.pairs_scanned"] = tracer.total("oneform.pairs_scanned")
    out["rde.picard_steps"] = names.count("rde.picard_step")

    steps = tracer.total("path.lift_steps")
    lift_s = out["path.signature_s"]
    out["path.lift_steps_per_s"] = steps / lift_s if lift_s > 0 else 0.0
    out["tensor.products_per_lift_step"] = (
        tracer.counts["tensor.group_products"]["path.signature"] / steps if steps else 0.0
    )
    picard = out["rde.picard_steps"]
    out["rde.useful_step_ratio"] = iterations / picard if picard and iterations is not None else 0.0

    out["trace.overhead_s"] = main_s - untraced_s
    out["trace.main_s"] = main_s
    out["trace.accounted_share"] = sum(out[m] for m in SELF_TIME_METRICS.values()) / main_s
    return out
