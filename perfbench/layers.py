"""Per-layer tracing for the traced benchmark run.

The tracer replaces the entry points of each ``itlc`` layer with wrappers
that record a span (name, operation, parent span, start, end) and count
work, then restores the originals.  It edits no file: each wrapper is
installed on the module or class attribute that callers look up at call
time, so ``decide`` and the command line reach it without being changed.
A layer's self time is its spans' durations minus the parts covered by
spans nested inside them.
"""

from __future__ import annotations

import functools
import importlib
import time

# Span name -> the call sites wrapped for it, as (module, attribute path).
# Public names are preferred; the private ones are the only entry of their
# phase and are listed in PRIVATE_SEAMS, so a rename in the program shows
# up as a missing seam rather than as a silent zero.
SPANS = {
    "cli.overhead": (("itlc.cli", "run"),),
    "formula.parse": (("itlc.cli", "parse"), ("itlc.quasimodel", "parse")),
    "formula.closure": (("itlc.quasimodel", "subformula_closure"),),
    "labels.type_masks": (("itlc.labels", "SigmaContext.type_masks"),),
    "labels.viability": (("itlc.quasimodel", "viable_types"),),
    "quasimodel.decide": (("itlc", "decide"), ("itlc.quasimodel", "decide")),
    "moments.generate": (("itlc.moments", "_Generation.grow"),),
    "quasimodel.prune": (("itlc.quasimodel", "_prune"),),
    "quasimodel.lasso": (("itlc.quasimodel", "build_realizing_path"),),
    "quasimodel.verify": (("itlc", "verify_certificate"),
                          ("itlc.quasimodel", "verify_certificate")),
    "alexandroff.evaluate": (("itlc", "evaluate"), ("itlc.alexandroff", "evaluate")),
    "alexandroff.valid": (("itlc", "is_valid_on_system"),
                          ("itlc.alexandroff", "is_valid_on_system")),
    "alexandroff.countermodel": (("itlc", "find_countermodel"),
                                 ("itlc.alexandroff", "find_countermodel")),
    "alexandroff.extract": (("itlc", "extract_quasimodel"),
                            ("itlc.quasimodel", "extract_quasimodel")),
}
# Counted without a span: one open_masks call per system searched, and one
# top-level _evaluate_mask call (a fresh memo dict) per valuation tried.
COUNTED = {("itlc.alexandroff", "open_masks"): "alexandroff.systems_examined",
           ("itlc.alexandroff", "_evaluate_mask"): "alexandroff.valuations_tested"}
TYPE_CACHE = "itlc.labels.SigmaContext._type_masks"   # read, to count fresh work
PRIVATE_SEAMS = ("itlc.moments._Generation.grow", "itlc.quasimodel._prune",
                 "itlc.alexandroff._evaluate_mask", TYPE_CACHE)

COUNTS = ("labels.masks_tested", "labels.types", "labels.viable_types",
          "labels.profiles_refuted", "moments.candidates_examined", "moments.accepted",
          "quasimodel.prune_survivors", "quasimodel.lassos", "quasimodel.verify_calls",
          "quasimodel.cert_worlds", "quasimodel.cert_edges", "alexandroff.evaluations",
          "alexandroff.valuations_tested", "alexandroff.systems_examined")

# Per-layer metrics in report order: (name, unit).  Times are self times.
METRICS = (
    ("formula.parse_s", "s"), ("formula.closure_s", "s"),
    ("labels.type_masks_s", "s"), ("labels.masks_tested", "count"), ("labels.types", "count"),
    ("labels.viability_s", "s"), ("labels.viable_types", "count"),
    ("labels.profiles_refuted", "count"),
    ("moments.generate_s", "s"), ("moments.candidates_examined", "count"),
    ("moments.accepted", "count"), ("moments.accept_ratio", "ratio"),
    ("moments.height_reached", "count"),
    ("quasimodel.decide_s", "s"),
    ("quasimodel.prune_s", "s"), ("quasimodel.prune_survivors", "count"),
    ("quasimodel.lasso_s", "s"), ("quasimodel.lassos", "count"),
    ("quasimodel.verify_s", "s"), ("quasimodel.verify_calls", "count"),
    ("quasimodel.cert_worlds", "count"), ("quasimodel.cert_edges", "count"),
    ("alexandroff.evaluate_s", "s"), ("alexandroff.evaluations", "count"),
    ("alexandroff.valid_s", "s"), ("alexandroff.valuations_tested", "count"),
    ("alexandroff.countermodel_s", "s"), ("alexandroff.systems_examined", "count"),
    ("alexandroff.extract_s", "s"),
    ("cli.overhead_s", "s"),
    ("trace.unattributed_s", "s"), ("trace.overhead_s", "s"),
)


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted attribute path inside a module."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Spans and counters of one traced run; install() before the traced
    passes and uninstall() after them."""

    def __init__(self):
        self.spans: list[list] = []     # [name, op, parent, start, end]
        self.stack: list[int] = []
        self.op = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self.height = 0
        self.missing: dict[str, str] = {}     # seam -> metric it feeds
        self._undo: list[tuple] = []
        self._memo = None

    # -- spans ------------------------------------------------------------

    def _span(self, name: str, original, before=None, after=None):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, tracer.op, parent, time.perf_counter(), 0.0]
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer.stack.pop()
            if after:
                after(args, result, token)
            return result
        return wrapper

    def _current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- layer-specific counting ------------------------------------------

    def _hooks(self, name: str):
        c = self.counts
        if name == "labels.type_masks":
            def after(args, result, fresh):
                if fresh:
                    c["labels.masks_tested"] += 1 << len(args[0])
                    c["labels.types"] += len(result)

            def before(args):
                cache = getattr(args[0], "_type_masks", self)
                if cache is self:
                    self.missing[TYPE_CACHE] = "labels.masks_tested"
                return cache is None
            return before, after
        if name == "labels.viability":
            def after(args, result, _):
                c["labels.viable_types"] += len(result)
            return None, after
        if name == "quasimodel.decide":
            def after(args, verdict, _):
                c["labels.profiles_refuted"] += sum(
                    "refuted by label viability" in o for o in verdict.profile_outcomes)
                if verdict.certificate is not None:
                    q = verdict.certificate.quasimodel
                    c["quasimodel.cert_worlds"] += len(q.worlds)
                    c["quasimodel.cert_edges"] += len(q.s_edges)
            return None, after
        if name == "moments.generate":
            def before(args):
                return args[0].examined, args[0].count

            def after(args, result, token):
                gen = args[0]
                c["moments.candidates_examined"] += gen.examined - token[0]
                c["moments.accepted"] += gen.count - token[1]
                self.height = max(self.height, gen.height)
            return before, after
        if name == "quasimodel.prune":
            def after(args, q, _):
                c["quasimodel.prune_survivors"] += len(q.worlds)
            return None, after
        counter = {"quasimodel.lasso": "quasimodel.lassos",
                   "quasimodel.verify": "quasimodel.verify_calls",
                   "alexandroff.evaluate": "alexandroff.evaluations"}.get(name)
        if counter:
            def after(args, result, _):
                c[counter] += 1
            return None, after
        return None, None

    def _counted(self, attr: str, original):
        c = self.counts
        tracer = self
        if attr == "open_masks":
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if tracer._current() == "alexandroff.countermodel":
                    c["alexandroff.systems_examined"] += 1
                return original(*args, **kwargs)
        else:
            @functools.wraps(original)
            def wrapper(X, valuation, f, cache):
                # recursive calls share the memo dict of their top-level call;
                # holding it keeps its identity from being reused
                if cache is not tracer._memo:
                    tracer._memo = cache
                    if tracer._current() in ("alexandroff.valid",
                                             "alexandroff.countermodel"):
                        c["alexandroff.valuations_tested"] += 1
                return original(X, valuation, f, cache)
        return wrapper

    # -- install ----------------------------------------------------------

    def install(self) -> None:
        for name, sites in SPANS.items():
            before, after = self._hooks(name)
            for module, path in sites:
                self._replace(module, path, f"{name}_s",
                              lambda original: self._span(name, original, before, after))
        for (module, path), metric in COUNTED.items():
            self._replace(module, path, metric,
                          lambda original, path=path: self._counted(path, original))

    def _replace(self, module: str, path: str, metric: str, make) -> None:
        try:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, KeyError):
            self.missing[f"{module}.{path}"] = metric
            return
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._memo = None

    # -- results ----------------------------------------------------------

    def metrics(self, passes: int, traced_wall: float, overhead: float) -> dict:
        """Per-pass means of self times and counts over the traced passes;
        `traced_wall` is their mean raw time, and `overhead` the traced
        minus the untraced pass time at reference speed."""
        cover = [0.0] * len(self.spans)
        top = 0.0
        for name, _, parent, start, end in self.spans:
            if parent >= 0:
                cover[parent] += end - start
            else:
                top += end - start
        own: dict[str, float] = {}
        for (name, _, _, start, end), covered in zip(self.spans, cover):
            own[name] = own.get(name, 0.0) + (end - start) - covered
        c = self.counts
        out = {f"{name}_s": own.get(name, 0.0) / passes for name in SPANS}
        out.update({k: v / passes for k, v in c.items()})
        examined = c["moments.candidates_examined"]
        out["moments.accept_ratio"] = c["moments.accepted"] / examined if examined else 0.0
        out["moments.height_reached"] = self.height
        out["trace.unattributed_s"] = traced_wall - top / passes
        out["trace.overhead_s"] = overhead
        # a seam that could not be wrapped reports -1, never a silent zero
        for metric in self.missing.values():
            out[metric] = -1.0
        return {name: out[name] for name, _ in METRICS}
