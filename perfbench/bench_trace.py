"""Span tracer for the benchmark's traced run.

The tracer wraps the library's functions from outside.  ``install`` replaces
every binding through which a traced function is reached: the defining
module's global, each ``from ... import`` copy in the other ``qschub``
modules and the package, each value in a module-level registry dict (such as
``rep._ACTION_OPS``, which holds ``op_a``/``op_r``/``op_s`` by reference) and
each class attribute (``QPoly.__radd__`` is ``QPoly.__add__``).  A binding
that is missed would show up as a zero count, which the tests check for.

Each wrapped call pushes a frame; its self time is its duration minus the
time of the wrapped calls nested in it.  Spans (id, name, start, end, parent
id, operation id) are kept in memory and written out when the run ends.
Spans of the ``operators`` layer are kept up to ``SPAN_CAP``; ``rep`` and
``schubert`` spans, far fewer, are always kept.  Polynomial and permutation
calls are too many to keep as spans: they are counted and timed like the rest
but recorded in aggregate only.  Counts and times stay exact past the cap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from types import ModuleType

from qschub import operators, perm, polyring, rep, schubert

SPAN_CAP = 100_000

# The polynomial arithmetic and construction that the benchmarked paths reach
# (``__radd__`` and ``__rmul__`` of QPoly are the same functions as ``__add__``
# and ``__mul__``); each is wrapped wherever it is bound.
QPOLY_METHODS = ("__add__", "__sub__", "__neg__", "__mul__")
MPOLY_METHODS = ("__init__", "__add__", "__sub__", "__neg__", "scale")
MPOLY_FUNCTIONS = ("swap_variables",)

# The permutation functions the other layers call; the perm helpers these
# call in turn are timed inside them, so the layer's self time is complete.
PERM_FUNCTIONS = ("all_perms", "canonical_reduced_word", "check_partition", "coset_weight",
                  "has_left_descent", "identity", "length", "mult_left_s", "mult_right_s",
                  "partition_word", "perms_by_length", "perms_of_length")

# Functions traced as spans, by module.
SPAN_FUNCTIONS = {
    operators: ("divided_difference", "op_a", "op_r"),
    schubert: ("build_schubert_table", "expand_homogeneous"),
    rep: ("coordinate_at", "graded_character", "weight_character", "quotient_basis_traces",
          "upstairs_graded_traces", "coinvariant_traces_from_graded", "generator_matrix",
          "basis_element_matrix", "bc_scan"),
}

# (metric, unit, better) in report order; the values come from Tracer.metrics.
PER_LAYER = (
    ("polyring.qpoly_ops.count", "count", "lower"),
    ("polyring.mpoly_ops.count", "count", "lower"),
    ("polyring.self_s", "s", "lower"),
    ("operators.divided_difference.count", "count", "lower"),
    ("operators.divided_difference.terms_in", "count", "lower"),
    ("operators.divided_difference.nonzero_frac", "ratio", "higher"),
    ("operators.divided_difference.self_s", "s", "lower"),
    ("operators.op_a.count", "count", "lower"),
    ("operators.op_a.self_s", "s", "lower"),
    ("operators.op_r.count", "count", "lower"),
    ("operators.op_r.self_s", "s", "lower"),
    ("schubert.build_schubert_table.s", "s", "lower"),
    ("schubert.expand_homogeneous.count", "count", "lower"),
    ("schubert.expand_homogeneous.self_s", "s", "lower"),
    ("perm.coset_weight.count", "count", "lower"),
    ("perm.self_s", "s", "lower"),
    ("rep.coordinate_at.count", "count", "lower"),
    ("rep.coordinate_at.self_s", "s", "lower"),
    ("rep.graded_character.rho1.s", "s", "lower"),
    ("rep.graded_character.rho2.s", "s", "lower"),
    ("rep.quotient_basis_traces.s", "s", "lower"),
    ("rep.upstairs_graded_traces.s", "s", "lower"),
    ("rep.coinvariant_traces_from_graded.s", "s", "lower"),
    ("rep.generator_matrix.count", "count", "lower"),
    ("rep.generator_matrix.hit_frac", "ratio", "higher"),
    ("rep.generator_matrix.self_s", "s", "lower"),
    ("rep.basis_element_matrix.count", "count", "lower"),
    ("rep.basis_element_matrix.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Counts, times and (up to a cap) records spans of wrapped calls."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.capped_spans = 0
        self.op_id = -1
        self.dd_terms_in = 0
        self.dd_nonzero = 0
        self.generator_hits = 0
        self._seen_generator_keys: set = set()
        self._stack = [[0.0, 0]]  # [time covered by children, span id]
        self._next_id = 1
        self._wrappers = self._build_wrappers()
        self._patches: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap_span(self, name, fn, capped: bool, after=None):
        """Wrap fn as a span; name is a metric name or a function of the
        call's arguments.  Past SPAN_CAP kept spans, capped spans are dropped.
        A fixed name gets its stats entry now, so an uncalled wrapper shows
        as a zero count."""
        stack = self._stack
        clock = time.perf_counter
        stats = self.stats
        if isinstance(name, str):
            stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            stat = stats.get(label) or stats.setdefault(label, [0, 0.0, 0.0])
            parent = stack[-1][1]
            sid = self._next_id
            self._next_id = sid + 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stack[-1][0] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if capped and self.capped_spans >= SPAN_CAP:
                    self.spans_dropped += 1
                else:
                    self.capped_spans += capped
                    self.spans.append((sid, label, t0, t1, parent, self.op_id))
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _wrap_aggregate(self, name, fn):
        """Wrap fn for counts and times only; no span is kept."""
        stack = self._stack
        clock = time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]

        return wrapper

    def _build_wrappers(self) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper) for everything traced."""
        out = {}

        def add(orig, wrapper):
            out[id(orig)] = (orig, wrapper)

        for cls, names, metric in ((polyring.QPoly, QPOLY_METHODS, "polyring.qpoly"),
                                   (polyring.MPoly, MPOLY_METHODS, "polyring.mpoly")):
            for attr in names:
                orig = vars(cls)[attr]
                add(orig, self._wrap_aggregate(f"{metric}.{attr}", orig))
        for attr in MPOLY_FUNCTIONS:
            orig = getattr(polyring, attr)
            add(orig, self._wrap_aggregate(f"polyring.mpoly.{attr}", orig))
        for attr in PERM_FUNCTIONS:
            orig = getattr(perm, attr)
            add(orig, self._wrap_aggregate(f"perm.{attr}", orig))
        for module, names in SPAN_FUNCTIONS.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr in names:
                orig = getattr(module, attr)
                name = f"{layer}.{attr}"
                after = None
                if attr == "graded_character":
                    name = _graded_character_name
                    for action in ("rho1", "rho2"):
                        self.stats.setdefault(f"rep.graded_character.{action}", [0, 0.0, 0.0])
                elif attr == "divided_difference":
                    after = self._after_divided_difference
                elif attr == "generator_matrix":
                    after = self._after_generator_matrix
                add(orig, self._wrap_span(name, orig, module is operators, after))
        return out

    def _after_divided_difference(self, args, kwargs, out):
        self.dd_terms_in += len(args[0].terms)
        if out:
            self.dd_nonzero += 1

    def _after_generator_matrix(self, args, kwargs, out):
        action, i, k, table = args
        key = (table.n, action, i, k)
        if key in self._seen_generator_keys:
            self.generator_hits += 1
        else:
            self._seen_generator_keys.add(key)

    def install(self):
        """Replace every binding of every traced function in qschub."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = self._wrappers
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qschub" or name.startswith("qschub."))]
        for owner in modules + [polyring.QPoly, polyring.MPoly]:
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, hit[1])
                elif isinstance(value, dict) and isinstance(owner, ModuleType):
                    for key, item in list(value.items()):
                        hit = wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._patches.append((value, key, item))
                            value[key] = hit[1]

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def _sum(self, prefix: str, field: int) -> float:
        return sum(s[field] for name, s in self.stats.items() if name.startswith(prefix))

    def _stat(self, name: str, field: int):
        return self.stats.get(name, [0, 0.0, 0.0])[field]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of PER_LAYER, except the overhead, which needs
        the untraced run."""
        dd_calls = self._stat("operators.divided_difference", 0)
        gen_calls = self._stat("rep.generator_matrix", 0)
        out = {
            "polyring.qpoly_ops.count": self._sum("polyring.qpoly.", 0),
            "polyring.mpoly_ops.count": self._sum("polyring.mpoly.", 0),
            "polyring.self_s": self._sum("polyring.", 2),
            "operators.divided_difference.terms_in": self.dd_terms_in,
            "operators.divided_difference.nonzero_frac": self.dd_nonzero / dd_calls if dd_calls else 0.0,
            "perm.self_s": self._sum("perm.", 2),
            "rep.generator_matrix.hit_frac": self.generator_hits / gen_calls if gen_calls else 0.0,
        }
        for metric, _, _ in PER_LAYER:
            if metric not in out and not metric.startswith("trace."):
                name, field = metric.rsplit(".", 1)
                out[metric] = self._stat(name, {"count": 0, "s": 1, "self_s": 2}[field])
        return {metric: out[metric] for metric, _, _ in PER_LAYER if metric in out}

    def dump_spans(self, path):
        """Write the kept spans as JSON lines, with a header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"],
                                 "kept": len(self.spans), "dropped": self.spans_dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _graded_character_name(args, kwargs) -> str:
    action = kwargs.get("action", args[0] if args else "?")
    return f"rep.graded_character.{action}"

