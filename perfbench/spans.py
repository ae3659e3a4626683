"""Traced mode: spans around nqsym's public functions, recorded from outside.

`Tracer.install` replaces each listed public function, in every nqsym module
namespace that binds it, by a wrapper that records a span (name, start,
end, parent span, op id).  Calls made inside the program through those
names nest under the caller's span, so a span's self time is its duration
minus the durations of its direct children.  Memo-table counters come from
the `cache_info()` of the lru_cached tables, read before and after each op.
Spans stay in memory until the session writes them out.  Nothing here is
imported by an untraced session.
"""

import functools
import json
import sys
from time import perf_counter

QSYM_FUNCTIONS = (
    "n_basis_element",
    "convert",
    "mul",
    "mul_nbasis",
    "nbasis_product",
    "divide_by_pure_power",
)
MATROID_FUNCTIONS = (
    "qsym_of_matroid",
    "rank2_qsym",
    "recover_rank2",
    "split",
    "full_split_to_length3",
    "geom_decompose",
    "hilbert_basis_check",
)
CLI_COMMANDS = (
    "expand",
    "convert",
    "mul",
    "matroid-f",
    "recover",
    "rank2-split",
    "geom-decompose",
    "verify",
)
# lru_cached tables in nqsym.qsym, with the cache_info fields reported.
COUNTERS = {
    "nbasis_in_fundamental": ("misses", "currsize"),
    "nl_ascent_run_rows": ("misses",),
    "quasi_shuffle": ("misses",),
    "refinements_of": ("misses",),
    "structure_constants": ("misses",),
}


def _convert_name(args, kwargs):
    element = args[0] if args else kwargs["element"]
    target = args[1] if len(args) > 1 else kwargs["target"]
    if target == "N" and element.basis != "N":
        return "qsym.convert_to_N"
    if element.basis == "N" and target != "N":
        return "qsym.convert_from_N"
    return "qsym.convert"


def verify_span_names():
    from nqsym import verify

    return {f"verify.{check_id}": func for check_id, func in verify.CHECKS}


def span_names():
    """Every span name the traced mode can record, in report order."""
    names = [f"qsym.{name}" for name in QSYM_FUNCTIONS]
    names[2:2] = ["qsym.convert_to_N", "qsym.convert_from_N"]
    names += ["elements.from_json", "elements.to_json", "matroids.Matroid"]
    names += [f"matroids.{name}" for name in MATROID_FUNCTIONS]
    names += list(verify_span_names())
    names += [f"cli.{command}" for command in CLI_COMMANDS]
    return names


class Tracer:
    def __init__(self):
        self.spans = []
        self.ops = []
        self.op = None
        self._stack = []
        self._next_id = 0
        self._counters_before = None

    # -- recording

    def wrap(self, func, name, namer=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return func(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            failed = False
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                label = namer(args, kwargs) if namer else name
                tracer.spans.append((tracer.op, span_id, parent, label, start, end, failed))

        return traced

    def record(self, name, start, end, failed):
        """A span timed by the caller, such as a CLI subprocess."""
        span_id = self._next_id
        self._next_id += 1
        self.spans.append((self.op, span_id, None, name, start, end, failed))
        return span_id

    def adopt(self, child_spans, parent):
        """Attach spans recorded in a child process under `parent`."""
        remap = {}
        for _op, span_id, span_parent, name, start, end, failed in child_spans:
            remap[span_id] = self._next_id
            self._next_id += 1
        for _op, span_id, span_parent, name, start, end, failed in child_spans:
            new_parent = remap[span_parent] if span_parent is not None else parent
            self.spans.append((self.op, remap[span_id], new_parent, name, start, end, failed))

    def begin_op(self, op_id):
        self.op = op_id
        self._counters_before = read_counters()

    def end_op(self, meta, child_counters=None):
        """Close the op; counters are deltas, except table sizes, which are
        read after it.  A CLI op passes the counters of its child process."""
        after = read_counters()
        counters = {
            key: value if key.endswith(".currsize") else value - self._counters_before[key]
            for key, value in after.items()
        }
        for key, value in (child_counters or {}).items():
            counters[key] = max(counters[key], value) if key.endswith(".currsize") else counters[key] + value
        self.ops.append({"op": self.op, **meta, "counters": counters})
        self.op = None

    # -- installing

    def install(self):
        """Wrap the listed public functions in every loaded nqsym module."""
        from nqsym import elements, matroids, qsym

        targets = {}
        for name in QSYM_FUNCTIONS:
            func = getattr(qsym, name)
            namer = _convert_name if name == "convert" else None
            targets[func] = self.wrap(func, f"qsym.{name}", namer)
        for name in MATROID_FUNCTIONS:
            func = getattr(matroids, name)
            targets[func] = self.wrap(func, f"matroids.{name}")
        for name, func in verify_span_names().items():
            targets[func] = self.wrap(func, name)
        for module_name, module in list(sys.modules.items()):
            if module_name == "nqsym" or module_name.startswith("nqsym."):
                for attr, value in list(vars(module).items()):
                    if callable(value) and value in targets:
                        setattr(module, attr, targets[value])

        element_cls = elements.QSymElement
        from_json = element_cls.__dict__["from_json"].__func__
        element_cls.from_json = classmethod(self.wrap(from_json, "elements.from_json"))
        element_cls.to_json = self.wrap(element_cls.to_json, "elements.to_json")
        matroids.Matroid.__init__ = self.wrap(matroids.Matroid.__init__, "matroids.Matroid")

    # -- output

    def dump(self, path):
        with open(path, "w") as handle:
            for op in self.ops:
                handle.write(json.dumps({"type": "op", **op}, sort_keys=True) + "\n")
            for op, span_id, parent, name, start, end, failed in self.spans:
                record = {
                    "type": "span",
                    "op": op,
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "error": failed,
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_counters():
    from nqsym import qsym

    out = {}
    for table, fields in COUNTERS.items():
        info = getattr(qsym, table).cache_info()
        for field in fields:
            out[f"qsym.{table}.{field}"] = getattr(info, field)
    return out


def self_times(spans):
    """Per span id: duration minus the durations of its direct children.

    Spans of one thread nest, so direct children never overlap and their
    durations add up to the part of the parent they cover."""
    child_time = {}
    for _op, _id, parent, _name, start, end, _failed in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {
        span_id: (end - start) - child_time.get(span_id, 0.0)
        for _op, span_id, _parent, _name, start, end, _failed in spans
    }


def layer_metrics(tracer, op_degree):
    """Per-layer totals for one session: self time, calls and errors per
    span name, counter deltas summed over ops, table sizes at the end, and
    qsym self time summed by op degree, for ops that op_degree maps to one."""
    metrics = {}
    for name in span_names():
        if not name.startswith("cli."):
            metrics[f"{name}.self_s"] = 0.0
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.errors"] = 0
    for degree in (6, 7, 8, 9):
        metrics[f"qsym.degree{degree}.self_s"] = 0.0
    selfs = self_times(tracer.spans)
    for op, span_id, _parent, name, _start, _end, failed in tracer.spans:
        if not name.startswith("cli."):
            metrics[f"{name}.self_s"] += selfs[span_id]
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.errors"] += int(failed)
        degree = op_degree.get(op)
        if degree in (6, 7, 8, 9) and name.startswith("qsym."):
            metrics[f"qsym.degree{degree}.self_s"] += selfs[span_id]
    for key in read_counters():
        values = [op["counters"][key] for op in tracer.ops]
        if key.endswith(".currsize"):
            metrics[key] = max(values, default=0)
        else:
            metrics[key] = sum(values)
    return metrics
