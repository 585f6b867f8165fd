"""Per-layer tracing from outside the program.

The tracer wraps the public functions of every copoisson module and
rebinds each wrapper in every module that imported the original, so calls
between layers pass through it.  Each call is a frame on one stack; a
frame's self time is its duration minus the durations of the traced calls
it made, so the self times of all frames, operation frames included, add
up to the traced wall time.  Counts and self times are aggregated per
function.  Coarse calls (operations, checks, solvers, file I/O) also keep a
raw span with its parent, up to SPAN_CAP spans per function; the hot inner
functions, called up to millions of times, are aggregated only.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
from time import perf_counter

SPAN_CAP = 100_000


# (metric prefix, module, attribute, coarse, {counter: fn(args, kwargs, result)})
# `attribute` may be "Class.method".  A counter whose function is None is
# counted by a dedicated wrapper: items yielded by the `splittings`
# generator, characters written by `cli.main`.
TRACED = [
    ("algebra.splittings", "algebra", "splittings", False, {"yielded": None}),
    ("algebra.sparse_add", "algebra", "_Sparse.__add__", False,
     {"terms_copied": lambda a, k, r: len(a[0].terms)}),
    ("algebra.sparse_add", "algebra", "_Sparse.__sub__", False,
     {"terms_copied": lambda a, k, r: len(a[1].terms)}),
    ("algebra.tensor2_mul", "algebra", "tensor2_mul", False, {}),
    ("algebra.poly_mul", "algebra", "Poly.__mul__", False, {}),
    ("algebra.monomials", "algebra", "monomials", False,
     {"yielded": lambda a, k, r: len(r)}),
    ("hopf.comult", "hopf", "comult", False, {}),
    ("hopf.q_from_i", "hopf", "q_from_i", False, {}),
    ("hopf.i_from_q", "hopf", "i_from_q", False, {}),
    ("hopf.p_from_j", "hopf", "p_from_j", False, {}),
    ("hopf.j_from_p", "hopf", "j_from_p", False, {}),
    ("hopf.delta_left", "hopf", "delta_left", False, {}),
    ("hopf.delta_right", "hopf", "delta_right", False, {}),
    ("hopf.q_left", "hopf", "q_left", False, {}),
    ("hopf.q_right", "hopf", "q_right", False, {}),
    ("structures.make_copoisson", "structures", "make_copoisson", True, {}),
    ("structures.poisson_bracket", "structures", "poisson_bracket", False, {}),
    ("structures.copoisson_from_series", "structures", "copoisson_from_series", True, {}),
    ("structures.series_from_copoisson", "structures", "series_from_copoisson", True, {}),
    ("checks.check_skew", "checks", "check_skew", True, {}),
    ("checks.check_cojacobi", "checks", "check_cojacobi", True, {}),
    ("checks.check_cojacobi_coeffs", "checks", "check_cojacobi_coeffs", True, {}),
    ("checks.check_coleibniz", "checks", "check_coleibniz", True, {}),
    ("checks.check_counit_kill", "checks", "check_counit_kill", True, {}),
    ("checks.check_delta_derivation", "checks", "check_delta_derivation", True, {}),
    ("checks.check_antipode_coanti", "checks", "check_antipode_coanti", True, {}),
    ("checks.check_support_condition", "checks", "check_support_condition", True, {}),
    ("checks.check_jacobi", "checks", "check_jacobi", True, {}),
    ("checks.check_poisson_hopf_compat", "checks", "check_poisson_hopf_compat", True, {}),
    ("checks.check_eps_s_morphisms", "checks", "check_eps_s_morphisms", True, {}),
    ("checks.check_linear_relations", "checks", "check_linear_relations", True, {}),
    ("checks.check_dual_of_abcd", "checks", "check_dual_of_abcd", True, {}),
    ("checks.cojacobi_affordable_degree", "checks", "cojacobi_affordable_degree", True, {}),
    ("dual.dual_bracket", "dual", "dual_bracket", True, {}),
    ("dual.verify_main5_roundtrip", "dual", "verify_main5_roundtrip", True, {}),
    ("finite.FinHopf.create", "finite", "FinHopf.create", True, {}),
    ("finite.rref", "finite", "rref", True,
     {"rows": lambda a, k, r: len(a[0]), "cols": lambda a, k, r: a[1]}),
    ("finite.solve_poisson_family", "finite", "solve_poisson_family", True, {}),
    ("finite.solve_copoisson_family", "finite", "solve_copoisson_family", True, {}),
    ("finite.quadratic_residual_family", "finite", "quadratic_residual_family", True, {}),
    ("parser.parse_poly", "parser", "parse_poly", False,
     {"chars": lambda a, k, r: len(a[0])}),
    ("fileformat.load_spec", "fileformat", "load_spec", True, {}),
    ("fileformat.spec_to_dict", "fileformat", "spec_to_dict", True, {}),
    ("fileformat.dump_json", "fileformat", "dump_json", True,
     {"bytes": lambda a, k, r: len(r.encode("utf-8"))}),
    ("fileformat.spec_digest", "fileformat", "spec_digest", True, {}),
    ("cli.main", "cli", "main", True, {"bytes_out": None}),
]

MODULES = ("algebra", "hopf", "structures", "checks", "dual", "finite",
           "parser", "fileformat", "cli")


def metric_names():
    """Every per-layer metric name, in a fixed order, with its unit."""
    out = []
    seen = set()
    for name, _mod, _attr, _coarse, counters in TRACED:
        if name in seen:
            continue
        seen.add(name)
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
        out.extend((f"{name}.{c}", "count") for c in counters)
    return out


class Stat:
    __slots__ = ("name", "calls", "self_s", "counts", "spans")

    def __init__(self, name):
        self.name = name
        self.calls = 0
        self.self_s = 0.0
        self.counts = {}
        self.spans = 0


class Tracer:
    """Aggregates per-function calls, self time and counts; keeps raw spans
    for operations and coarse calls."""

    def __init__(self):
        self.stats = {}
        self.stack = []        # frames: [stat, span_id, child_time, start]
        self.span_stack = []   # ids of the open spans, innermost last
        self.spans = []        # (id, parent, name, start, end)
        self._undo = []
        self.op_stat = self._stat("op")

    def _stat(self, name):
        if name not in self.stats:
            self.stats[name] = Stat(name)
        return self.stats[name]

    def _push(self, st, coarse, label=None):
        sid = None
        if coarse and st.spans < SPAN_CAP:
            st.spans += 1
            sid = len(self.spans)
            self.spans.append(label or st.name)
            self.span_stack.append(sid)
        frame = [st, sid, 0.0, perf_counter()]
        self.stack.append(frame)
        return frame

    def _pop(self, frame, call=True):
        end = perf_counter()
        st, sid, child, start = frame
        self.stack.pop()
        dur = end - start
        st.calls += call
        st.self_s += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if sid is not None:
            self.span_stack.pop()
            parent = self.span_stack[-1] if self.span_stack else None
            self.spans[sid] = (sid, parent, self.spans[sid], start, end)
        return dur

    def run_op(self, name, fn):
        """Run one benchmark operation as a root frame; returns (result, seconds)."""
        frame = self._push(self.op_stat, True, f"op:{name}")
        try:
            result = fn()
        finally:
            dur = self._pop(frame)
        return result, dur

    def _wrap(self, st, fn, coarse, counters):
        tracer = self

        def count(args, kwargs, result):
            for key, f in counters.items():
                if f is not None:
                    st.counts[key] = st.counts.get(key, 0) + f(args, kwargs, result)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] is st:
                # a direct re-entry (a - b runs a + (-b)) folds into its caller
                result = fn(*args, **kwargs)
                count(args, kwargs, result)
                return result
            frame = tracer._push(st, coarse)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
            count(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, st, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            st.calls += 1

            def resume():
                while True:
                    frame = tracer._push(st, False)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._pop(frame, call=False)
                    st.counts["yielded"] = st.counts.get("yielded", 0) + 1
                    yield item

            return resume()

        return wrapper

    def _wrap_cli_main(self, st, fn):
        inner = self._wrap(st, fn, True, {})

        @functools.wraps(fn)
        def wrapper(argv=None, out=None):
            before = len(out.getvalue()) if isinstance(out, io.StringIO) else 0
            rc = inner(argv, out)
            if isinstance(out, io.StringIO):
                st.counts["bytes_out"] = st.counts.get("bytes_out", 0) + len(
                    out.getvalue()[before:].encode("utf-8"))
            return rc

        return wrapper

    def install(self):
        """Wrap every function of TRACED and rebind it wherever it is bound."""
        pkg = importlib.import_module("copoisson")
        mods = [pkg] + [importlib.import_module(f"copoisson.{m}") for m in MODULES]
        for name, modname, attr, coarse, counters in TRACED:
            st = self._stat(name)
            for key in counters:
                st.counts.setdefault(key, 0)
            mod = importlib.import_module(f"copoisson.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(st, raw.__func__, coarse, counters))
                else:
                    wrapped = self._wrap(st, raw, coarse, counters)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            orig = getattr(mod, attr)
            if attr == "splittings":
                wrapped = self._wrap_generator(st, orig)
            elif name == "cli.main":
                wrapped = self._wrap_cli_main(st, orig)
            else:
                wrapped = self._wrap(st, orig, coarse, counters)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self):
        for obj, key, val in reversed(self._undo):
            setattr(obj, key, val)
        self._undo.clear()

    def metrics(self):
        out = {}
        for name, unit in metric_names():
            prefix, _, field = name.rpartition(".")
            st = self.stats.get(prefix)
            if field == "calls":
                value = st.calls if st else 0
            elif field == "self_s":
                value = st.self_s if st else 0.0
            else:
                value = st.counts.get(field, 0) if st else 0
            out[name] = {"value": value, "unit": unit}
        return out

    def total_self_s(self):
        return sum(st.self_s for st in self.stats.values())

    def write(self, path, meta):
        doc = dict(meta)
        doc["aggregates"] = {
            name: {"calls": st.calls, "self_s": st.self_s, **st.counts}
            for name, st in sorted(self.stats.items())}
        doc["spans"] = [
            {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4]}
            for s in self.spans if isinstance(s, tuple)]
        path.write_text(json.dumps(doc))
