"""Traced run: span recording around the public functions of liesym.

``Tracer.install`` rebinds every wrapped function, under each name that any
``liesym`` module (the package included) holds it by, e.g. both
``liesym.expr.expand`` and ``liesym.detsys.expand``; ``remove`` puts the
originals back.  No source file is edited.

Each outermost call opens a span (name, start, end, parent span, job) kept in
memory.  A re-entrant call of a function already open on the stack (the
recursion inside ``normalize`` or ``substitute_functions``) is counted but
opens no span, which keeps self times honest and the overhead bounded.
Self time is a span's duration minus the time its child spans cover,
including the wrappers' own bookkeeping around those children.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

MODULES = ("expr", "jet", "detsys", "ratla", "varcalc", "claws", "invariants",
           "parse", "cli")

# The smart constructors and tree walkers are the innermost steps of every
# layer and run millions of times a pass; wrapping them would multiply the
# pass time.  Their time counts as self time of the function calling them.
UNWRAPPED = {
    "expr": {"rat", "const", "sort_key", "add", "mul", "neg", "sub", "pow_",
             "div", "func", "subterms", "atoms_of", "jets_of", "jet_order",
             "contains"},
    "jet": {"multi_indices"},
    "parse": {"tokenize"},
}


def node_count(e) -> int:
    """Tree size of an expression, shared subtrees counted at each use."""
    from liesym import expr as ex

    n, stack = 0, [e]
    while stack:
        x = stack.pop()
        n += 1
        if isinstance(x, ex.Add):
            stack.extend(x.terms)
        elif isinstance(x, ex.Mul):
            stack.extend(x.factors)
        elif isinstance(x, ex.Pow):
            stack.append(x.base)
        elif isinstance(x, ex.Func):
            stack.append(x.arg)
        elif isinstance(x, ex.UFunc):
            stack.extend(x.args)
    return n


def _rref_sizes(args, result, add):
    m = args[0]
    rows = m.to_rows()
    add("ratla.matrix_rows", m.rows)
    add("ratla.matrix_cols", m.cols)
    add("ratla.matrix_nnz", sum(1 for r in rows for x in r if x != 0))
    add("ratla.rank", len(result[1]))


def _expand_sizes(args, result, add):
    add("expr.expand.nodes_in", node_count(args[0]))
    add("expr.expand.nodes_out", node_count(result))


def _determining_sizes(args, result, add):
    add("detsys.equations", len(result.equations))
    add("detsys.split_vars", len(result.splitting_vars))


def _solve_sizes(args, result, add):
    from math import comb

    ds, ansatz = args[0], args[1]
    add("detsys.params", sum(
        comb(len(ds.ctx.unknown_arg_atoms(n)) + ansatz.degree, ansatz.degree)
        for n in ds.xi_names + ds.phi_names))


def _prolong_sizes(args, result, add):
    add("jet.prolong.nodes_out",
        sum(node_count(e) for e in result.coeffs.values()))


SIZERS = {
    "ratla.rref": _rref_sizes,
    "expr.expand": _expand_sizes,
    "detsys.determining_equations": _determining_sizes,
    "detsys.solve_determining": _solve_sizes,
    "jet.prolong": _prolong_sizes,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []     # (id, name, start, end, parent, job)
        self.job = None
        self._stack: list[list] = []     # open spans: [id, child time]
        self._depth: dict[str, int] = defaultdict(int)
        self._bindings: list[tuple] = []
        self.reset()

    def reset(self):
        """Start a new pass: clear the per-pass aggregates."""
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, list[int]] = defaultdict(list)
        self._first_span = len(self.spans)

    def _add_size(self, key, value):
        self.sizes[key].append(value)

    def wrap(self, name: str, fn):
        tracer, stack, depth = self, self._stack, self._depth
        sizer = SIZERS.get(name)

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if depth[name]:
                return fn(*args, **kwargs)
            enter = perf_counter()
            sid = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            tracer.spans.append(None)    # reserve the id; filled on return
            frame = [sid, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[name] -= 1
                stack.pop()
                tracer.spans[sid] = (sid, name, t0, t1, parent, tracer.job)
                tracer.total_s[name] += t1 - t0
                tracer.self_s[name] += t1 - t0 - frame[1]
            if sizer is not None:
                sizer(args, result, tracer._add_size)
            if stack:
                stack[-1][1] += perf_counter() - enter
            return result

        return wrapper

    def install(self):
        import importlib
        import sys

        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"liesym.{short}")
            skip = UNWRAPPED.get(short, set())
            for attr, fn in vars(mod).items():
                if (callable(fn) and getattr(fn, "__module__", None) == mod.__name__
                        and not isinstance(fn, type) and not attr.startswith("_")
                        and attr not in skip):
                    wrappers[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "liesym" and not modname.startswith("liesym."):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._bindings.append((mod, attr, val))

    def remove(self):
        for mod, attr, val in reversed(self._bindings):
            setattr(mod, attr, val)
        self._bindings.clear()

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass traced since the last reset."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.total_s"] = self.total_s[name]
        for key, values in self.sizes.items():
            out[key] = sum(values)
            out[f"{key}.max"] = max(values)
        rows = out.get("ratla.matrix_rows", 0)
        out["ratla.rank_ratio"] = out.get("ratla.rank", 0) / rows if rows else 0.0
        out["trace.spans"] = sum(
            1 for s in self.spans[self._first_span:] if s is not None)
        return out

    def dump(self, path, meta: dict):
        """Write the spans as columns; times in seconds from the first span."""
        spans = [s for s in self.spans if s is not None]
        t_base = min((s[2] for s in spans), default=0.0)
        names = sorted({s[1] for s in spans})
        jobs = sorted({str(s[5]) for s in spans})
        ni = {n: k for k, n in enumerate(names)}
        ji = {j: k for k, j in enumerate(jobs)}
        doc = {
            **meta,
            "columns": ["id", "name", "start_s", "end_s", "parent", "job"],
            "names": names,
            "jobs": jobs,
            "spans": [[s[0], ni[s[1]], round(s[2] - t_base, 9),
                       round(s[3] - t_base, 9), s[4], ji[str(s[5])]]
                      for s in spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

