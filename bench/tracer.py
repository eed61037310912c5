"""Span tracer for qzeta's public functions, applied from outside the package.

The tracer keeps every span in memory -- name, start, end, parent span and
run id (the index of the workload operation that caused it) -- and derives
the per-layer metrics from them after the run.  It changes nothing under
``src/``: ``traced()`` replaces each traced function by a timing wrapper in
every namespace that holds it, then puts every original back.

Every binding has to be replaced, not just the defining one: modules copy
functions into their own namespace with from-imports
(``zeta_engine.solve_linear``, ``braided.sparse_int_rank``, the names in
``verify``, ``cli`` and ``qzeta/__init__``), and classes alias operators
(``__rmul__ = __mul__``).  Patching only ``linalg.solve_linear`` would record
nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "qzeta"

# (span name, defining module, qualified name) of every traced function.
LAYERS = [
    ("qlaurent.exact_div", "qlaurent", "QLaurent.exact_div"),
    ("qlaurent.mul", "qlaurent", "QLaurent.__mul__"),
    ("qcombinat.q_binom_sym", "qcombinat", "q_binom_sym"),
    ("tseries.mul", "tseries", "TSeries.__mul__"),
    ("tseries.invert_unit", "tseries", "TSeries.invert_unit"),
    ("qtpoly.mul", "qtpoly", "QTPoly.__mul__"),
    ("qtpoly.expand", "qtpoly", "FactoredRatQT.expand"),
    ("linalg.solve_linear", "linalg", "solve_linear"),
    ("linalg.sparse_int_rank", "linalg", "sparse_int_rank"),
    ("braided.extend", "braided", "SymmetrizerLadder.extend"),
    ("braided.word_perms", "braided", "SymmetrizerLadder._word_inverse_perms"),
    ("zeta_engine.fit_gh", "zeta_engine", "fit_gh"),
    ("zeta_engine.cm_series_cs", "zeta_engine", "cm_series_cs"),
    ("zeta_engine.cm_from_zeta", "zeta_engine", "cm_from_zeta"),
    ("zeta_engine.cm_recursion_step", "zeta_engine", "cm_recursion_step"),
    ("zeta_engine.verify_functional_eq", "zeta_engine", "verify_functional_eq"),
    ("sl2.cs_sym_power", "sl2", "cs_sym_power"),
    ("sphere.verify_dim_numeric", "sphere", "verify_dim_numeric"),
    ("sphere.sphere_zeta_coeff", "sphere", "sphere_zeta_coeff"),
    ("rmatrix.sym_subspace_dims", "rmatrix", "sym_subspace_dims"),
    ("rmatrix.quantum_trace_sym", "rmatrix", "quantum_trace_sym"),
]

# Pulls from the row iterator that SymmetrizerLadder.extend hands to
# sparse_int_rank run the candidate-row generator; they get their own span
# so that generating rows is not counted as elimination.
CANDIDATE_ROWS = "braided.candidate_rows"


def _size_counts(name, args):
    """Work counts read from a traced call's arguments."""
    if name == "qlaurent.exact_div":
        return {"qlaurent.exact_div.terms": len(args[0])}
    if name == "linalg.solve_linear":
        m = args[0]
        rows = getattr(m, "rows", None)
        if rows is None:
            rows, cols = len(m), len(m[0]) if m else 0
        else:
            cols = m.cols
        return {"linalg.solve_linear.cells": rows * cols}
    if name == "braided.extend":
        ladder = args[0]
        return {"braided.columns": ladder.x.size ** (ladder.level + 1)}
    return None


class Tracer:
    """In-memory spans plus exact counters, on a replaceable clock."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.counts = Counter()
        self.run_id = 0
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def self_times(self) -> dict:
        """Seconds per span name, each span minus the time of its child spans."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _parent, _run) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def inside(self, idx: int, ancestor: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, run."""
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps([name, start, end, parent, run]) + "\n")


def _timed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts = _size_counts(name, args)
        if counts:
            tracer.counts.update(counts)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.counts[name + ".ok"] += 1
        return result

    return wrapper


def _timed_rank(tracer: Tracer, name: str, fn):
    """sparse_int_rank wrapper: counts rows pulled and times extend's row pulls."""

    def pulls(rows, timed):
        it = iter(rows)
        while True:
            if timed:
                idx = tracer.open(CANDIDATE_ROWS)
                try:
                    row = next(it, None)
                finally:
                    tracer.close(idx)
            else:
                row = next(it, None)
            if row is None:
                return
            tracer.counts["linalg.sparse_int_rank.rows_in"] += 1
            yield row

    @functools.wraps(fn)
    def wrapper(rows, *args, **kwargs):
        timed = tracer.current() == "braided.extend"
        idx = tracer.open(name)
        try:
            result = fn(pulls(rows, timed), *args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.counts["linalg.sparse_int_rank.rank"] += result[0]
        return result

    return wrapper


def _import_all():
    """Import every qzeta module, so no unpatched from-import can appear later."""
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    return [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]


def _holders(modules):
    """Every qzeta module and every class defined in qzeta."""
    out = list(modules)
    seen = set()
    for mod in modules:
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith(PACKAGE) and id(value) not in seen:
                seen.add(id(value))
                out.append(value)
    return out


def _resolve(module: str, qualname: str):
    obj = importlib.import_module(f"{PACKAGE}.{module}")
    for part in qualname.split("."):
        obj = vars(obj)[part]
    return obj


def install(tracer: Tracer):
    """Replace every binding of every traced function; returns the undo list."""
    modules = _import_all()
    wrappers = {}
    for name, module, qualname in LAYERS:
        fn = _resolve(module, qualname)
        make = _timed_rank if name == "linalg.sparse_int_rank" else _timed
        wrappers[id(fn)] = (fn, make(tracer, name, fn))
    patched = []
    for holder in _holders(modules):
        for attr, value in list(vars(holder).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(holder, attr, hit[1])
                patched.append((holder, attr, value))
    return patched


def restore(patched) -> None:
    for holder, attr, original in reversed(patched):
        setattr(holder, attr, original)


@contextmanager
def traced(tracer: Tracer):
    patched = install(tracer)
    try:
        yield patched
    finally:
        restore(patched)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced run; layers the run never entered read 0."""
    calls = tracer.calls()
    self_s = tracer.self_times()
    counts = tracer.counts
    out = {}
    for name, _module, _qualname in LAYERS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out[f"{CANDIDATE_ROWS}.self_s"] = self_s.get(CANDIDATE_ROWS, 0.0)
    out["qlaurent.exact_div.terms"] = counts["qlaurent.exact_div.terms"]
    out["linalg.solve_linear.cells"] = counts["linalg.solve_linear.cells"]
    rows_in = counts["linalg.sparse_int_rank.rows_in"]
    rank = counts["linalg.sparse_int_rank.rank"]
    out["linalg.sparse_int_rank.rows_in"] = rows_in
    out["linalg.sparse_int_rank.rank"] = rank
    out["linalg.sparse_int_rank.kept_ratio"] = rank / rows_in if rows_in else 0.0
    out["braided.columns"] = counts["braided.columns"]
    attempts = sum(
        1
        for i, s in enumerate(tracer.spans)
        if s[0] == "linalg.solve_linear" and tracer.inside(i, "zeta_engine.fit_gh")
    )
    fits = counts["zeta_engine.fit_gh.ok"]
    out["zeta_engine.fit_gh.attempts"] = attempts
    out["zeta_engine.fit_gh.accept_ratio"] = fits / attempts if attempts else 0.0
    return out
