"""Runtime span tracing of the cantorext modules, from outside the package.

`Tracer.install` replaces every public module-level function of each
cantorext module (and the constructors in `CONSTRUCTORS`) with a wrapper
that records one span per call: name, start, end, parent span and job id.
Spans stay in memory; `layer_metrics` turns them into per-layer self times
and counts, and `dump` writes them out.  Private helpers are not wrapped, so
their time lands in the public function that called them.
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter

MODULES = ("groups", "cochain", "exactla", "abelian", "dimlim", "toeplitz", "cli")

# (module, class, method): constructors whose work is worth a span of its own
CONSTRUCTORS = (
    ("groups", "OrbitStructure", "__init__"),
    ("groups", "FiniteGroup", "__init__"),
    ("abelian", "AbHom", "__post_init__"),
    ("dimlim", "StationaryLimit", "__post_init__"),
    ("dimlim", "Intertwiner", "__post_init__"),
)

JOB_SPAN = "bench.job"

# exactla functions with a self-time metric of their own; the rest is other_s
EXACTLA_TIMES = {
    "exactla.rank": "exactla.rank_s",
    "exactla.snf_diagonal": "exactla.snf_diagonal_s",
    "exactla.snf": "exactla.snf_s",
}

# span record fields
NAME, START, END, PARENT, JOB, INFO = range(6)


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _orbit_info(args, kwargs, _out):
    # OrbitStructure.__init__(self, space, n, cap)
    self, space = args[0], _arg(args, kwargs, 1, "space")
    tuples = 0 if space.is_regular else space.size ** self.n
    return (self.count, tuples, (id(space), self.n))


def _differential_info(args, kwargs, out):
    # differential_matrix(k, n, cap, validate); validation defaults to non-regular k
    k = args[0]
    validate = _arg(args, kwargs, 3, "validate")
    if validate is None:
        validate = not k.is_regular
    return (out.nnz, out.rows if validate else 0)


def _nnz_in(args, kwargs, _out):
    return args[0].nnz


def _cells_in(args, kwargs, _out):
    m = args[0]
    return m.rows * m.cols


# counters recorded at the layer boundary, computed after the span has ended
HOOKS = {
    "groups.OrbitStructure": _orbit_info,
    "cochain.differential_matrix": _differential_info,
    "exactla.rank": _nnz_in,
    "exactla.snf_diagonal": _nnz_in,
    "exactla.snf": _cells_in,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None
        self._jobs = 0
        self._restore = []  # (namespace, attribute, original) to undo install

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if hook is not None:
                rec[INFO] = hook(args, kwargs, out)
            return out

        return wrapper

    def begin_job(self):
        """Open the root span of the next job; spans inside it carry its id."""
        self._job = self._jobs
        self._jobs += 1
        rec = [JOB_SPAN, 0.0, 0.0, -1, self._job, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()

    def end_job(self):
        rec = self.spans[self._stack.pop()]
        rec[END] = perf_counter()
        self._job = None

    # -- installation ------------------------------------------------------

    def install(self, mods):
        """Wrap the public functions and listed constructors of `mods`.

        `mods` maps short module names to the imported cantorext modules.
        Every module namespace holding a reference to a wrapped function
        (for example cochain's `coset_space`) gets the wrapper too.
        """
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for short in MODULES:
            mod = mods[short]
            for attr, val in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(val)
                        and val.__module__ == mod.__name__):
                    wrapped[val] = self._wrap(f"{short}.{attr}", val)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapped[val])
        for short, cls_name, meth in CONSTRUCTORS:
            cls = getattr(mods[short], cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}", orig))

    def uninstall(self):
        for target, attr, orig in reversed(self._restore):
            setattr(target, attr, orig)
        self._restore = []

    def dump(self, path, meta):
        """Write the spans as JSON lines: one header line, then one per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def layer_metrics(spans):
    """Per-layer totals over `spans` (self times in seconds, counts as numbers).

    Toeplitz time is split three ways without overlap: everything under a
    `default_enumeration` span is enumeration time, and outside it
    `generate_window` self time is window time and the rest is check time.
    """
    selfs = self_times(spans)
    m = {key: 0 for key in (
        "groups.self_s", "groups.orbit_structures_built", "groups.orbit_structures_distinct",
        "groups.tuples_materialized", "groups.orbits",
        "cochain.self_s", "cochain.differentials_built", "cochain.differential_nnz",
        "cochain.validated_reps",
        "exactla.rank_s", "exactla.snf_diagonal_s", "exactla.snf_s",
        "exactla.dense_core_cells", "exactla.echelon_nnz_in", "exactla.other_s",
        "abelian.self_s", "abelian.calls", "dimlim.self_s", "dimlim.calls",
        "toeplitz.window_s", "toeplitz.check_s", "toeplitz.enumeration_s",
        "toeplitz.enumeration_candidates", "toeplitz.enumeration_searches",
        "cli.self_s", "bench.self_s", "trace.spans",
    )}
    in_enum = [False] * len(spans)
    distinct = set()
    for i, rec in enumerate(spans):
        name, parent, info = rec[NAME], rec[PARENT], rec[INFO]
        layer = name.split(".", 1)[0]
        own = selfs[i]
        m["trace.spans"] += 1
        if parent >= 0:
            in_enum[i] = in_enum[parent] or spans[parent][NAME] == "toeplitz.default_enumeration"
        if in_enum[i]:  # counted inside toeplitz.enumeration_s
            if name == "toeplitz.essential_values_check" and \
                    spans[parent][NAME] == "toeplitz.default_enumeration":
                m["toeplitz.enumeration_candidates"] += 1
        elif layer == "bench":
            m["bench.self_s"] += own
        elif layer == "exactla":
            m[EXACTLA_TIMES.get(name, "exactla.other_s")] += own
            if name == "exactla.snf":
                m["exactla.dense_core_cells"] += info
            elif name in ("exactla.rank", "exactla.snf_diagonal"):
                m["exactla.echelon_nnz_in"] += info
        elif layer == "toeplitz":
            if name == "toeplitz.default_enumeration":
                m["toeplitz.enumeration_s"] += rec[END] - rec[START]
                m["toeplitz.enumeration_searches"] += 1
            elif name == "toeplitz.generate_window":
                m["toeplitz.window_s"] += own
            else:
                m["toeplitz.check_s"] += own
        else:
            m[f"{layer}.self_s"] += own
            if layer in ("abelian", "dimlim"):
                m[f"{layer}.calls"] += 1
            elif name == "groups.OrbitStructure":
                count, tuples, key = info
                m["groups.orbit_structures_built"] += 1
                m["groups.orbits"] += count
                m["groups.tuples_materialized"] += tuples
                distinct.add((rec[JOB], key))
            elif name == "cochain.differential_matrix":
                m["cochain.differentials_built"] += 1
                m["cochain.differential_nnz"] += info[0]
                m["cochain.validated_reps"] += info[1]
    m["groups.orbit_structures_distinct"] = len(distinct)
    return m
