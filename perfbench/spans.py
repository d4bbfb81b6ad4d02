"""Per-layer instrumentation installed from outside the package.

Two kinds of wrapper replace plethy's public functions (and a fixed set of
methods) in every module namespace that holds them:

* ``Tracer`` records one span per call: name, start, end and parent.  Spans
  are kept in flat arrays and reduced to self and inclusive times once the
  workload has finished.
* ``Counter`` counts calls and result sizes, and, through ``count_ring_ops``,
  every call into the ``Ring`` interface.  Counts are never timed: the
  counting wrappers sit on scalar operations that run millions of times.

Nothing here is imported by plethy.  An untraced workload process imports
this module only after its measurement, to check that nothing was wrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

MODULES = (
    "rings",
    "tableaux",
    "spaces",
    "schur",
    "iso",
    "characters",
    "conjecture",
    "dump",
    "cli",
)

# Public functions called once per basis label, pair or scalar.  They run
# hundreds of thousands of times per workload, so a span around each would
# mostly measure the tracer; their time stays in the caller's self time.
PER_LABEL = frozenset(
    {
        "rings.binomial",
        "tableaux.is_increasing",
        "tableaux.is_semistandard",
        "tableaux.content",
        "tableaux.pair_alpha",
        "tableaux.neighbour",
        "tableaux.content_chain",
        "tableaux.box",
        "tableaux.pair_sort_key",
        "tableaux.pair_precedes",
        "tableaux.pair_to_increasing",
        "tableaux.increasing_to_pair",
        "spaces.basis",
        "spaces.basis_index",
        "spaces.dim",
        "spaces.ydegree",
        "spaces.total_degree",
        "spaces.label_str",
        "spaces.label_to_json",
        "spaces.label_from_json",
        "spaces.wedge_normalize",
        "iso.basis_image",
        "iso.triangular_witness",
        "iso.reversal_sign",
        "characters.qpoly",
        "characters.q_integer",
        "dump.payload_to_json",
        "dump.payload_from_json",
        "cli.note",
    }
)

# Methods that carry layer work, by (module, class, attribute) -> span name.
METHODS = {
    ("spaces", "LinearMap", "from_function"): "spaces.from_function",
    ("spaces", "LinearMap", "apply"): "spaces.apply",
    ("spaces", "LinearMap", "compose"): "spaces.compose",
    ("spaces", "LinearMap", "__sub__"): "spaces.LinearMap.sub",
    ("spaces", "LinearMap", "__eq__"): "spaces.LinearMap.eq",
    ("spaces", "LinearMap", "map_entries"): "spaces.map_entries",
    ("schur", "HookSchurSpace", "__init__"): "schur.HookSchurSpace",
    ("schur", "HookSchurSpace", "basis_matrix"): "schur.basis_matrix",
    ("schur", "HookSchurSpace", "coordinates"): "schur.coordinates",
    ("schur", "HookSchurSpace", "_coordinates_fallback"): "schur.coordinates_fallback",
    ("iso", "IsoContext", "__init__"): "iso.IsoContext",
    ("iso", "IsoContext", "weight_block_matrix"): "iso.weight_block_matrix",
    ("iso", "IsoContext", "inverse"): "iso.inverse",
}

WRAPPED = "__perfbench_wrapped__"


def _jordan_variant(args, kwargs):
    p = args[0] if args else kwargs["p"]
    vectors = args[2] if len(args) > 2 else kwargs.get("vectors")
    side = "ambient" if vectors is None else "kernel"
    return (f"conjecture.jordan_fingerprint.p{p}", f"conjecture.jordan_fingerprint.{side}")


# Extra labels a call is also credited to, computed from its arguments.
VARIANTS = {"conjecture.jordan_fingerprint": _jordan_variant}


def _iso_blocks(result, args):
    sizes = [len(b) for b in args[0].weight_blocks().values()]
    return [("iso.weight_blocks", len(sizes), sum), ("iso.max_block", max(sizes, default=0), max)]


# Sizes recorded by the counting pass: span name -> fn(result, args) giving
# (metric, value, combine) triples; combine folds values over calls.
SIZES = {
    "spaces.compose": lambda r, a: [("spaces.compose.entries_out", r.entry_count(), sum)],
    "iso.inverse": lambda r, a: [("iso.inverse.nnz", r.entry_count(), sum)],
    "iso.IsoContext": _iso_blocks,
    "dump.dump_payload": lambda r, a: [("dump.payload_bytes", len(r.encode()), sum)],
}


def _is_public_function(mod, attr, obj) -> bool:
    if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
        return False
    # functools.cache wrappers are not plain functions but carry cache_info
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


def targets():
    """(original, span name, owner, attribute) for everything to wrap.

    Owner is a class for methods and the defining module for functions;
    functions are rebound by identity in every plethy namespace later."""
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"plethy.{short}")
        for attr, obj in list(vars(mod).items()):
            name = f"{short}.{attr}"
            if _is_public_function(mod, attr, obj) and name not in PER_LABEL:
                out.append((obj, name, mod, attr))
    for (short, cls_name, attr), name in METHODS.items():
        cls = getattr(importlib.import_module(f"plethy.{short}"), cls_name)
        out.append((vars(cls)[attr], name, cls, attr))
    return out


def _namespaces():
    return [importlib.import_module("plethy")] + [
        importlib.import_module(f"plethy.{m}") for m in MODULES
    ]


def install(make_wrapper):
    """Replace every target with make_wrapper(fn, name, variant).

    Functions are replaced in every plethy namespace that imported them by
    name, so cli.verify_structure is wrapped as well as iso.verify_structure."""
    by_id = {}
    for obj, name, owner, attr in targets():
        variant = VARIANTS.get(name)
        if not isinstance(owner, type):
            by_id[id(obj)] = (obj, make_wrapper(obj, name, variant))
        elif isinstance(obj, classmethod):
            setattr(owner, attr, classmethod(make_wrapper(obj.__func__, name, variant)))
        else:
            setattr(owner, attr, make_wrapper(obj, name, variant))
    for ns in _namespaces():
        for attr, value in list(vars(ns).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(ns, attr, hit[1])


def installed_wrappers() -> int:
    """How many plethy bindings are wrappers made by this module."""
    found = 0
    for ns in _namespaces():
        for value in vars(ns).values():
            members = vars(value).values() if isinstance(value, type) else (value,)
            for member in members:
                member = getattr(member, "__func__", member)
                found += bool(getattr(member, WRAPPED, False))
    return found


def _mark(wrapper):
    setattr(wrapper, WRAPPED, True)
    return wrapper


# ------------------------------------------------------------------- tracing


class Tracer:
    """Spans in flat arrays: label id, parent index, start, end."""

    def __init__(self):
        self.labels: list[tuple[str, ...]] = []
        self._label_ids: dict = {}
        self.label_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def label_id(self, labels: tuple[str, ...]) -> int:
        lid = self._label_ids.get(labels)
        if lid is None:
            lid = self._label_ids[labels] = len(self.labels)
            self.labels.append(labels)
        return lid

    def wrap(self, fn, name, variant):
        fixed = self.label_id((name,))
        stack = self._stack
        label_of, parent, start, end = self.label_of, self.parent, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            lid = fixed if variant is None else self.label_id((name, *variant(args, kwargs)))
            sid = len(start)
            label_of.append(lid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()

        return _mark(wrapper)

    def aggregate(self) -> dict:
        return aggregate(self.labels, self.label_of, self.parent, self.start, self.end)


def aggregate(labels, label_of, parent, start, end) -> dict:
    """Per label: calls, self_s and incl_s.

    Spans must be listed in start order with each child inside its parent.
    Self time is a span's duration minus the part of it that its child spans
    cover.  Inclusive time counts only spans with no ancestor credited to the
    same label, so recursion is not counted twice."""
    n = len(start)
    covered = [0.0] * n
    last_end = [float("-inf")] * n
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], last_end[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        last_end[p] = max(last_end[p], end[i])
    out: dict = {}
    for i in range(n):
        dur = end[i] - start[i]
        for label in labels[label_of[i]]:
            row = out.setdefault(label, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur - covered[i]
            p = parent[i]
            while p >= 0 and label not in labels[label_of[p]]:
                p = parent[p]
            if p < 0:
                row["incl_s"] += dur
    return out


# ------------------------------------------------------------------ counting


class Counter:
    """Exact counts: calls per label, sizes per SIZES, ring operations."""

    def __init__(self):
        self.counts: dict[str, int] = {}

    def add(self, key: str, value: int = 1, combine=sum):
        old = self.counts.get(key)
        self.counts[key] = value if old is None else combine((old, value))

    def wrap(self, fn, name, variant):
        sizes = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(f"{name}.calls")
            if variant is not None:
                for label in variant(args, kwargs):
                    self.add(f"{label}.calls")
            result = fn(*args, **kwargs)
            if sizes is not None:
                for key, value, combine in sizes(result, args):
                    self.add(key, value, combine)
            return result

        return _mark(wrapper)


RING_OPS = ("add", "sub", "mul", "neg", "is_zero", "eq", "div", "pow", "from_int")


def count_ring_ops(counter: Counter):
    """Count every call into the Ring interface, per ring, and every IntPoly
    construction.  Z[var] rings are told apart by their variable."""
    from plethy import rings

    counts = counter.counts
    fixed = {
        rings.IntegerRing: "rings.ops.ZZ",
        rings.RationalField: "rings.ops.QQ",
        rings.PrimeField: "rings.ops.GF",
    }
    for cls in (*fixed, rings.IntPolynomialRing):
        for op in RING_OPS:
            fn = getattr(cls, op)
            key = fixed.get(cls)

            def wrapper(self, *args, _fn=fn, _key=key):
                k = _key or f"rings.ops.ZZ_{self.var}"
                counts[k] = counts.get(k, 0) + 1
                return _fn(self, *args)

            setattr(cls, op, _mark(functools.wraps(fn)(wrapper)))

    init = rings.IntPoly.__init__

    def intpoly_init(self, *args, **kwargs):
        counts["rings.intpoly_new"] = counts.get("rings.intpoly_new", 0) + 1
        init(self, *args, **kwargs)

    rings.IntPoly.__init__ = _mark(functools.wraps(init)(intpoly_init))
