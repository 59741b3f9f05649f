"""In-memory span tracer for the traced benchmark run.

The tracer wraps, from outside the library, every public function of every
``zeemac.*`` module, plus ``Mat.from_rows``, ``Mat.mul``, ``Mat.mul_vec``
and the ``AffineSemigroup`` constructor.  The modules import each other by
name (``from .linalg import rank``), so a wrapper must replace the name in
every module namespace that holds it, not only in the defining module.

The wrappers are built once and bound only around a traced item
(``install`` / ``uninstall``), so the library runs unwrapped at all other
times.  A span records its name, start, end, parent span and the id of the
benchmark item it ran under.  Self time is the span's duration minus the
intervals its child spans cover.  Counters are taken at the same call
boundaries; the time spent computing them is kept apart (``hook_s``) and
charged to no layer.  Spans stay in memory and are written out at the end.

Eliminations the library runs through the private ``linalg._rref`` are not
wrapped: the canonical rref of ``echelon_representatives`` is counted in
the ``linalg.*`` sizes by a hook on that function, but its time is charged
to ``cohomology``, and the rref in ``semigroup`` to ``semigroup``.
"""

from __future__ import annotations

import gzip
import math
import sys
import types
from array import array
from time import perf_counter

LAYERS = (
    "linalg",
    "cohomology",
    "zeeman",
    "resolutions",
    "eagon_reiner",
    "complexes",
    "semigroup",
    "formats",
    "cli",
)
BENCH = "bench"  # the benchmark's own spans: one per item, one per check


def _nnz(values) -> int:
    return sum(1 for x in values if x)


class Tracer:
    def __init__(self):
        self.item = -1
        self.names: list[str] = []
        self.layer: list[str] = []
        self._ids: dict[str, int] = {}
        # one record per span, in parallel arrays to keep memory small
        self.s_name = array("i")
        self.s_item = array("i")
        self.s_parent = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self._stack: list[list] = []  # open spans: [name id, span index, covered by children]
        self.self_s: dict[int, float] = {}
        self.calls: dict[int, int] = {}
        self.raised: dict[int, int] = {}
        self.counts: dict[str, float] = {}
        self.hook_s = 0.0
        self.epoch = perf_counter()
        self._bindings: list = []  # (owner, attribute, original, wrapper)
        self._item_cochains: dict = {}  # this item's (complex, face, field) -> complex, kept alive
        self.distinct_cochains = 0

    # -- span bookkeeping ---------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer.append(layer)
        return nid

    def _open(self, nid: int, t0: float) -> None:
        parent = self._stack[-1][1] if self._stack else -1
        idx = len(self.s_name)
        self.s_name.append(nid)
        self.s_item.append(self.item)
        self.s_parent.append(parent)
        self.s_start.append(t0 - self.epoch)
        self.s_end.append(0.0)
        self._stack.append([nid, idx, 0.0])

    def _close(self, t0: float, t1: float, t_pre: float, t_post: float) -> None:
        nid, idx, covered = self._stack.pop()
        self.s_end[idx] = t1 - self.epoch
        dur = t1 - t0
        self.self_s[nid] = self.self_s.get(nid, 0.0) + dur - covered
        self.calls[nid] = self.calls.get(nid, 0) + 1
        self.hook_s += (t_post - t_pre) - dur
        if self._stack:
            self._stack[-1][2] += t_post - t_pre

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def bench_span(self, name: str, item: int | None = None):
        """A span of the benchmark's own code; with ``item`` it starts that item."""
        if item is not None:
            self._end_item()
            self.item = item
        return _BenchSpan(self, self.name_id(name, BENCH))

    def _end_item(self) -> None:
        self.distinct_cochains += len(self._item_cochains)
        self._item_cochains.clear()

    def wrap(self, fn, name: str, layer: str, pre=None, post=None, rename=None):
        tracer = self
        nid = self.name_id(name, layer)

        def traced(*args, **kwargs):
            t_pre = perf_counter()
            if pre is not None:
                pre(tracer, args, kwargs)
            tracer._open(nid if rename is None else tracer.name_id(rename(args, kwargs), layer), t_pre)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                top = tracer._stack[-1][0]
                tracer.raised[top] = tracer.raised.get(top, 0) + 1
                tracer._close(t0, t1, t_pre, perf_counter())
                raise
            t1 = perf_counter()
            if post is not None:
                post(tracer, args, kwargs, result)
            tracer._close(t0, t1, t_pre, perf_counter())
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every public zeemac function in every zeemac namespace."""
        if not self._bindings:
            self._bind()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in reversed(self._bindings):
            setattr(owner, attr, orig)

    def _bind(self) -> None:
        """Build the wrappers, once, from the unwrapped library."""
        bind = self._bindings
        modules = [m for n, m in sorted(sys.modules.items()) if n == "zeemac" or n.startswith("zeemac.")]
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("zeemac."):
                    continue
                w = wrapped.get(id(obj))
                if w is None:
                    layer = home.split(".", 1)[1]
                    w = wrapped[id(obj)] = self.wrap(obj, attr, layer, **_HOOKS.get(attr, {}))
                bind.append((mod, attr, obj, w))

        linalg = sys.modules["zeemac.linalg"]
        semigroup = sys.modules["zeemac.semigroup"]
        Mat, AffineSemigroup = linalg.Mat, semigroup.AffineSemigroup
        from_rows = vars(Mat)["from_rows"]
        bind.append((Mat, "from_rows", from_rows, classmethod(self.wrap(from_rows.__func__, "from_rows", "linalg"))))
        for attr in ("mul", "mul_vec"):
            orig = vars(Mat)[attr]
            bind.append((Mat, attr, orig, self.wrap(orig, "mat_mul", "linalg")))
        for attr, name in (("__init__", "AffineSemigroup"), ("face_with_vanishing", "face_with_vanishing")):
            orig = vars(AffineSemigroup)[attr]
            bind.append((AffineSemigroup, attr, orig, self.wrap(orig, name, "semigroup")))

    # -- results ------------------------------------------------------------

    def _by_name(self, table, name: str):
        nid = self._ids.get(name)
        return table.get(nid, 0) if nid is not None else 0

    def layer_self(self, layer: str) -> float:
        return sum(t for nid, t in self.self_s.items() if self.layer[nid] == layer)

    def metrics(self, passes: int, wall_s: float) -> dict:
        """Per-layer metrics per pass (units: ``unit_of``)."""
        per = 1.0 / passes
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.layer_self(layer) * per
        for name in (
            "rank",
            "column_prefix_ranks",
            "kernel_basis",
            "image_basis",
            "solve_in_subspace",
            "mat_mul",
            "from_rows",
            "cochain_complex",
            "cohomology_summary",
        ):
            m[f"{name}.calls"] = self._by_name(self.calls, name) * per
            m[f"{name}.self_s"] = self._by_name(self.self_s, name) * per
        for name in (
            "is_cohen_macaulay",
            "build",
            "total_complex",
            "page1",
            "page2",
            "pageinf",
            "minimal_linear_resolution",
            "verify_exactness",
            "minimality_scan",
            "total_resolution",
            "betti_hochster",
            "cone_of_simplicial",
            "alexander_dual",
        ):
            m[f"{name}.self_s"] = self._by_name(self.self_s, name) * per
        for name in ("reduced_cohomology_dims", "face_lattice", "load_input", "resolution_from_doc"):
            m[f"{name}.calls"] = self._by_name(self.calls, name) * per
        c = self.counts
        entries = c.get("linalg.entries", 0)
        m["linalg.entries"] = entries * per
        m["linalg.nnz"] = c.get("linalg.nnz", 0) * per
        m["linalg.density"] = c.get("linalg.nnz", 0) / entries if entries else 0.0
        m["linalg.max_entries"] = c.get("linalg.max_entries", 0)
        self._end_item()
        cochain_calls = self._by_name(self.calls, "cochain_complex")
        m["cohomology.distinct_faces"] = self.distinct_cochains * per
        m["cohomology.reuse_ratio"] = self.distinct_cochains / cochain_calls if cochain_calls else 0.0
        m["zeeman.pairs"] = c.get("zeeman.pairs", 0) * per
        m["resolutions.refusals"] = self._by_name(self.raised, "minimal_linear_resolution") * per
        m["resolutions.terms"] = c.get("resolutions.terms", 0) * per
        m["complexes.faces"] = c.get("complexes.faces", 0) * per
        m["formats.bytes_out"] = c.get("formats.bytes_out", 0) * per
        for code in (0, 1, 2):
            m[f"cli.exit{code}"] = c.get(f"cli.exit{code}", 0) * per
        m["cli.uncaught"] = self._by_name(self.raised, "run") * per
        layer_total = sum(self.layer_self(layer) for layer in LAYERS)
        bench_self = self.layer_self(BENCH)
        m["bench.self_s"] = bench_self * per
        m["trace.hook_s"] = self.hook_s * per
        m["trace.remainder_s"] = (wall_s - layer_total - bench_self - self.hook_s) * per
        m["trace.wall_s"] = wall_s * per
        m["trace.spans"] = len(self.s_name) * per
        return m

    def write(self, path: str) -> None:
        """Write every span as one CSV row, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,layer,item,parent,start_s,end_s\n")
            names, layers = self.names, self.layer
            for i in range(len(self.s_name)):
                nid = self.s_name[i]
                fh.write(
                    f"{i},{names[nid]},{layers[nid]},{self.s_item[i]},{self.s_parent[i]},"
                    f"{self.s_start[i]:.7f},{self.s_end[i]:.7f}\n"
                )


class _BenchSpan:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.t0 = perf_counter()
        self.tracer._open(self.nid, self.t0)
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        self.tracer._close(self.t0, t1, self.t0, t1)
        return False


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("linalg.density", "cohomology.reuse_ratio", "trace.overhead"):
        return "ratio"
    if name == "formats.bytes_out":
        return "bytes"
    if name == "src_loc":
        return "lines"
    return "count"


# -- counters taken at call boundaries ---------------------------------------


def _count_matrix(tr: Tracer, rows: int, cols: int, nnz: int) -> None:
    entries = rows * cols
    tr.count("linalg.entries", entries)
    tr.count("linalg.nnz", nnz)
    if entries > tr.counts.get("linalg.max_entries", 0):
        tr.counts["linalg.max_entries"] = entries


def _pre_elimination(tr, args, kwargs):
    m = args[0]
    _count_matrix(tr, m.rows, m.cols, _nnz(m.entries))


def _pre_prefix_ranks(tr, args, kwargs):
    m, order = args[0], args[2] if len(args) > 2 else kwargs["order"]
    _count_matrix(tr, m.rows, len(order), _nnz(m.entries))


def _pre_solve(tr, args, kwargs):
    target, generators = args[0], args[1]
    _count_matrix(tr, len(target), len(generators) + 1, _nnz(target) + sum(_nnz(g) for g in generators))


def _pre_echelon(tr, args, kwargs):
    kernel, image = args[0], args[1]
    if kernel and kernel[0]:
        vectors = list(image) + list(kernel)
        _count_matrix(tr, len(kernel[0]), len(vectors), sum(_nnz(v) for v in vectors))


def _pre_cochain(tr, args, kwargs):
    fc, g, field = args
    tr._item_cochains[(id(fc), g, field)] = fc


def _post_build(tr, args, kwargs, z):
    tr.count("zeeman.pairs", sum(len(v) for v in z.blocks.values()))


def _post_resolution(tr, args, kwargs, res):
    tr.count("resolutions.terms", sum(len(t) for t in res.terms))


def _post_complex(tr, args, kwargs, fc):
    tr.count("complexes.faces", len(fc.faces))


def _post_dump(tr, args, kwargs, text):
    tr.count("formats.bytes_out", len(text.encode()))


def _post_run(tr, args, kwargs, code):
    tr.count(f"cli.exit{code}")


def _page_name(args, kwargs) -> str:
    r = args[1] if len(args) > 1 else kwargs["r"]
    if r in ("inf", "infinity") or r == math.inf:
        return "pageinf"
    return f"page{r}"


_HOOKS = {
    "rank": {"pre": _pre_elimination},
    "kernel_basis": {"pre": _pre_elimination},
    "image_basis": {"pre": _pre_elimination},
    "column_prefix_ranks": {"pre": _pre_prefix_ranks},
    "solve_in_subspace": {"pre": _pre_solve},
    "echelon_representatives": {"pre": _pre_echelon},
    "cochain_complex": {"pre": _pre_cochain},
    "build": {"post": _post_build},
    "minimal_linear_resolution": {"post": _post_resolution},
    "total_resolution": {"post": _post_resolution},
    "cone_of_simplicial": {"post": _post_complex},
    "subcomplex": {"post": _post_complex},
    "face_lattice": {"post": _post_complex},
    "dump_json": {"post": _post_dump},
    "run": {"post": _post_run},
    "page": {"rename": _page_name},
}
