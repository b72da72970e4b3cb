"""Out-of-program tracing of akblocks: spans, call counts, yields and caches.

``Tracer.install`` replaces public functions of the akblocks modules with
wrappers, in every module namespace that holds them (the package itself
included), so calls inside one module and calls across modules are both
seen.  Spans stay in memory as flat integer records, with a parent id, and
are written out at the end; self time, a span's duration minus the time
its child spans cover, is summed per function as spans close.  Nothing in
akblocks itself is changed on disk.
"""

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict
from itertools import count

# Functions traced with a span each, by defining module.
SPANNED = {
    "multipartition": ("residue_multiset",),
    "blocks": (
        "block_containing",
        "weight",
        "hub",
        "residue_counts",
        "core_block_of",
        "k_value",
        "scopes_condition",
    ),
    "abacus": ("to_multicore", "phi", "render"),
    "branching": ("branching_polynomial",),
    "scopes": ("certificate", "is_kleshchev"),
    "verify": (
        "check_orders",
        "check_residues",
        "check_beta",
        "check_weights",
        "check_smoves",
        "check_core_blocks",
        "check_d_bounds",
        "check_phi",
        "check_branching",
        "check_scopes_maps",
        "check_mahonian",
        "check_enumeration",
    ),
    "cli": ("main",),
}
# Functions called hundreds of thousands of times in a sweep: counted, not spanned.
COUNTED = {
    "multipartition": ("addable_nodes", "removable_nodes"),
    "blocks": ("delta_ij",),
    "branching": ("order_degree",),
}
# Generators whose items are counted (the outermost call of a recursion only).
YIELDING = {"multipartition": ("multipartitions_of",)}

SPAN_FIELDS = ("id", "parent", "request", "name", "start_ns", "end_ns")


class Tracer:
    """Records spans and counts for one process; see the module docstring."""

    def __init__(self):
        self.names = []
        self.spans = array("q")
        self.calls = defaultdict(int)
        self.request = 0
        self.self_ns = []
        self.total_ns = []
        self.span_count = []
        self._ids = count(1)
        self._stack = [[0, 0]]
        self._caches = []

    def install(self) -> None:
        import akblocks
        import akblocks.cli  # noqa: F401  (not imported by the package itself)

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "akblocks"]
        seen = set()
        for mod in modules:
            for obj in vars(mod).values():
                if hasattr(obj, "cache_info") and id(obj) not in seen:
                    seen.add(id(obj))
                    self._caches.append(obj)
        replace = {}
        for wrap, table in ((self._span, SPANNED), (self._count, COUNTED), (self._yields, YIELDING)):
            for short, fnames in table.items():
                mod = sys.modules[f"akblocks.{short}"]
                for fname in fnames:
                    orig = getattr(mod, fname)
                    replace[id(orig)] = (orig, wrap(f"{short}.{fname}", orig))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _span(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.self_ns.append(0)
        self.total_ns.append(0)
        self.span_count.append(0)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        self_ns, total_ns, span_count = self.self_ns, self.total_ns, self.span_count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [next(ids), 0]  # span id, time covered by child spans
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[1] += end - start
                self_ns[idx] += end - start - frame[1]
                total_ns[idx] += end - start
                span_count[idx] += 1
                spans.extend((frame[0], parent[0], self.request, idx, start, end))

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls
        calls[name] += 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yields(self, name: str, fn):
        calls, code = self.calls, fn.__code__
        calls[name] += 0

        def counted(gen):
            for item in gen:
                calls[name] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if sys._getframe(1).f_code is code:
                return gen
            return counted(gen)

        return wrapper

    def cache_totals(self) -> dict:
        infos = [c.cache_info() for c in self._caches]
        return {
            "caches": len(infos),
            "hits": sum(i.hits for i in infos),
            "misses": sum(i.misses for i in infos),
            "entries": sum(i.currsize for i in infos),
        }

    def dump(self, stem) -> None:
        """Write every span to ``<stem>.spans.gz``, then a summary to ``<stem>.json``.

        The spans file is the raw int64 records (SPAN_FIELDS, native byte
        order); ``names`` in the summary maps the name field to a function.
        The summary records how long writing the spans took, so that a
        caller can leave it out of process time.
        """
        start = time.perf_counter()
        with gzip.open(f"{stem}.spans.gz", "wb", compresslevel=1) as fh:
            fh.write(self.spans.tobytes())
        summary = {
            "fields": list(SPAN_FIELDS),
            "names": self.names,
            "spans": {
                name: {
                    "self_s": self.self_ns[k] / 1e9,
                    "total_s": self.total_ns[k] / 1e9,
                    "spans": self.span_count[k],
                }
                for k, name in enumerate(self.names)
            },
            "calls": dict(self.calls),
            "cache": self.cache_totals(),
            "dump_s": time.perf_counter() - start,
        }
        with open(f"{stem}.json", "w") as fh:
            json.dump(summary, fh)
