"""Run-time tracing of bfree's public functions, layer by layer.

``Tracer.install`` replaces each traced function with a wrapper that records
a span (name, start, end, parent) in flat arrays.  A module-level function is
replaced in every ``bfree`` namespace that holds it (``bfree.families.factor``
as well as ``bfree.numtheory.factor``); a method is replaced on its class.
``uninstall`` puts the originals back.  Nothing in the package is edited.

Self time of a span is its duration minus the durations of its direct child
spans; it is computed from the recorded spans after the run.  Work counts are
read from outside the calls: from arguments and results, never from inside
the library.
"""

import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

SEQUENCES = ("Primes", "Geometric", "Explicit")
EXPORTS = ("to_csv", "to_pgm", "to_json_dict")
TIMED = ("calls", "self_s")

# layer -> [(name, attribute paths in the layer's module, counter, reported fields)]
# A counter, when given, reads work counts from (args, result) of a call.
LAYERS = {
    "numtheory": [
        ("factor", ["factor"], None, TIMED + ("cache_hits",)),
        ("primes_up_to", ["primes_up_to"], None, TIMED),
        ("is_prime", ["is_prime"], None, TIMED),
    ],
    "families": [
        ("FamilySpec.covered", ["FamilySpec.covered"], None, TIMED),
        ("FamilySpec.member_containing", ["FamilySpec.member_containing"], None, TIMED),
        ("candidates", [f"{c}.candidates" for c in SEQUENCES], None, TIMED),
        ("residues_mod", [f"{c}.residues_mod" for c in SEQUENCES], "classes", ("calls", "classes", "self_s")),
        ("value_in_class", [f"{c}.value_in_class" for c in SEQUENCES], None, TIMED),
        ("parse_family", ["parse_family"], None, ("self_s",)),
    ],
    "windows": [
        ("free_window", ["free_window"], "cells", ("calls", "cells", "self_s")),
        ("FreeWindow.export", [f"FreeWindow.{m}" for m in EXPORTS], None, ("self_s",)),
        ("density_profile", ["density_profile"], "grid_cells", ("calls", "grid_cells", "self_s")),
        ("find_zero_window", ["find_zero_window"], "translates", ("calls", "translates", "hit_ratio", "self_s")),
        ("syndetic_period", ["syndetic_period"], None, ("self_s",)),
    ],
    "proximality": [
        ("decide", ["decide"], None, TIMED),
        ("check_covering", ["check_covering"], "covering", ("calls", "reps", "classes", "ok_ratio", "self_s")),
        ("prove_no_zero_window", ["prove_no_zero_window"], None, ("self_s",)),
        ("check_fixed_translate", ["check_fixed_translate"], None, ("self_s",)),
        ("crt_window_certificate", ["crt_window_certificate"], None, ("self_s",)),
        ("check_coprime_cover_candidate", ["check_coprime_cover_candidate"], None, ("self_s",)),
        ("conditions_report", ["conditions_report"], None, ("self_s",)),
    ],
    "lattices": [
        ("hnf", ["hnf"], None, TIMED),
        ("Lattice.intersect", ["Lattice.intersect"], None, TIMED),
        ("Lattice.contains", ["Lattice.contains"], None, TIMED),
        ("Lattice.iter_coset_reps", ["Lattice.iter_coset_reps"], "generator", ("yielded", "self_s")),
        ("split_in_sum", ["split_in_sum"], None, TIMED),
    ],
    "cli": [
        ("main", ["main"], None, ("self_s",)),
    ],
}
REPORTED = {f"{layer}.{name}": fields for layer, entries in LAYERS.items() for name, _, _, fields in entries}

UNITS = {"self_s": "s", "hit_ratio": "ratio", "ok_ratio": "ratio"}
HIGHER_IS_BETTER = {"cache_hits", "hit_ratio", "ok_ratio"}


def metric_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for fn, fields in REPORTED.items():
        for field in fields:
            better = "higher" if field in HIGHER_IS_BETTER else "lower"
            out.append((f"{fn}.{field}", UNITS.get(field, "count"), better))
    out.append(("trace_overhead", "ratio", "lower"))
    return out


def _box_volume(box) -> int:
    out = 1
    for a, b in zip(box.lo, box.hi):
        out *= b - a + 1
    return out


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_cells(counts, args, kwargs, result):
    counts["cells"] += _box_volume(result.box)


def _count_grid_cells(counts, args, kwargs, result):
    sides = _arg(args, kwargs, 1, "sides")
    shift = _arg(args, kwargs, 2, "shift_search")
    for n in sides:
        vol = 1
        for a, b in zip(shift.lo, shift.hi):
            vol *= b - a + 1 + 2 * int(n)
        counts["grid_cells"] += vol


def _count_translates(counts, args, kwargs, result):
    # translates examined: the hit's lexicographic index plus one, or the
    # whole search box when nothing was found
    search = _arg(args, kwargs, 2, "search")
    if result is None:
        counts["translates"] += _box_volume(search)
        return
    counts["hits"] += 1
    idx = 0
    for x, a, b in zip(result, search.lo, search.hi):
        idx = idx * (b - a + 1) + (x - a)
    counts["translates"] += idx + 1


def _count_covering(counts, args, kwargs, result):
    if result.covered:
        counts["ok"] += 1
        checks = result.certificate.checks
        counts["classes"] += len(checks)
        counts["reps"] += sum(c.reps_checked for c in checks)


def _count_classes(counts, args, kwargs, result):
    counts["classes"] += len(result)


COUNTERS = {
    "cells": _count_cells,
    "grid_cells": _count_grid_cells,
    "translates": _count_translates,
    "covering": _count_covering,
    "classes": _count_classes,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.counts: dict[str, Counter] = {}
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, counter):
        nid = len(self.names)
        self.names.append(name)
        counts = self.counts.setdefault(name, Counter())
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self.stack
        clock = time.perf_counter_ns

        if counter == "generator":

            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = len(names)
                    names.append(nid)
                    parents.append(stack[-1])
                    ends.append(0)
                    starts.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[sid] = clock()
                    counts["yielded"] += 1
                    yield item

        else:
            count = COUNTERS.get(counter)

            def wrapper(*args, **kwargs):
                sid = len(names)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(sid)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[sid] = clock()
                    stack.pop()
                if count is not None:
                    count(counts, args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def install(self):
        """Wrap every traced function; targets that no longer exist are noted
        in ``missing`` and reported as zero."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "bfree" or n.startswith("bfree.")]
        for layer, entries in LAYERS.items():
            mod = importlib.import_module(f"bfree.{layer}")
            for metric, paths, counter, _ in entries:
                name = f"{layer}.{metric}"
                for path in paths:
                    owner_name, _, attr = path.rpartition(".")
                    owner = getattr(mod, owner_name, None) if owner_name else mod
                    orig = vars(owner).get(attr) if owner is not None else None
                    if orig is None:
                        self.missing.append(f"bfree.{layer}.{path}")
                        continue
                    wrapper = self._wrap(name, orig, counter)
                    if owner_name:
                        self._replace(owner, attr, orig, wrapper)
                    else:
                        for m in modules:
                            for key, val in list(vars(m).items()):
                                if val is orig:
                                    self._replace(m, key, orig, wrapper)

    def _replace(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (spans, self seconds)."""
        n = len(self.span_name)
        child = [0] * n
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        for sid in range(n):
            p = parents[sid]
            if p >= 0:
                child[p] += ends[sid] - starts[sid]
        spans = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for sid, nid in enumerate(self.span_name):
            spans[nid] += 1
            self_ns[nid] += ends[sid] - starts[sid] - child[sid]
        totals: dict[str, list] = {}
        for nid, name in enumerate(self.names):
            acc = totals.setdefault(name, [0, 0])
            acc[0] += spans[nid]
            acc[1] += self_ns[nid]
        return {name: (c, ns / 1e9) for name, (c, ns) in totals.items()}

    def metrics(self, factor_cache_hits: int) -> dict[str, float]:
        """Every per-layer metric except trace_overhead."""
        times = self.self_times()
        out = {}
        for fn, fields in REPORTED.items():
            calls, self_s = times.get(fn, (0, 0.0))
            counts = self.counts.get(fn, Counter())
            values = {
                "calls": calls,
                "self_s": self_s,
                "cache_hits": factor_cache_hits,
                "hit_ratio": counts["hits"] / calls if calls else 0.0,
                "ok_ratio": counts["ok"] / calls if calls else 0.0,
            }
            for field in fields:
                out[f"{fn}.{field}"] = values[field] if field in values else counts[field]
        return out

    def write(self, path: Path):
        """Spans as one JSON header line (names, span count) and four packed
        arrays: name id, parent span id, start ns, end ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.span_name),
                      "arrays": ["name:l", "parent:l", "start_ns:q", "end_ns:q"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
