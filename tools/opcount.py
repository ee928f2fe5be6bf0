"""Count the bytecode instructions bfree executes on the benchmark pool jobs.

    python3 tools/opcount.py SRC                        # every workload, per slot
    python3 tools/opcount.py OLD_SRC NEW_SRC            # the same, with new/old ratios
    python3 tools/opcount.py OLD_SRC NEW_SRC --workload eta-near --slot eta-ex1 --functions 10

SRC, OLD_SRC and NEW_SRC are the ``src/`` directories of checkouts.  Each
tree runs every job of ``perfbench/jobs.py``'s pools (those of this
checkout, so every tree sees the same jobs) once, in its own fresh
``python -B`` process with ``PYTHONHASHSEED=0``, which imports bfree from
that directory and nothing else.  Jobs are sent by tools/same_outputs.py's
pool loop: ``perfbench/run.py``'s ``Runner`` gives each its argv and
files (``materialize``), and bfree's caches are cleared before each
command (``caches``), then ``bfree.cli.main`` runs in-process.  While a
command runs, ``sys.settrace`` with ``frame.f_trace_opcodes`` counts one
event per bytecode instruction executed in a frame whose code lies under
the tree's ``src/``.  Counts are reported per workload and pool slot, for
two trees with the ratio new/old, and with ``--functions N`` the N
functions (``co_qualname``; ``co_name`` before Python 3.11) with the most
instructions in each workload.

What a count cannot see:

* a call into C is one instruction, however long it runs: big-integer
  arithmetic, ``bytearray`` slices, ``sorted``, the tuple build of
  ``primes_up_to``.  A change that moves a Python loop into C reads as a
  larger gain than it is;
* counts compare only between runs on one Python version, whose compiler
  and specialising interpreter fix what one instruction is;
* time.  Wall-clock pairs (``perfbench/run.py``) stay the judge of speed;
  a count says how much work the Python code did, and it does not move
  with the host.

Exit status: 0, or 2 when a tree cannot be run or no job matches the
filters.  Standard library only; writes nothing but a temporary directory
per tree (bytecode is not written either).
"""

import argparse
import json
import os
import sys
from collections import Counter
from itertools import groupby
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(ROOT / "tools"))  # for same_outputs, also when this file is loaded by path
from same_outputs import iter_pool, run_command, run_workers  # noqa: E402


def _code_name(code) -> str:
    return f"{Path(code.co_filename).name}:{getattr(code, 'co_qualname', code.co_name)}"


def count_jobs(src: Path, workloads, slots, functions: bool) -> dict:
    """{workload: {"slots": {slot: count}, "functions": {name: count}}} over
    the chosen jobs, run against the bfree under src ("functions" empty
    unless asked for).  Runs in a fresh process."""
    prefix = str(src) + os.sep
    by_code = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            by_code[frame.f_code] += 1
        return local

    def calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    out = {}
    pool = iter_pool(src, workloads, slots, "bfree-opcount-")
    for (workload, slot), group in groupby(pool, key=lambda item: item[2:4]):
        by_code.clear()
        for _, runner, _, _, job in group:
            sys.settrace(calls)
            try:
                run_command(runner, job)  # a raising command is counted as far as it ran
            finally:
                sys.settrace(None)
        counts = out.setdefault(workload, {"slots": {}, "functions": Counter()})
        counts["slots"][slot] = sum(by_code.values())
        if functions:
            for code, n in by_code.items():
                counts["functions"][_code_name(code)] += n
    return out


def run_trees(srcs, workloads=(), slots=(), functions: bool = False) -> list[dict]:
    """count_jobs for each src directory, each in its own fresh process
    (run side by side: the counts do not depend on time)."""
    extra = ["--functions=1"] if functions else []
    return run_workers(__file__, srcs, workloads, slots, extra, env={**os.environ, "PYTHONHASHSEED": "0"})


def _ratio(old: int, new: int) -> str:
    return f"{new / old:.4f}" if old else "-"


def format_counts(results: list[dict], functions: int = 0) -> list[str]:
    """Table lines: per workload its slots and total, with the ratio
    new/old when there are two trees, then its top functions."""
    lines = []
    for workload, first in results[0].items():
        lines.append(workload)
        for slot in [*first["slots"], "total"]:
            counts = [
                sum(r[workload]["slots"].values()) if slot == "total" else r[workload]["slots"][slot]
                for r in results
            ]
            row = f"  {slot:28s}" + "".join(f"{n:>14,d}" for n in counts)
            lines.append(row + (f"  {_ratio(*counts)}" if len(counts) == 2 else ""))
        if functions:
            names = set().union(*(r[workload]["functions"] for r in results))
            top = sorted(names, key=lambda f: -max(r[workload]["functions"].get(f, 0) for r in results))
            for name in top[:functions]:
                counts = [r[workload]["functions"].get(name, 0) for r in results]
                row = f"    {name:56s}" + "".join(f"{n:>14,d}" for n in counts)
                lines.append(row + (f"  {_ratio(*counts)}" if len(counts) == 2 else ""))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", type=Path, nargs="+", help="src/ directory of one tree, or of an old and a new tree")
    parser.add_argument("--workload", action="append", default=[], help="only this workload (repeatable)")
    parser.add_argument("--slot", action="append", default=[], help="only this pool slot (repeatable)")
    parser.add_argument("--functions", type=int, default=0, metavar="N", help="list the N costliest functions")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(PERFBENCH))
    import jobs

    workloads = args.workload or list(jobs.WORKLOADS)
    if args.worker:
        json.dump(count_jobs(args.trees[0], workloads, set(args.slot), args.functions > 0), sys.stdout)
        return 0
    if len(args.trees) > 2:
        parser.error("give the src/ directories of one or two trees")
    try:
        results = run_trees(args.trees, workloads, args.slot, args.functions > 0)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not results[0]:
        print("error: no job matches the filters", file=sys.stderr)
        return 2
    print("\n".join(format_counts(results, args.functions)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
