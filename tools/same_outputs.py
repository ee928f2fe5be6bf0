"""Check that two source trees give the same outputs on every benchmark pool job.

    python3 tools/same_outputs.py OLD_SRC NEW_SRC                 # every job
    python3 tools/same_outputs.py OLD_SRC NEW_SRC --workload certify --slot decide-preset

OLD_SRC and NEW_SRC are the ``src/`` directories of two checkouts.  Each
tree runs in its own subprocess, which imports bfree from that directory and
nothing else, and sends every job of ``perfbench/jobs.py``'s pools (those of
this checkout, so both trees see the same jobs) through ``perfbench/run.py``'s
``Runner``: the CLI in-process, with bfree's caches cleared before each
command.  For each job it hashes the exit code (or the exception the command
raised), stdout, stderr and the bytes of the artifact, with the temporary
directory's path replaced by a placeholder.  The jobs whose hashes differ are
listed.

The pool loop (``iter_pool``) and the worker protocol (``run_workers``)
are the ones tools/opcount.py runs too.

Exit status: 0 when every job gives the same outputs, 1 when some differ,
2 when a tree cannot be run.  Standard library only; writes nothing but a
temporary directory per tree (bytecode is not written either).
"""

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PARTS = ("exit", "stdout", "stderr", "artifact")


def _digest(data) -> str | None:
    if data is None:
        return None
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def import_tree(src: Path):
    """perfbench's jobs and run modules, with bfree imported from src (or
    exit): for a fresh process."""
    sys.path[:0] = [str(src), str(PERFBENCH)]
    import bfree.cli

    if Path(bfree.__file__).resolve().parent != (src / "bfree").resolve():
        raise SystemExit(f"error: bfree was imported from {bfree.__file__}, not from {src}")
    import jobs
    import run

    return jobs, run


def run_command(runner, job):
    """(exit code, or the exception the command raised; stdout; stderr;
    artifact path) of one job, sent with the Runner's argv and caches.
    Runner.execute keeps no stderr, so the command is sent here."""
    argv, out_path = runner.materialize(job)
    for cache in runner.caches:
        cache.cache_clear()
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = runner.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a raising command is an output too
        code = f"{type(exc).__name__}: {exc}"
    return code, stdout.getvalue(), stderr.getvalue(), out_path


def iter_pool(src: Path, workloads, slots, prefix: str):
    """(tmp, runner, workload, slot, job) for every job of the chosen
    workloads and slots (every slot when slots is empty), in pool order,
    with bfree imported from src and one Runner over a temporary directory
    named with prefix, which lives while the generator does.  For a fresh
    process."""
    jobs, run = import_tree(src)
    with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
        runner = run.Runner(Path(tmp))
        for workload in workloads:
            for slot, (_, variants) in jobs.pool(workload).items():
                if not slots or slot in slots:
                    for job in variants:
                        yield tmp, runner, workload, slot, job


def run_jobs(src: Path, workloads, slots) -> dict[str, dict[str, str | None]]:
    """"<workload>:<job key>" -> {part: digest} for the chosen jobs, run
    against the bfree under src.  Runs in a fresh process."""
    return {
        f"{workload}:{job.key}": _outputs(runner, job, tmp)
        for tmp, runner, workload, _, job in iter_pool(src, workloads, slots, "bfree-same-")
    }


def _outputs(runner, job, tmp: str) -> dict[str, str | None]:
    code, stdout, stderr, out_path = run_command(runner, job)
    artifact = out_path.read_bytes() if out_path.is_file() else None
    texts = {"exit": repr(code), "stdout": stdout, "stderr": stderr}
    digests = {part: _digest(text.replace(tmp, "<tmp>")) for part, text in texts.items()}
    digests["artifact"] = _digest(artifact)
    return digests


def run_workers(tool, srcs, workloads, slots, extra=(), env=None) -> list:
    """The JSON that ``python -B tool --worker SRC`` writes on stdout for
    each src directory, with the workload and slot filters and the extra
    arguments, each in its own fresh process (run side by side).  Raises
    RuntimeError naming the first tree whose worker failed."""
    filters = [f"--workload={w}" for w in workloads] + [f"--slot={s}" for s in slots]
    procs = [
        subprocess.Popen(
            [sys.executable, "-B", str(tool), "--worker", str(Path(src).resolve()), *filters, *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for src in srcs
    ]
    outputs = [proc.communicate() for proc in procs]
    for src, proc, (_, stderr) in zip(srcs, procs, outputs):
        if proc.returncode != 0:
            raise RuntimeError(f"the tree at {src} could not be run:\n{stderr}")
    return [json.loads(stdout) for stdout, _ in outputs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="src/ directory of the old tree")
    parser.add_argument("new", type=Path, nargs="?", help="src/ directory of the new tree")
    parser.add_argument("--workload", action="append", default=[], help="only this workload (repeatable)")
    parser.add_argument("--slot", action="append", default=[], help="only this pool slot (repeatable)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(PERFBENCH))
    import jobs

    workloads = args.workload or list(jobs.WORKLOADS)
    if args.worker:
        json.dump(run_jobs(args.old.resolve(), workloads, set(args.slot)), sys.stdout)
        return 0
    if args.new is None:
        parser.error("give the src/ directories of two trees")
    try:
        old, new = run_workers(__file__, (args.old, args.new), args.workload, args.slot)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not old:
        print("error: no job matches the filters", file=sys.stderr)
        return 2
    differ = 0
    for key in sorted(old):
        parts = [p for p in PARTS if old[key][p] != new.get(key, {}).get(p)]
        if parts:
            differ += 1
            print(f"{key}: {', '.join(parts)} differ")
    print(f"{len(old)} jobs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
