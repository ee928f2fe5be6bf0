"""bfree benchmark: seeded, closed-loop CLI workloads run in-process.

    python3 perfbench/run.py --workload eta-near --seed 1 --seconds 21 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nowhere else.  ``--seconds`` sizes a job list from the reference
round times in ``jobs.ROUND_SECONDS``; the list runs in ``PASSES`` passes,
each in a fresh worker process that imports bfree, parses the list's specs
(the timed set-up) and then sends one command at a time through
``bfree.cli.main(argv)``.  Artifacts go to a temporary directory under
``.bench_out/``.  Output verification runs after the timed region, in the
parent process.

``--trace 0`` prints the end-to-end metrics, with times reported at the
reference host speed (see ``HostSpeed``).  ``--trace 1`` runs the list once
untraced and twice traced and prints per-layer metrics; the work counts of
the two traced passes must agree exactly.  Human-readable lines come first;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any output is wrong.
"""

import argparse
import bisect
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import jobs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"

PASSES = 3  # runs of every job; in an end-to-end run a job's time is their median
SETUP_PROBES = 3  # set-up-only workers before each pass and after the last
SETUP_SAMPLES = 5  # host-speed samples taken just before and just after a set-up
DEADLINE = 170  # seconds after start by which every worker must have ended
CAL_INTERVAL = 0.2  # seconds between host-speed samples
CAL_WINDOW = 0.5  # samples this close to a timed interval set its scale
CAL_SECONDS = 0.0030  # calibration loop time at the reference speed
CAL_EXPONENT = 0.8  # command time moves as this power of the loop time

E2E_UNITS = {
    "setup_s": "s",
    "cmd_s_p50": "s",
    "cmd_s_p90": "s",
    "cmds_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def import_bfree():
    """Import bfree from this checkout's src/, or exit with an error."""
    if not (SRC / "bfree" / "__init__.py").is_file():
        sys.exit(f"error: no bfree source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import bfree
    import bfree.cli

    if Path(bfree.__file__).resolve().parent != (SRC / "bfree").resolve():
        sys.exit(f"error: bfree was imported from {bfree.__file__}, not from {SRC}")
    return bfree


def find_caches() -> list:
    """Every functools cache on a function or method defined in bfree."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name != "bfree" and not name.startswith("bfree."):
            continue
        for val in vars(mod).values():
            if not (getattr(val, "__module__", None) or "").startswith("bfree"):
                continue
            members = list(vars(val).values()) if isinstance(val, type) else []
            for obj in [val] + members:
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def _calibration_loop() -> int:
    table = {}
    acc = 0
    for i in range(10_000):
        pair = (i, i * 7919 % 1000003)
        acc = (acc + pair[1] * pair[1]) % 999983
        table[pair[0] & 255] = acc
    return acc


class HostSpeed:
    """Samples the host's speed with a fixed pure-Python loop.

    The reference host's speed drifts by up to 2x, in phases of seconds to
    minutes that the loop's own time tracks.  A time measured on it is
    reported at the reference speed: multiplied by CAL_SECONDS over the
    median loop time sampled within CAL_WINDOW of the interval, raised to
    CAL_EXPONENT.  The exponent is fitted on the reference host, where bfree
    commands slowed less than the loop did (see README.md).
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self):
        t0 = time.perf_counter()
        _calibration_loop()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def tick(self):
        """Sample when the last sample is older than CAL_INTERVAL."""
        if not self.at or time.perf_counter() - self.at[-1] >= CAL_INTERVAL:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor for the interval [start, end]; a sample must follow it."""
        lo = min(bisect.bisect_right(self.at, start) - 1, bisect.bisect_left(self.at, start - CAL_WINDOW))
        hi = max(bisect.bisect_left(self.at, end), bisect.bisect_right(self.at, end + CAL_WINDOW) - 1)
        return (CAL_SECONDS / statistics.median(self.took[max(lo, 0) : hi + 1])) ** CAL_EXPONENT


class Runner:
    """Materializes jobs into argv and runs them through bfree.cli.main.

    Every command starts with bfree's functools caches cleared, as in a fresh
    CLI process.  A pass runs in a fresh process and holds no job twice (see
    ``job_list``), so no other state left in bfree by one run of a command
    can warm another run of it.
    """

    def __init__(self, workdir: Path):
        import bfree.cli
        import bfree.numtheory

        self.cli = bfree.cli
        self.workdir = workdir
        self.caches = find_caches()
        self.factor = bfree.numtheory.factor
        self.speed = HostSpeed()
        self.count = 0

    def materialize(self, job):
        self.count += 1
        out = self.workdir / f"out-{self.count}"
        if job.kind == "eta":
            out = out.with_suffix("." + jobs.flag(job.args, "--format"))
        subs = {"@out": str(out)}
        for name, text in job.files:
            path = self.workdir / f"{job.key.replace('/', '-')}-{name}.txt"
            if not path.exists():
                path.write_text(text)
            subs["@" + name] = str(path)
        return [subs.get(a, a) for a in job.args], out

    def execute(self, job):
        """Run one job with bfree's caches cleared."""
        argv, out_path = self.materialize(job)
        for cache in self.caches:
            cache.cache_clear()
        self.speed.tick()
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a raising command is a failed command
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        info = getattr(self.factor, "cache_info", None)
        hits = info().hits if info else 0
        if error is None and rc not in (0, 1, 2, 3, 4):
            error = f"exit code {rc!r}"
        return Record(job, out_path, rc, out.getvalue(), error, t0, seconds, hits)

    def scaled(self, records) -> list[float]:
        """The records' times at the reference speed."""
        self.speed.sample()
        return [r.seconds * self.speed.scale(r.start, r.start + r.seconds) for r in records]


@dataclass(slots=True)
class Record:
    job: jobs.Job
    out_path: Path
    rc: int | None  # exit code; None when the command raised
    stdout: str
    error: str | None  # why the command failed outright, if it did
    start: float  # the worker's perf_counter at the start of the command
    seconds: float  # wall time of the command; workers report it at the reference speed
    cache_hits: int  # factor() cache hits during the command


def verify(records, workload: str) -> list[str]:
    """Failure reasons, one per failed command (empty when all are right)."""
    import checks

    expected = json.loads(EXPECTED.read_text()).get(workload, {})
    seen = {}
    failures = []
    for r in records:
        if r.error is not None:
            failures.append(f"{r.job.key}: {r.error}")
            continue
        # verdict checks are costly and their outputs repeat; check each once
        memo = (r.job.key, r.rc, r.stdout) if r.job.kind in ("decide", "report", "zero") else None
        if memo in seen:
            reason = seen[memo]
        else:
            reason = checks.check(r.job, r.rc, r.stdout, r.out_path, expected.get(r.job.key))
            if memo is not None:
                seen[memo] = reason
        if reason is not None:
            failures.append(f"{r.job.key}: {reason}")
    return failures


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def job_list(workload, seed, seconds) -> list:
    """The seed's jobs for a run of ``seconds``: PASSES passes at the
    reference round time, in whole rounds, so every seed draws each slot
    equally often; a run shorter than one round takes part of the first
    round (at least one job).  No job appears twice."""
    per_round = sum(weight for weight, _ in jobs.pool(workload).values())
    rounds = seconds / (PASSES * jobs.ROUND_SECONDS[workload])
    n = per_round * round(rounds) if rounds >= 1 else max(1, round(rounds * per_round))
    todo = jobs.schedule(workload, seed, n)
    if len({job.key for job in todo}) < n:
        sys.exit(f"error: --seconds {seconds:g} repeats pool jobs on {workload}; use fewer seconds")
    return todo


def pass_order(n: int, seed: int, k: int) -> list[int]:
    return random.Random(f"{seed}:{k}").sample(range(n), n)


def worker(workload, seed, seconds, k, trace, workdir: Path) -> dict:
    """Set up, then run pass ``k`` of the job list (nothing when k < 0).

    Runs in a fresh process.  The set-up time covers importing bfree,
    building its argument parser and parsing every spec of the job list;
    the list is generated before it starts.
    """
    todo = job_list(workload, seed, seconds)
    speed = HostSpeed()
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    t0 = time.perf_counter()
    bfree = import_bfree()
    bfree.cli.build_parser()
    for job in todo:
        for _, text in job.files:
            bfree.parse_family(text)
        if job.preset:
            bfree.preset(job.preset)
    t1 = time.perf_counter()
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    out = {"setup_s": (t1 - t0) * speed.scale(t0, t1)}
    if k < 0:
        return out
    runner = Runner(workdir)
    tracing = tracer.Tracer() if trace else None
    if tracing is not None:
        tracing.install()
    try:
        records = [(i, runner.execute(todo[i])) for i in pass_order(len(todo), seed, k)]
    finally:
        if tracing is not None:
            tracing.uninstall()
    scaled = runner.scaled([r for _, r in records])
    out["records"] = [[i, str(r.out_path), r.rc, r.stdout, r.error, r.start, t, r.cache_hits]
                      for (i, r), t in zip(records, scaled)]
    out["rss_mb"] = peak_rss_mb()
    out["speed"] = CAL_SECONDS / statistics.median(runner.speed.took)
    if tracing is not None:
        out["metrics"] = tracing.metrics(sum(r.cache_hits for _, r in records))
        out["missing"] = tracing.missing
        tracing.write(OUT / f"spans-{workload}.bin")
    return out


class Workers:
    """Starts worker processes for one run, one at a time, and waits for each."""

    def __init__(self, args, workdir: Path):
        self.base = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds)]
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE
        self.todo = job_list(args.workload, args.seed, args.seconds)
        self.started = 0

    def run(self, k: int = -1, trace: bool = False) -> dict:
        """Output of a worker running pass k (k < 0: set-up only)."""
        self.started += 1
        passdir = self.workdir / f"worker-{self.started}"
        passdir.mkdir()
        cmd = self.base + ["--trace", str(int(trace)), "--worker", str(k), "--workdir", str(passdir)]
        left = self.deadline - time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            sys.exit(f"error: a worker was still running {DEADLINE} s after the start")
        if proc.returncode != 0:
            sys.exit(f"error: worker failed: {proc.stderr.strip()[-2000:]}")
        out = json.loads(proc.stdout.splitlines()[-1])
        out["records"] = [
            Record(self.todo[i], Path(path), rc, stdout, error, start, t, hits)
            for i, path, rc, stdout, error, start, t, hits in out.get("records", [])
        ]
        return out


def end_to_end(workload, workers):
    """PASSES passes over the job list, each in a fresh worker.

    Every commit does the same work for a given seed and ``--seconds``.
    Each pass runs the jobs in its own seeded order, so a job's runs are
    spread over the run; a job's time is the median of its runs at the
    reference speed.  ``setup_s`` is the median over the pass workers and
    SETUP_PROBES set-up-only workers before each pass and after the last.
    """
    todo = workers.todo
    setup, passes = [], []
    for k in range(PASSES):
        setup += [workers.run()["setup_s"] for _ in range(SETUP_PROBES)]
        passes.append(workers.run(k))
    setup += [workers.run()["setup_s"] for _ in range(SETUP_PROBES)]
    setup += [p["setup_s"] for p in passes]
    records = [r for p in passes for r in p["records"]]
    index = {id(job): i for i, job in enumerate(todo)}
    runs = [[] for _ in todo]
    for r in records:
        runs[index[id(r.job)]].append(r.seconds)
    times = [statistics.median(r) for r in runs]
    failures = verify(records, workload)
    metrics = {
        "setup_s": statistics.median(setup),
        "cmd_s_p50": statistics.median(times),
        "cmd_s_p90": quantile(times, 0.9) if len(times) > 1 else times[0],
        "cmds_per_s": len(times) / sum(times),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    lines = [f"{name} = {_fmt(value)} {E2E_UNITS[name]}" for name, value in metrics.items()]
    beyond = len(times) - int(0.9 * len(times))
    lines.append(f"commands = {len(times)} count ({beyond} beyond p90)")
    speed = statistics.median(p["speed"] for p in passes)
    lines.append(f"host_speed = {speed:.6g} ratio (1 = reference)")
    if beyond < 10:
        print(f"warning: only {len(times)} commands; p90 has fewer than 10 samples beyond it",
              file=sys.stderr)
    if workload.startswith("eta-"):
        window = [i for i, job in enumerate(todo) if job.kind in ("eta", "density")]
        cells = sum(todo[i].cells() for i in window)
        lines.append(f"cells_per_s = {cells / sum(times[i] for i in window):.6g} cells/s")
    if workload == "certify":
        verdicts = [verdict_status(r) for r in records if r.job.kind in ("decide", "report")]
        exact = sum(1 for status in verdicts if status in ("Proximal", "NotProximal"))
        lines.append(f"exact_verdict_ratio = {exact / max(1, len(verdicts)):.6g} ratio")
    lines.append(f"fail_ratio = {len(failures) / len(records):.6g} ratio")
    return records, failures, [], metrics, dict(E2E_UNITS), lines


def verdict_status(record):
    """Verdict status printed by a decide or report command, or None."""
    try:
        data = json.loads(record.stdout)
    except ValueError:
        return None
    return data.get("verdict", data).get("status")


def traced(workload, workers):
    """One untraced and two traced passes over the job list, in one order,
    each in a fresh worker."""
    plain, first, second = workers.run(0), workers.run(0, True), workers.run(0, True)
    metrics, again = first["metrics"], second["metrics"]
    for target in first["missing"]:
        print(f"note: {target} no longer exists; its metrics read 0", file=sys.stderr)
    names = tracer.metric_names()
    units = {name: unit for name, unit, _ in names}
    errors = [
        f"work count {name} was {metrics[name]} then {again[name]} on the same seed"
        for name, unit, _ in names
        if unit != "s" and name in metrics and metrics[name] != again[name]
    ]
    records = plain["records"] + first["records"] + second["records"]
    failures = verify(records, workload)
    seconds = [sum(r.seconds for r in p["records"]) for p in (plain, first)]
    metrics["trace_overhead"] = seconds[1] / seconds[0]
    lines = [f"{name} = {_fmt(metrics[name])} {units[name]}" for name, _, _ in names]
    lines.append(f"commands = {len(workers.todo)} count per pass (1 untraced, 2 traced)")
    lines.append(f"fail_ratio = {len(failures) / len(records):.6g} ratio")
    return records, failures, errors, metrics, units, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=21)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker is not None:
        out = worker(args.workload, args.seed, args.seconds, args.worker, args.trace, args.workdir)
        print(json.dumps(out))
        return 0
    import_bfree()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        workers = Workers(args, workdir)
        outcome = (traced if args.trace else end_to_end)(args.workload, workers)
        records, failures, errors, metrics, units, lines = outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in errors + failures[:20]:
        print(f"FAIL {reason}", file=sys.stderr)
    for line in lines:
        print(line)
    result = {
        "correct": not failures and not errors,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
