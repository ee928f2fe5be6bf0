"""Record the expected output of every pool job into expected.json.

    python3 perfbench/record_expected.py

Run only at a commit whose outputs are trusted: the benchmark afterwards
fails any command whose output differs from what is recorded here.  Window
digests are taken from ``free_window`` directly and must match the digest
of the exported artifact; ``reproduce`` artifacts must match the package
goldens (exit code 0); every recorded output must pass its own check.
"""

import json
import shutil
import sys
import tempfile

import jobs
import run

run.import_bfree()

import checks  # noqa: E402  (needs bfree on sys.path)
from bfree import Box, free_window  # noqa: E402


def expected_for(record) -> dict:
    job = record.job
    if record.error is not None:
        raise RuntimeError(f"{job.key}: {record.error}")
    out = {"sig": job.signature(), "rc": record.rc}
    if job.kind == "eta":
        box = Box.parse(jobs.flag(job.args, "--box"))
        window = free_window(checks.family(job), box)
        bits = "".join(str(window.get(p)) for p in box.points())
        out["ones"] = window.ones()
        out["bits"] = checks.bits_digest(bits)
    elif job.kind == "density":
        out["rows"] = [[side, ratio] for side, _, ratio in checks.density_rows(job, record.stdout, record.out_path)]
    elif job.kind in ("decide", "report"):
        out["status"] = run.verdict_status(record)
    elif job.kind == "reproduce":
        if record.rc != 0:
            raise RuntimeError(f"{job.key}: artifacts differ from the package goldens")
        out["files"] = checks.artifact_digests(record.out_path)
    return out


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    workdir = run.Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT))
    recorded = {}
    try:
        runner = run.Runner(workdir)
        for workload in jobs.WORKLOADS:
            table = {}
            for _, variants in jobs.pool(workload).values():
                for job in variants:
                    record = runner.execute(job)
                    table[job.key] = expected_for(record)
                    reason = checks.check(job, record.rc, record.stdout, record.out_path, table[job.key])
                    if reason is not None:
                        raise RuntimeError(f"{workload} {job.key}: recorded output fails its check: {reason}")
            recorded[workload] = dict(sorted(table.items()))
            print(f"{workload}: {len(table)} jobs recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
