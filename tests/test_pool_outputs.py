"""Every benchmark pool job, run in-process and checked against its
recorded output.

The benchmark itself checks only the jobs a seeded run draws.  Here every
job of every workload's pool goes through ``perfbench``'s ``Runner`` (the
CLI with bfree's caches cleared) and ``checks.check`` against
``perfbench/expected.json``.  ``perfbench/`` is only read: artifacts go to a
temporary directory.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import run  # noqa: E402

run.import_bfree()
import checks  # noqa: E402  (needs bfree on sys.path)
import jobs  # noqa: E402

EXPECTED = json.loads(run.EXPECTED.read_text())


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_every_pool_job_passes_its_check(workload, tmp_path):
    runner = run.Runner(tmp_path)
    expected = EXPECTED[workload]
    failures, count = [], 0
    for _, variants in jobs.pool(workload).values():
        for job in variants:
            record = runner.execute(job)
            count += 1
            if record.error is not None:
                failures.append(f"{job.key}: {record.error}")
                continue
            reason = checks.check(job, record.rc, record.stdout, record.out_path, expected.get(job.key))
            if reason is not None:
                failures.append(f"{job.key}: {reason}")
    assert count == len(expected)
    assert not failures, "\n".join(failures)
