"""A draining worker whose runner sleeps before every experiment.

``test_crash.py`` starts this script as a child process (``python
slow_worker.py DB WORKER_ID DELAY STALE_AFTER``): the sleep is the
window in which the test SIGKILLs it, held open through the ``runner=``
seam of :func:`repro.expdb.worker.run_worker`.
"""

import sys
import time

from repro.expdb.runner import run_experiment
from repro.expdb.worker import WorkerConfig, run_worker


def main(db_path: str, worker_id: str, delay: str, stale_after: str) -> int:
    def sleepy(params, *, shards=None):
        time.sleep(float(delay))
        return run_experiment(params, shards=shards)

    config = WorkerConfig(
        db_path=db_path,
        worker_id=worker_id,
        drain=True,
        heartbeat_every=0.1,
        stale_after=float(stale_after),
    )
    return 0 if run_worker(config, runner=sleepy).failed == 0 else 2


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
