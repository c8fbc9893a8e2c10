"""One measured process: ``python3 child.py '<job json>'``.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``, so every child pays
its own imports (that is what ``setup_s`` measures) and reports its own
peak RSS.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import json
import sys

from workloads import WORKLOADS


def main() -> None:
    job = json.loads(sys.argv[1])
    workload = WORKLOADS[job["workload"]]
    if workload["path"] == "certify":
        import certify_job as path
    else:
        import serve_job as path
    print(json.dumps(path.run(job, workload)))


if __name__ == "__main__":
    main()
