"""Peak resident memory of a fresh interpreter that runs one workload pass.

    PYTHONPATH=src python3 perfbench/rss_probe.py <workload> <seed> <tmpdir>

Prints one JSON line: the peak RSS in MiB (`ru_maxrss`), the failed
operations and the pass's trace digest, which `run.py` compares with its own.
"""

from __future__ import annotations

import json
import resource
import sys

import workloads


def main(argv: list[str]) -> int:
    name, seed, tmpdir = argv
    workload = workloads.generate(name, int(seed))
    rep = workloads.run_once(workload, tmpdir)
    failed = workloads.check(workload, rep)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"peak_rss_mb": peak_mb, "failed": failed, "digest": rep.digest}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
