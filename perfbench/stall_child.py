"""Child process for stall-detect: run a few stalls, report them, and exit.

Each stall leaves one blocked thread behind in this process; exiting ends
them. Usage: stall_child.py SEED FIRST_OP COUNT TRACE. Prints one JSON line.
"""

import json
import sys
import threading

from common import import_package

import_package()

from spans import Tracer  # noqa: E402  (needs the package on sys.path)
from workloads import StallDetect  # noqa: E402

SETTLE_JOIN = 0.01


def main(argv):
    seed, first, count, trace = (int(arg) for arg in argv)
    workload = StallDetect(seed)
    workload.batch_size = count
    tracer = Tracer(first_id=(first + 1) * 10**7) if trace else None
    report = workload.run_here(first, tracer)
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(SETTLE_JOIN)
    report["threads_after"] = threading.active_count()
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
