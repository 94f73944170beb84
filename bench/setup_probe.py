"""Set-up time of one fresh process: import ``pretzelhfk.cli``, generate the argv list.

    python3 bench/setup_probe.py WORKLOAD SEED

Prints the seconds taken, measured from the first line of this script.
"""

from time import perf_counter

_start = perf_counter()

import sys  # noqa: E402

import runner  # noqa: E402
import workloads  # noqa: E402

runner.load_cli()
workloads.build(sys.argv[1], int(sys.argv[2]))
print(repr(perf_counter() - _start))
