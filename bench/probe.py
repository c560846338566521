"""Time relred's own set-up in a fresh interpreter and print it in seconds.

    python3 bench/probe.py ROOT WORKDIR

Set-up is the ``relred.cli`` import plus one untimed-in-the-run warm-up
invocation of each command the workload uses (see ``harness.warm_up``).
Only ``os``, ``sys`` and ``time`` are imported before the clock starts,
and the benchmark's own imports happen between the two timed parts, so
the figure holds the program's work and not the harness's.
"""

import os
import sys
import time


def main() -> None:
    root, work = sys.argv[1:3]
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    from relred.cli import main as cli

    imported = time.perf_counter() - t0
    import functools
    import json

    import harness

    with open(os.path.join(work, "items.json")) as fh:
        items = json.load(fh)["items"]
    os.chdir(work)
    t1 = time.perf_counter()
    harness.warm_up(functools.partial(harness.invoke, cli), items)
    print(imported + time.perf_counter() - t1)


if __name__ == "__main__":
    main()
