"""One timed benchmark set-up in a fresh interpreter: import framescale,
generate and write the workload's corpus, answer its smallest frame.

Usage: python3 bench/setup_probe.py WORKLOAD SEED   (prints the seconds)
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402

if __name__ == "__main__":
    harness.pin_threads()
    t0 = time.perf_counter()
    harness.set_up(sys.argv[1], int(sys.argv[2]))
    print(repr(time.perf_counter() - t0))
