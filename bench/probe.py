"""Machine-speed probe that runs beside the workload, on the workload's CPU.

    python3 bench/probe.py --out FILE

The host this benchmark was built on shares its cores with other machines,
and the speed of each of its CPUs drifts by up to 1.6x within minutes; the
same workload then takes up to 1.6x longer. Every ``PERIOD_S`` this probe
times a fixed pure-Python loop of about 0.6 ms (3% of the CPU), so the parent
can tell how fast that CPU was during each interval it measured. A probe on
the other CPU follows the workload much less closely (per-repetition log
correlation 0.36 against 0.86 on the same CPU). It stops on SIGTERM and
writes a JSON list of ``[start_ns, end_ns]`` pairs on the monotonic clock,
which it shares with the parent.
"""

from __future__ import annotations

import argparse
import json
import signal
import time

PERIOD_S = 0.02


def python_loop():
    total = 0
    for i in range(10000):
        total += i * i
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    stopping = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stopping.append(signum))
    samples = []
    print("ready", flush=True)
    while not stopping:
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        python_loop()
        samples.append([start, time.clock_gettime_ns(time.CLOCK_MONOTONIC)])
        time.sleep(PERIOD_S)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
