"""One workload execution in a fresh interpreter.

    python3 perfbench/worker.py --root DIR --mode MODE --result FILE [-- ARGV...]

Imports plethy.cli from DIR/src, timing the import, then (except in probe
mode) calls plethy.cli.main(ARGV) and writes a JSON result to FILE:

* ``plain``: no wrappers; the times and peak RSS of this process are the
  end-to-end samples.
* ``trace``: span wrappers installed; adds per-label self and inclusive
  times.
* ``count``: counting wrappers and ring-op counters installed; adds exact
  counts.  Its times are not used.
* ``probe``: the import, a set-up time sample, then ``reference()``, a
  sample of how fast the host runs Python code at that moment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from fractions import Fraction

MODES = ("plain", "trace", "count", "probe")


def reference() -> float:
    """Seconds taken by a fixed pure-Python computation that shares no code
    with plethy: big-integer, Fraction, tuple and dict work of the kinds the
    workloads do.  Its time moves only with the speed of the host."""
    t0 = time.perf_counter()
    table = {}
    seen = set()
    acc = Fraction(0)
    x = 1
    for i in range(1, 16001):
        key = (i % 53, i % 59)
        table[key] = table.get(key, 0) + i * i
        seen.add(tuple(sorted((i % 5, i % 3, i % 7))))
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        x = (x * 6364136223846793005 + i) % (1 << 521)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--result", required=True)
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import plethy.cli

    setup_s = time.perf_counter() - t0
    if not os.path.abspath(plethy.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"plethy imported from {plethy.cli.__file__}, not {src}")
    result = {"setup_s": setup_s}

    if args.mode == "probe":
        result["reference_s"] = reference()
    else:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        tracer = counter = None
        if args.mode != "plain":
            import spans

            if args.mode == "trace":
                tracer = spans.Tracer()
                spans.install(tracer.wrap)
            else:
                counter = spans.Counter()
                spans.install(counter.wrap)
                spans.count_ring_ops(counter)
        t1 = time.perf_counter()
        exit_code = plethy.cli.main(args.argv)
        wall_s = time.perf_counter() - t1
        # Linux reports ru_maxrss in KiB
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(exit_code=exit_code, wall_s=wall_s, peak_rss_mb=peak_rss_mb)
        if tracer is not None:
            result["layers"] = tracer.aggregate()
            result["spans"] = len(tracer.start)
        if counter is not None:
            result["counts"] = counter.counts
        import spans  # after the measurement, so plain runs are untouched

        result["wrappers"] = spans.installed_wrappers()

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
