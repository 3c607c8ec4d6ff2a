"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed S --workdir DIR [--trace] [--tiny]

Imports the package, builds the seeded inputs, then runs every operation as
one ``modscreen.cli.main(argv)`` call with standard output captured, while
a ``SpeedGauge`` times a fixed reference loop during set-up and before,
during and after every operation. Prints a single JSON object: the
operations, each one's exit code, seconds, output and clock span, the
gauge's readings and the pass's clock readings. The package keeps process-lifetime caches, so a
pass must never reuse an interpreter that already ran one.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


# While operations run, a pass times the reference loop every TICK_S seconds,
# and BOUNDARY times in a row before each operation and after the last.
TICK_S = 0.02
BOUNDARY = 5
# The reference loop takes about this long on the 2-vCPU VM the benchmark was
# written on; run.py reports times at that speed.
REFERENCE_S = 0.0003

_SEEN: dict = {}


def _reference_loop() -> int:
    n = 1021
    _SEEN.clear()
    x, y = 1, 0
    for _ in range(50):
        x, y = (3 * x + 5 * y + 1) % n, (7 * x + 2 * y) % n
        best = n * n
        for u in range(1, 40):
            key = (u * x) % n * n + (u * y) % n
            if key < best:
                best = key
        _SEEN[best] = _SEEN.get(best, 0) + 1
    return len(_SEEN)


class SpeedGauge:
    """Times a fixed pure-Python loop, the pass's gauge of the host's speed.

    On a shared VM the speed the host lends a process switches between levels
    a third or more apart every few seconds, inside single operations. The
    loop uses nothing of the package and does the kind of work its inner
    loops do (modular products, a min over a unit scan, dict updates), so its
    time follows those switches. While the gauge is started, a SIGALRM
    handler times the loop every TICK_S of wall time. Each point is a
    ``time.monotonic()`` reading in ``times`` and the loop's median time in
    ``seconds``; ``spent`` is the time all points took, so that set-up and
    operations are timed without it. The loop allocates no object the
    collector tracks and runs with the collector off, so it neither moves the
    package's collections nor slows down as the package's heap grows.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self, repeat: int = 1) -> None:
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        start = time.monotonic()
        runs = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            _reference_loop()
            runs.append(time.perf_counter() - t0)
        end = time.monotonic()
        if enabled:
            gc.enable()
        self.times.append((start + end) / 2)
        self.seconds.append(sorted(runs)[len(runs) // 2])
        self.spent += end - start
        self._busy = False

    def _tick(self, *_signal) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    gauge = SpeedGauge()
    gauge.start()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    t0 = time.monotonic()
    import modscreen.cli
    t_import = time.monotonic() - t0
    if tracer is not None:
        tracer.install()

    import workloads
    t0 = time.monotonic()
    ops = workloads.build(args.workload, args.seed, args.workdir, tiny=args.tiny)
    t_generate = time.monotonic() - t0

    results = []
    t_first = time.monotonic()
    setup_spent = gauge.spent
    for op in ops:
        gauge.sample(BOUNDARY)
        spent = gauge.spent
        out = io.StringIO()
        t_begin = time.monotonic()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = modscreen.cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op, not a failed pass
            print(f"{op['name']}: {type(exc).__name__}: {exc}", file=sys.stderr)
            rc = -1
        seconds = time.perf_counter() - start - (gauge.spent - spent)
        results.append({"rc": rc, "seconds": seconds, "stdout": out.getvalue(),
                        "span": [t_begin, time.monotonic()]})
    gauge.sample(BOUNDARY)
    gauge.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {
        "ops": ops,
        "results": results,
        "t_start": T_START,
        "t_first_op": t_first,
        "import_s": t_import,
        "generate_s": t_generate,
        "setup_gauge_s": setup_spent,
        "gauge": {"times": gauge.times, "seconds": gauge.seconds},
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.layer_metrics()
        report["layers"]["cli.stdout_bytes"] = sum(
            len(r["stdout"].encode()) for r in results)
        tracer.write_spans(os.path.join(args.workdir, "spans.jsonl"))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
