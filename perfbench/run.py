"""The modscreen benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` as it stands, nothing is installed. One client runs operations one
after another (a closed loop). An operation is one ``modscreen.cli.main``
call. A pass runs every operation of the workload once, in a fresh
interpreter (``child.py``): the package caches genera, unit groups and
factorizations for the life of a process, so a second pass in the same
interpreter would time cache hits. Passes never overlap. The benchmark runs
passes until the next one would end after ``--seconds`` (always at least
one; in the traced run at least one untraced and one traced), checks every
output against ``oracle.py`` and against the first pass, and reports medians
over passes.

Times are reported at reference speed: a pass times a fixed pure-Python loop
(``child.SpeedGauge``) during set-up and before, during and after each
operation, and each operation's seconds are scaled by the host's mean speed
over it, ``REFERENCE_S`` over the loop's time. That takes out the drift in the speed a shared host lends the process,
which moves the loop and the package alike, and keeps any change in the
package's own work. The unscaled times go to ``result.json``.

``--trace 0`` reports the end-to-end metrics of untraced passes. ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (``tracing.py``), plus the tracing overhead: the median
traced ``wall_s`` minus the median untraced one.

Standard output ends with one JSON line: correct, attempted, failed and
metrics. The lines before it print every metric with its unit, the failure
ratio and the run facts; the full record, per-pass figures included, goes to
``.perfbench-work/<workload>-<seed>/result.json``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracing  # noqa: E402
from child import REFERENCE_S  # noqa: E402

# why each workload is in the benchmark
WHY = {
    "genus_deep": "table1, table2 and every Borel genus past the paper's "
                  "levels (125..625): coset spaces and the min over Delta in "
                  "sl2_coset_key; bypasses the phi(N) unit scan of coset_key",
    "fiber_deep": "fibers, point degrees and reduce-level at 121..169: the "
                  "phi(N) unit scan in BorelGroup.coset_key, orbit walks, "
                  "Cartan and lifted keys; bypasses sl2_coset_key",
    "screen": "screen over a 100-entry synthetic catalog at 2^k..7^k: "
              "thousands of small tables, closures and catalog parsing, so "
              "per-call overhead dominates and large-N precomputation shows",
}

WORK_DIR = ".perfbench-work"
# a whole run must end within 180 s; a pass that would end later is killed
RUN_LIMIT_S = 170.0

# end-to-end metric -> (unit, what it measures)
END_TO_END = {
    "setup_s": ("s", "interpreter start to the first operation (import, input "
                     "generation, catalog round trip), at reference speed; "
                     "median over passes"),
    "wall_s": ("s", "sum of the operations' times at reference speed; median "
                    "over passes"),
    "op_p50_ms": ("ms", "median over operations of each one's median time at "
                        "reference speed"),
    "entries_per_s": ("1/s", "catalog entries screened per second on screen, "
                             "operations per second on the deep workloads, "
                             "at reference speed; median over passes"),
    "peak_rss_mb": ("MB", "ru_maxrss of a pass's interpreter; median over passes"),
}


def run_pass(args, workdir: str, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", workdir]
    if traced:
        cmd.append("--trace")
    if args.tiny:
        cmd.append("--tiny")
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - t_spawn))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"pass exited with code {proc.returncode}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["t_spawn"] = t_spawn
    report["setup_s"] = report["t_first_op"] - t_spawn
    report["traced"] = traced
    return report


def mean_speed(gauge: dict, start: float, end: float) -> float:
    """The host's mean speed over [start, end], relative to reference speed.

    The gauge's points give the speed REFERENCE_S / seconds at their times;
    between points it is interpolated linearly, and before the first point or
    after the last it is held. The mean is the integral over the interval
    divided by its length, so each point counts for the time around it.
    """
    times = gauge["times"]
    speeds = [REFERENCE_S / s for s in gauge["seconds"]]

    def at(t: float) -> float:
        i = bisect.bisect_left(times, t)
        if i == 0:
            return speeds[0]
        if i == len(times):
            return speeds[-1]
        t0, t1 = times[i - 1], times[i]
        return speeds[i - 1] + (speeds[i] - speeds[i - 1]) * (t - t0) / (t1 - t0)

    if end <= start:
        return at(start)
    lo = bisect.bisect_right(times, start)
    hi = bisect.bisect_left(times, end)
    xs = [start, *times[lo:hi], end]
    area = sum((x1 - x0) * (at(x0) + at(x1)) / 2 for x0, x1 in zip(xs, xs[1:]))
    return area / (end - start)


def scaled_op_seconds(report: dict) -> list[float]:
    """Each operation's seconds at reference speed.

    An operation is scaled by the host's mean speed over its span, read from
    the gauge's points before, during and after it, so that a change in the
    host's speed within a pass, even within the operation, is followed.
    """
    return [r["seconds"] * mean_speed(report["gauge"], *r["span"])
            for r in report["results"]]


def pass_figures(report: dict, workload: str) -> dict:
    seconds = scaled_op_seconds(report)
    wall = sum(seconds)
    if workload == "screen":
        throughput = sum(op["check"]["entries"] for op in report["ops"]) / wall
    else:
        throughput = len(seconds) / wall
    return {
        "setup_s": (report["setup_s"] - report["setup_gauge_s"])
                   * mean_speed(report["gauge"], report["t_spawn"], report["t_first_op"]),
        "wall_s": wall,
        "op_p50_ms": statistics.median(seconds) * 1e3,
        "entries_per_s": throughput,
        "peak_rss_mb": report["peak_rss_mb"],
        "raw_wall_s": sum(r["seconds"] for r in report["results"]),
        "raw_setup_s": report["setup_s"] - report["setup_gauge_s"],
        "reference_ms": statistics.median(report["gauge"]["seconds"]) * 1e3,
    }


def end_to_end(passes: list[dict], workload: str) -> dict:
    """End-to-end metrics over a run's untraced passes: medians over passes.

    Every time is taken at reference speed (scaled_op_seconds). On a shared
    2-vCPU VM, the wall_s of ten runs of one workload spread (quartile
    distance over median) by 0.17 to 0.30 unscaled and by 0.03 to 0.06 at
    reference speed.
    """
    figures = [pass_figures(p, workload) for p in passes]
    per_op = zip(*(scaled_op_seconds(p) for p in passes))
    return {
        "setup_s": statistics.median(f["setup_s"] for f in figures),
        "wall_s": statistics.median(f["wall_s"] for f in figures),
        "op_p50_ms": statistics.median(statistics.median(t) for t in per_op) * 1e3,
        "entries_per_s": statistics.median(f["entries_per_s"] for f in figures),
        "peak_rss_mb": statistics.median(f["peak_rss_mb"] for f in figures),
    }


def count_failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed over all passes, with the reasons.

    An operation fails on a nonzero exit, an oracle mismatch, or output that
    differs from the same operation in the first pass.
    """
    first = passes[0]
    attempted = failed = 0
    reasons: list[str] = []
    for report in passes:
        problems = oracle.check_pass(report["ops"], report["results"])
        same_ops = report["ops"] == first["ops"]
        for i, res in enumerate(report["results"]):
            attempted += 1
            mine = list(problems[i])
            if not same_ops or res["stdout"] != first["results"][i]["stdout"]:
                mine.append(f"{report['ops'][i]['name']}: output differs between passes")
            if mine:
                failed += 1
                reasons += mine
    return attempted, failed, reasons


def run_facts(root: str) -> dict:
    src = os.path.join(root, "src", "modscreen")
    lines, digest = {}, hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                data = fh.read()
            lines[name[:-3]] = data.count(b"\n")
            digest.update(name.encode() + b"\0" + data)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(root),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
        "load_model": "closed loop, one client, one operation at a time; "
                      "one fresh interpreter per pass",
        "workloads": WHY,
        "end_to_end": {k: {"unit": u, "what": w} for k, (u, w) in END_TO_END.items()},
        "per_layer_moves": tracing.MOVES,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _commit(root: str) -> str | None:
    """HEAD of a plain git checkout, read from its files; None outside one."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small moduli, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "modscreen", "cli.py")):
        print("error: run from the root of a modscreen checkout "
              "(src/modscreen/cli.py not found)", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes: list[dict] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        try:
            passes.append(run_pass(args, workdir, traced, deadline))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        elapsed = time.monotonic() - start
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    attempted, failed, reasons = count_failures(passes)
    plain = [p for p in passes if not p["traced"]]
    e2e = end_to_end(plain, args.workload)
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layers = {name: statistics.median_low(p["layers"][name] for p in traced)
                  for name in tracing.UNITS if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = statistics.median(
            pass_figures(p, args.workload)["wall_s"] for p in traced) - e2e["wall_s"]
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in e2e.items()}

    facts = run_facts(root)
    plain_figures = [pass_figures(p, args.workload) for p in plain]
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced "
          f"and {len(passes) - len(plain)} traced passes")
    print("unscaled, median over untraced passes: wall_s {:.6g} s, setup_s {:.6g} s, "
          "reference loop {:.4g} ms (times below are scaled to {:g} ms)".format(
              *(statistics.median(f[k] for f in plain_figures)
                for k in ("raw_wall_s", "raw_setup_s", "reference_ms")),
              REFERENCE_S * 1e3))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    print("facts " + json.dumps(facts, sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "metrics": metrics, "failed": failed, "attempted": attempted,
              "failures": reasons, "facts": facts,
              "passes": [{"traced": p["traced"], **pass_figures(p, args.workload),
                          "op_seconds": [r["seconds"] for r in p["results"]],
                          "op_speed": [mean_speed(p["gauge"], *r["span"])
                                       for r in p["results"]],
                          "layers": p.get("layers")} for p in passes]}
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
