"""Recorded command-line outputs that tests/test_golden.py replays.

    python3 tests/golden/regenerate.py            # re-record every output
    python3 tests/golden/regenerate.py --inputs   # first rewrite the calls and catalogs

calls.json lists each call: its name, its argv and the exit code, standard
output and standard error that ``modscreen.cli.main(argv)`` gave in process.
The calls are the benchmark's operations (perfbench/workloads.py, full size)
at seeds 7 and 11, then ``verify-formulae --max-modulus 30``. The catalogs
those operations read are synthetic, built by the benchmark from the
package's own constructors, and written here once by ``--inputs``; an argv
names them as ``{golden}/<file>``. A change that means to change output
re-records and lists each changed call; a diff is never re-recorded away.
Uses only the standard library and the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import warnings

GOLDEN = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(GOLDEN))
CALLS = os.path.join(GOLDEN, "calls.json")
SEEDS = (7, 11)
WORKLOADS = ("genus_deep", "fiber_deep", "screen")
VERIFY = ["verify-formulae", "--max-modulus", "30"]


def _show(message, category, filename, lineno, file=None, line=None):
    # what the default hook prints in a fresh process, to the stderr of now
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def replay(argv: list[str]) -> dict:
    """{"code", "stdout", "stderr"} of cli.main(argv) run in process, with the
    warning filters of a fresh interpreter; {golden} in argv is this folder."""
    from modscreen.cli import main

    argv = [a.replace("{golden}", GOLDEN) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        warnings.showwarning = _show
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load_calls() -> list[dict]:
    with open(CALLS, encoding="utf-8") as fh:
        return json.load(fh)


def _write_inputs() -> list[dict]:
    """The benchmark's calls, with each catalog copied here per seed."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    calls = []
    for seed in SEEDS:
        for workload in WORKLOADS:
            with tempfile.TemporaryDirectory() as work:
                for op in workloads.build(workload, seed, work):
                    argv = []
                    for arg in op["argv"]:
                        if arg.startswith(work + os.sep):
                            stem, ext = os.path.splitext(os.path.basename(arg))
                            name = f"{stem}.{seed}{ext}"
                            shutil.copyfile(arg, os.path.join(GOLDEN, name))
                            arg = "{golden}/" + name
                        argv.append(arg)
                    calls.append({"name": f"{workload}.{seed}.{op['name']}",
                                  "argv": argv})
    calls.append({"name": "verify-formulae.30", "argv": VERIFY})
    return calls


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if argv not in ([], ["--inputs"]):
        print("usage: regenerate.py [--inputs]", file=sys.stderr)
        return 2
    calls = _write_inputs() if argv else load_calls()
    recorded = [{"name": c["name"], "argv": c["argv"], **replay(c["argv"])}
                for c in calls]
    with open(CALLS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(recorded)} calls in {CALLS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
