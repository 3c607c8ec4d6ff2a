"""Every recorded call in tests/golden gives the same exit code, standard
output and standard error again, run in process through cli.main; re-record
with tests/golden/regenerate.py only for a change that means to change them."""

import difflib

import pytest

from golden.regenerate import load_calls, replay

CALLS = load_calls()


def test_the_corpus_holds_the_benchmark_ops_and_verify_formulae():
    names = [call["name"] for call in CALLS]
    assert len(names) == len(set(names)) == 89
    assert names[-1] == "verify-formulae.30"
    rows = CALLS[-1]["stdout"].splitlines()[1:]
    assert len(rows) == 1702 and all(row.endswith("\tok") for row in rows)


@pytest.mark.parametrize("call", CALLS, ids=[call["name"] for call in CALLS])
def test_recorded_output_is_reproduced(call):
    got = replay(call["argv"])
    for stream in ("stdout", "stderr"):
        if got[stream] != call[stream]:
            diff = difflib.unified_diff(call[stream].splitlines(),
                                        got[stream].splitlines(), "recorded",
                                        "now", lineterm="", n=1)
            pytest.fail(f"{stream} of {call['argv']} differs:\n"
                        + "\n".join(list(diff)[:40]))
    assert got["code"] == call["code"]
