"""Every module of the package stays under the parser's 8,192-token step.

The benchmark compiles the package's sources on every pass (it runs with
PYTHONDONTWRITEBYTECODE=1), so the compile peak is part of each workload's
peak RSS. It is not linear in size: CPython's parser doubles its token array
at 8,192 tokens, and when subgroups.py crossed that step (8,144 -> 8,590
tokens) the peak that tracemalloc reads while compiling it went from 2.74
to 3.42 MB. Tokens are counted as the tokenize module yields them, less
comments, non-logical newlines and the encoding marker.
"""

import os
import tokenize

import pytest

import modscreen

PACKAGE = os.path.dirname(modscreen.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))
PARSER_STEP = 8192
IGNORED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def parser_tokens(path):
    with open(path, "rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline)
                   if tok.type not in IGNORED)


def test_the_package_has_its_modules():
    assert "subgroups.py" in MODULES and "zmod.py" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_stays_under_the_parser_token_step(name):
    assert parser_tokens(os.path.join(PACKAGE, name)) < PARSER_STEP
