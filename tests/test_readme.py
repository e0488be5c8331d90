"""The python blocks of README.md run as written and print what they say: each
``# …`` comment in a block is the line that its statement prints, in order."""

import contextlib
import io
import os
import re
import tokenize

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

with open(README, encoding="utf-8") as handle:
    BLOCKS = re.findall(r"^```python\n(.*?)^```$", handle.read(), re.MULTILINE | re.DOTALL)


def _output_comments(source: str) -> list:
    """The text of every ``#`` comment of ``source``, in order."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT]


def test_the_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=lambda source: source.splitlines()[0][:40])
def test_a_readme_block_prints_its_comments(source):
    expected = _output_comments(source)
    assert expected, "a block with no output comment checks nothing"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(source, README, "exec"), {"__name__": "readme"})
    assert printed.getvalue().splitlines() == expected
