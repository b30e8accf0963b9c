"""Stdout and exit code of fixed command lines, compared with stored output.

``data/golden_cli.json`` holds the exact stdout and exit code of each
command line.  A refactor must reproduce them byte for byte; a change that
means to alter the output has to edit the stored file by hand.
"""

import json
import os

import pytest

from rankfilt import cli
from rankfilt.cache import memo

with open(os.path.join(os.path.dirname(__file__), "data", "golden_cli.json")) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("case", GOLDEN, ids=[case["argv"] for case in GOLDEN])
def test_cli_output_is_unchanged(case, capsys, monkeypatch):
    monkeypatch.delenv("RANKFILT_CACHE", raising=False)
    memo.clear()
    code = cli.main(case["argv"].split())
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]
