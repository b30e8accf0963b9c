"""Stdout and exit code of fixed command lines, compared with stored output.

``data/golden_cli.json`` holds the exact stdout and exit code of each
command line.  A refactor must reproduce them byte for byte; a change that
means to alter the output has to edit the stored file by hand.

The per-chain JSON of cubes larger than ``cube 3``, and the longer
``summands`` listings, are too long to store, so they are pinned by the
sha1 of their stdout instead.
"""

import hashlib
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


@pytest.mark.parametrize(
    "argv, sha1",
    [
        ("cube 8 --allow-large --json", "54cbe9e1636c3629ec9324eabe0d74c97e06439a"),
        ("cube 7 --allow-large --json", "1fe15812139ea3113378b442bafe8ab798d09f67"),
        ("cube 4 --l 2 --k 10 --allow-large --json", "9c875f58759db0dab99e652d739938ce71beb3b8"),
        ("cube 3 --l 3 --k 12 --json", "a821596603de5fcdc2cb4c0a3b5056e6c02e13bd"),
        ("summands 8 1 8 --json", "29a64c3521e3820a0ad4aef9802bc79ca2a1b410"),
        ("summands 6 2 3 --subquotient 3 --positive --json",
         "e0bef199d4a7fbd0c050c44a3cf5fdeebe3859d9"),
        ("summands 7 1 4 --latching --csv", "d9981681bb8e62ab018f5ffba3f9fb9152555e76"),
        ("summands 6 2 3 --max-rank 2", "22ffdf7720503fce133c4a61c3d0fcb0c68f033e"),
    ],
)
def test_cube_json_is_unchanged(argv, sha1, capsys, monkeypatch):
    monkeypatch.delenv("RANKFILT_CACHE", raising=False)
    memo.clear()
    code = cli.main(argv.split())
    assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == sha1
    assert code == 0
