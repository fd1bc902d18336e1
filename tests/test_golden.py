"""`phl cube` and `phl check` on every shipped spec reproduce the committed
golden files byte for byte, with the committed exit codes.

The files under tests/golden/ were written by the dense-tensor
implementation, so this pins the outputs across changes of representation.
Regenerate them only for an intended change of output:

    phl cube  --spec specs/NAME.json --out tests/golden/NAME.cube.json
    phl check --spec specs/NAME.json --out tests/golden/NAME.check.json
"""

import json
import os

import pytest

from phl.cli import main

HERE = os.path.dirname(__file__)
SPEC_DIR = os.path.join(HERE, "..", "specs")
GOLDEN_DIR = os.path.join(HERE, "golden")

with open(os.path.join(GOLDEN_DIR, "exit_codes.json"), encoding="utf-8") as fh:
    EXIT_CODES = json.load(fh)


@pytest.mark.parametrize("verb", ["cube", "check"])
@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_shipped_spec_matches_golden(tmp_path, capsys, name, verb):
    out = tmp_path / f"{name}.{verb}.json"
    code = main([verb, "--spec", os.path.join(SPEC_DIR, f"{name}.json"), "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_CODES[name][verb]
    with open(os.path.join(GOLDEN_DIR, f"{name}.{verb}.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()
