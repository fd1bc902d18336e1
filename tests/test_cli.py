import json
import os
import subprocess
import sys

import pytest

from phl.cli import main, render_ascii, render_tex
from phl.perverse import PerverseHodgeCube

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")
SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "specs")
K3_SPEC = os.path.join(SPEC_DIR, "k3_b22.json")
V25_SPEC = os.path.join(SPEC_DIR, "verbitsky_n2_b5.json")

K3_ASCII_D1 = """\
d = 1
 ·  1  ·
 1 18  1
 ·  1  ·"""

K3_TEX_GOLDEN = """\
% perverse-Hodge cube, n = 1
\\begin{tikzpicture}[z={(-0.3cm,-0.2cm)}]
  \\node at (0, 0, -1) {$1$};
  \\node at (0, -1, 0) {$1$};
  \\node at (-1, 0, 0) {$1$};
  \\node at (0, 0, 0) {$18$};
  \\node at (1, 0, 0) {$1$};
  \\node at (0, 1, 0) {$1$};
  \\node at (0, 0, 1) {$1$};
\\end{tikzpicture}
"""


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cmd_cube_k3(tmp_path, capsys):
    out = tmp_path / "cube.json"
    code, _, _ = run_cli(["cube", "--spec", K3_SPEC, "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert {"i": 0, "k": 0, "d": 1, "h": 18} in doc["entries"]
    assert doc["n"] == 1


def test_cmd_cube_malformed_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "k3",\n}')
    code, _, err = run_cli(["cube", "--spec", str(bad)], capsys)
    assert code == 2
    assert "line" in err and "column" in err


def test_cmd_cube_b2_4_rejected(tmp_path, capsys):
    bad = tmp_path / "b4.json"
    bad.write_text('{"kind": "k3", "b2": 4}')
    code, _, err = run_cli(["cube", "--spec", str(bad)], capsys)
    assert code == 3
    assert "b2 = 4" in err


def test_cmd_cube_unknown_field_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "extra.json"
    bad.write_text('{"kind": "k3", "surprise": 1}')
    code, _, _ = run_cli(["cube", "--spec", str(bad)], capsys)
    assert code == 2


def test_cmd_cube_verbitsky_total(tmp_path, capsys):
    out = tmp_path / "cube.json"
    code, _, _ = run_cli(["cube", "--spec", V25_SPEC, "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert sum(e["h"] for e in doc["entries"]) == 27


def test_render_ascii_k3(k3_cube):
    text = render_ascii(k3_cube)
    assert K3_ASCII_D1 in text
    assert "d = 0\n1" in text


def test_render_ascii_empty():
    assert render_ascii(PerverseHodgeCube(n=1, entries={})) == "(empty)\n"


def test_render_ascii_slice_widths(shipped_cubes):
    text = render_ascii(shipped_cubes["verbitsky_n2_b5"])
    blocks = [b for b in text.split("d = ") if b.strip()]
    widths = []
    for b in blocks:
        rows = [r for r in b.splitlines()[1:] if r.strip()]
        widths.append(len(rows[0].split()))
    assert widths == [1, 3, 5, 3, 1]


def test_render_tex_golden(k3_cube):
    assert render_tex(k3_cube) == K3_TEX_GOLDEN


def test_cmd_render_round_trip(tmp_path, capsys, k3_cube):
    cube_path = tmp_path / "cube.json"
    code, _, _ = run_cli(["cube", "--spec", K3_SPEC, "--out", str(cube_path)], capsys)
    assert code == 0
    # re-reading reproduces the in-memory cube byte-identically
    doc = json.loads(cube_path.read_text())
    again = PerverseHodgeCube.from_json_dict(doc)
    assert again == k3_cube
    assert again.dumps() + "\n" == cube_path.read_text()
    code, out, _ = run_cli(["render", "--spec", str(cube_path)], capsys)
    assert code == 0
    assert K3_ASCII_D1 in out


LONG_INT = "9" * 5000

# a valid b2 = 5 gram but for its last entry, in exponent notation
EXPONENT_GRAM = [
    ["0", "1", "0", "0", "0"],
    ["1", "0", "0", "0", "0"],
    ["0", "0", "0", "1", "0"],
    ["0", "0", "1", "0", "0"],
    ["0", "0", "0", "0", "9e999999"],
]


@pytest.mark.parametrize(
    "verb,doc",
    [
        ("cube", '{"kind": "k3", "gram": []}'),
        ("cube", '{"kind": "k3", "gram": [["x"]]}'),
        ("cube", '{"kind": "k3", "gram": [["1/0"]]}'),
        ("cube", '{"kind": "k3", "gram": [["0.5"]]}'),
        ("cube", '{"kind": "k3", "gram": [["1e3"]]}'),
        # as a Fraction, the last entry would be a million-digit integer
        ("check", json.dumps({"kind": "k3", "b2": 5, "gram": EXPONENT_GRAM})),
        ("cube", '{"kind": "k3", "gram": [[true]]}'),
        ("cube", '{"kind": "verbitsky", "n": true, "b2": 5}'),
        ("render", '{"n": 1, "entries": [{"i": 0, "k": 0, "d": 0, "h": true}]}'),
        ("render", '{"n": 1, "entries": 7}'),
        ("render", '{"n": 1, "entries": [1]}'),
        ("render", '{"n": 1000000000, "entries": [{"i": 0, "k": 0, "d": 0, "h": 1}]}'),
        ("render", '{"n": 1, "entries": [{"i": 1000000000, "k": 0, "d": 1, "h": 1}]}'),
        # JSON integers longer than the 4300 digits int() accepts from text
        pytest.param("cube", '{"kind": "k3", "n": %s}' % LONG_INT, id="cube-long-integer-n"),
        pytest.param(
            "check",
            json.dumps({"kind": "k3", "b2": 5, "gram": EXPONENT_GRAM}).replace('"9e999999"', LONG_INT),
            id="check-long-integer-gram-entry",
        ),
        pytest.param(
            "render",
            '{"n": 1, "entries": [{"i": 0, "k": 0, "d": 0, "h": %s}]}' % LONG_INT,
            id="render-long-integer-h",
        ),
    ],
)
def test_malformed_document_exit_2_one_line(tmp_path, capsys, verb, doc):
    path = tmp_path / "doc.json"
    path.write_text(doc)
    code, _, err = run_cli([verb, "--spec", str(path)], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "doc,words",
    [
        ('{"kind": "k3", "b2": 30}', "b2 <= 22"),
        ('{"kind": "verbitsky", "n": 4, "b2": 5}', "1 <= n <= 3"),
        ('{"kind": "verbitsky", "n": 2, "b2": 9}', "b2 <= 8"),
    ],
)
def test_out_of_cap_spec_exit_3_one_line(tmp_path, capsys, doc, words):
    path = tmp_path / "spec.json"
    path.write_text(doc)
    code, _, err = run_cli(["model", "--spec", str(path)], capsys)
    assert code == 3
    assert len(err.splitlines()) == 1
    assert words in err


def test_invalid_custom_gram_names_check_and_witness(tmp_path, capsys):
    # beta, coordinate 2, is not isotropic under this gram
    gram = [["0"] * 5 for _ in range(5)]
    gram[0][1] = gram[1][0] = gram[2][2] = gram[3][3] = "1"
    gram[4][4] = "-1"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "k3", "b2": 5, "gram": gram}))
    code, _, err = run_cli(["model", "--spec", str(path)], capsys)
    assert code == 3
    assert len(err.splitlines()) == 1
    assert "distinguished_classes (q(beta, beta) != 0)" in err
    assert "coordinate 0 is sigma, 1 is sigma_bar, 2 is beta" in err


@pytest.mark.parametrize("kind", ["k3", "verbitsky"])
def test_unbigraded_custom_gram_names_convention(tmp_path, capsys, kind):
    # q(sigma, e_4) != 0 mixes bidegrees (2, 2) and (3, 1) in the pairing of
    # degree 4, which is caught while the H^4 piece is built
    gram = [["0"] * 5 for _ in range(5)]
    gram[0][1] = gram[1][0] = gram[2][3] = gram[3][2] = gram[0][4] = gram[4][0] = "1"
    gram[4][4] = "-1"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": kind, "n": 1, "b2": 5, "gram": gram}))
    code, _, err = run_cli(["model", "--spec", str(path)], capsys)
    assert code == 3
    assert len(err.splitlines()) == 1
    assert "pairing kernel in degree 4 is not bigraded" in err
    assert "coordinate 0 is sigma, 1 is sigma_bar, 2 is beta" in err


def test_cmd_render_invalid_cube(tmp_path, capsys):
    bad = tmp_path / "cube.json"
    bad.write_text('{"n": 1, "entries": [{"i": 0, "k": 0, "d": 9, "h": 1}]}')
    code, _, err = run_cli(["render", "--spec", str(bad)], capsys)
    assert code == 2
    assert "parse error" in err


def test_cmd_check_k3(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(["check", "--spec", K3_SPEC, "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"checks"}
    names = [c["name"] for c in doc["checks"]]
    assert len(names) == len(set(names))
    for c in doc["checks"]:
        assert set(c) == {"name", "status", "witnesses", "data"}
        assert c["status"] == "pass"
    assert "hodge_item1_match" in names
    assert "so6_dimension" in names
    assert "checks passed" in stdout


def test_cmd_check_determinism(tmp_path, capsys):
    a, b = tmp_path / "r1.json", tmp_path / "r2.json"
    run_cli(["check", "--spec", K3_SPEC, "--out", str(a)], capsys)
    run_cli(["check", "--spec", K3_SPEC, "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_cmd_cube_determinism(tmp_path, capsys):
    a, b = tmp_path / "c1.json", tmp_path / "c2.json"
    run_cli(["cube", "--spec", K3_SPEC, "--out", str(a)], capsys)
    run_cli(["cube", "--spec", K3_SPEC, "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_cmd_model_summary(capsys):
    code, out, _ = run_cli(["model", "--spec", K3_SPEC], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "kind": "k3",
        "n": 1,
        "b2": 22,
        "total_dim": 24,
        "betti": [1, 0, 22, 0, 1],
        "valid": True,
    }


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["cube", "--spec", K3_SPEC, "--frobnicate"])
    assert exc.value.code == 2


def test_missing_file_is_parse_error(capsys):
    code, _, err = run_cli(["cube", "--spec", "/nonexistent/spec.json"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "verb,case",
    [
        ("model", "spec_is_directory"),
        ("check", "spec_is_directory"),
        ("model", "spec_not_utf8"),
        ("render", "spec_not_utf8"),
        ("cube", "out_is_directory"),
    ],
)
def test_file_error_exit_2_one_line(tmp_path, capsys, verb, case):
    args = [verb, "--spec", K3_SPEC]
    if case == "spec_is_directory":
        args[2] = str(tmp_path)
    elif case == "spec_not_utf8":
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"kind": "k3", "b2": 22} \u00e9'.encode("latin-1"))
        args[2] = str(bad)
    else:
        args += ["--out", str(tmp_path)]
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("file error: ")


def test_cmd_check_verbitsky_n3_exit_zero(tmp_path, capsys):
    # the deepest shipped model passes the whole battery end to end
    spec = os.path.join(SPEC_DIR, "verbitsky_n3_b5.json")
    out = tmp_path / "report.json"
    code, _, _ = run_cli(["check", "--spec", spec, "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_import_does_not_load_numpy():
    # phl needs only the standard library; a fresh process shows whether any
    # phl module pulls numpy in
    code = "import sys, phl, phl.cli, phl.lie; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_import_does_not_load_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, about half of what
    # importing phl used to cost; -S keeps site .pth files out of the count
    code = (
        "import sys, phl, phl.cli, phl.lie; "
        "sys.exit(' '.join(sorted({'dataclasses', 'inspect'} & set(sys.modules))) or None)"
    )
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    cmd = [sys.executable, "-S", "-c", code]
    run = subprocess.run(cmd, env=env, timeout=60, capture_output=True, text=True)
    assert run.returncode == 0, f"imported: {run.stderr}"
