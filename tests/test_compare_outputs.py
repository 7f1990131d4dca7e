"""``scripts/compare_outputs.py``: a ``--smoke`` self-comparison finds no
difference, and one changed byte, in an output or in a checkout's source, is
named by command and file; a changed ``verification.json`` also by kind."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "compare_outputs.py"


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def self_run(compare_outputs, tmp_path_factory):
    work = tmp_path_factory.mktemp("self")
    argv = ["--parent", str(ROOT), "--seed", "3", "--smoke", "--work", str(work)]
    code = compare_outputs.main(argv)
    return code, work


def test_self_comparison_matches(compare_outputs, self_run):
    code, work = self_run
    assert code == 0
    names = sorted(p.name for p in (work / "change").iterdir() if p.is_dir())
    assert len(names) == 15
    for name in names:
        assert any((work / "change" / name / file).is_file() for file in compare_outputs.COMPARED)


def test_one_tampered_output_byte_is_named(compare_outputs, self_run, tmp_path):
    _, work = self_run
    change = tmp_path / "change"
    shutil.copytree(work / "change", change)
    names = sorted(p.name for p in change.iterdir() if p.is_dir())
    assert compare_outputs.differences(work / "parent", change, names) == []

    # the paths into each side's run directory are not compared
    manifest = change / "fine_exp" / "manifest.json"
    manifest.write_text(manifest.read_text().replace(str(work / "change"), str(change)))
    assert compare_outputs.differences(work / "parent", change, names) == []

    table = change / "fine_exp" / "solution.csv"
    data = bytearray(table.read_bytes())
    data[-2] = ord("9") if data[-2] != ord("9") else ord("8")
    table.write_bytes(bytes(data))
    assert compare_outputs.differences(work / "parent", change, names) == [
        "fine_exp: solution.csv differs"
    ]


def test_verification_changes_are_named_by_kind(compare_outputs, self_run, tmp_path):
    _, work = self_run
    change = tmp_path / "change"
    shutil.copytree(work / "change", change)
    names = sorted(p.name for p in change.iterdir() if p.is_dir())
    path = change / "verify_mean_variance" / "verification.json"
    report = json.loads(path.read_text())

    report["value_consistency"]["gap"] = 2.0 * report["value_consistency"]["gap"] + 1e-300
    spike = report["spike"]["cases"][0]
    spike["extrapolated"] *= 1.0 + 1e-9
    path.write_text(json.dumps(report, indent=2))
    (line,) = compare_outputs.differences(work / "parent", change, names)
    assert line.startswith(
        "verify_mean_variance: verification.json differs (numbers only, largest relative change "
    )
    assert float(line.rsplit(" ", 1)[1].rstrip(")")) == pytest.approx(0.5, rel=1e-6)

    for tamper in (
        lambda r: r["spike"]["cases"][0].update(passed=not r["spike"]["cases"][0]["passed"]),
        lambda r: r["spike"].pop("cases"),
        lambda r: r.update(solver="other"),
    ):
        changed = json.loads(path.read_text())
        tamper(changed)
        path.write_text(json.dumps(changed))
        assert compare_outputs.differences(work / "parent", change, names) == [
            "verify_mean_variance: verification.json differs (verdicts differ)"
        ]


def test_tampered_source_exits_one(compare_outputs, tmp_path, capsys):
    """A parent whose cos penalty reaches no budget fails the cos command."""
    parent = tmp_path / "parent"
    shutil.copytree(ROOT / "src", parent / "src", ignore=shutil.ignore_patterns("__pycache__"))
    source = parent / "src" / "equicontrol" / "objectives.py"
    text = source.read_text()
    assert text.count("supremum = 1.0") == 1
    source.write_text(text.replace("supremum = 1.0", "supremum = 0.0"))

    code = compare_outputs.main(["--parent", str(parent), "--seed", "3", "--smoke"])
    out = capsys.readouterr().out
    assert code == 1
    assert "fine_cos: exit 3 (parent) against 0 (change)" in out
    assert "fine_cos: solution.csv written by the change only" in out
    assert "15 commands, 3 differences" in out
