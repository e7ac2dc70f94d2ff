"""Smoke tests: each experiment script runs to completion on a small setting; the test dependencies are declared."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["isospectral_survey.py", "--trials", "5"],
    ["cheeger_survey.py", "--trials", "5", "--max-n", "8"],
    ["road_sharing_demo.py"],
])
def test_script_exits_zero(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_cli_digest_small_corpus():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "cli_digest.py"), "--small"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *rows, summary = proc.stdout.splitlines()
    assert summary == f"# {len(rows)} runs"
    runs = [row.split("\t") for row in rows]
    assert all(len(run) == 4 for run in runs)
    codes = {argv: code for code, _, _, argv in runs}
    assert len(codes) == len(runs)  # every run is a distinct command line
    assert set(codes.values()) == {"0", "1"}  # none raised
    must_fail = [argv for argv in codes if "--max-order" in argv and not argv.startswith("cliques")
                 or "--p 0.5" in argv or "nan" in argv or "inf" in argv]
    assert len(must_fail) == 15
    assert all(codes[argv] == "1" for argv in must_fail)
    for code, document, _, argv in runs:
        assert (document != "-") == (code == "0"), argv


def test_cli_digest_full_corpus_is_the_committed_one():
    """Every run of the full corpus prints the line tests/cli_digest.txt holds for it: an exit code or an output
    byte that changes shows here. Regenerate the file with OPENBLAS_NUM_THREADS=1 python scripts/cli_digest.py
    only for a change meant to alter output."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "cli_digest.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got, expected = proc.stdout.splitlines(), (ROOT / "tests" / "cli_digest.txt").read_text().splitlines()
    changed = [(new, old) for new, old in zip(got, expected) if new != old]
    assert got == expected, changed[:5] or (len(got), len(expected))


def test_every_third_party_module_the_tests_import_is_declared():
    tomllib = pytest.importorskip("tomllib")  # the standard library's from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", req)[0].lower().replace("-", "_") for req in requirements}
    tests = list((ROOT / "tests").glob("*.py"))
    local = {path.stem for path in tests} | {"graphhodge"}
    imported = set()
    for path in tests:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local
    assert {"numpy", "pytest"} <= third_party  # the walk sees the imports
    assert third_party <= declared, sorted(third_party - declared)
