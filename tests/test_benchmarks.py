"""The benchmark helper scripts under ``benchmarks/``."""

import importlib.util
import os
import subprocess

import pytest

PAIRS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                     "pairs.py")


def _pairs():
    spec = importlib.util.spec_from_file_location("_benchmarks_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(root, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], cwd=root, check=True, capture_output=True)


def test_the_change_side_is_the_working_tree_without_bytecode(tmp_path):
    try:
        _git(tmp_path, "init", "-q", "repo")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("git is not available")
    root = tmp_path / "repo"
    (root / "pkg").mkdir()
    (root / "pkg" / "mod.py").write_text("X = 1\n")
    (root / "pkg" / "gone.py").write_text("Y = 1\n")
    (root / "README").write_text("committed\n")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "first")
    # an uncommitted edit, a staged new file, a deleted tracked file, an
    # untracked file and bytecode left by an earlier run
    (root / "pkg" / "mod.py").write_text("X = 2\n")
    (root / "pkg" / "new.py").write_text("Z = 3\n")
    _git(root, "add", "pkg/new.py")
    (root / "pkg" / "gone.py").unlink()
    (root / "scratch.txt").write_text("untracked\n")
    (root / "pkg" / "__pycache__").mkdir()
    (root / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"x")

    into = tmp_path / "copy"
    _pairs().working_tree(into, root)
    files = sorted(str(p.relative_to(into)).replace(os.sep, "/")
                   for p in into.rglob("*") if p.is_file())
    assert files == ["README", "pkg/mod.py", "pkg/new.py"]
    assert (into / "pkg" / "mod.py").read_text() == "X = 2\n"
    assert not any(p.name == "__pycache__" for p in into.rglob("*"))
