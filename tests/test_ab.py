"""``tools/ab.py``: its summary arithmetic and the source of its change tree.

The harness itself runs for minutes and stays out of this suite; these tests
load the module, check its reductions against hand-computed values, and
extract a change tree from a throwaway git repository.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", PATH)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


def test_a_single_value_is_all_three_quartiles():
    assert ab.quartiles([0.25]) == (0.25, 0.25, 0.25)


def test_summary_keeps_complete_pairs_and_counts_where_change_read_lower():
    parent = [1.0, 2.0, None, 4.0, 5.0, 3.0]
    change = [0.5, 2.0, 9.0, 3.0, None, 3.5]
    s = ab.summarize(parent, change)
    # pairs 0, 1, 3 and 5 are complete; change is lower in 0 and 3, equal in 1
    assert s["pairs"] == 4
    assert s["lower"] == 2
    # quartiles interpolated between the order statistics of each side's four values
    assert s["parent"] == (1.75, 2.5, 3.25)
    assert s["change"] == (1.625, 2.5, 3.125)


def test_a_number_no_pair_completed_has_no_quartiles():
    assert ab.summarize([1.0, None], [None, 2.0]) == {"pairs": 0}


def _git(root, *args):
    subprocess.run(["git", "-C", str(root), "-c", "user.name=ab", "-c", "user.email=ab@example.com",
                    "-c", "commit.gpgsign=false", *args], check=True, capture_output=True)


@pytest.fixture
def repo(tmp_path):
    root = tmp_path / "repo"
    root.mkdir()
    _git(root, "init", "-q")
    (root / "kept.py").write_text("X = 1\n")
    (root / ".gitignore").write_text("*.log\n")
    _git(root, "add", ".")
    _git(root, "commit", "-q", "-m", "start")
    return root


def test_the_change_tree_holds_the_tracked_files_as_they_stand(repo, tmp_path):
    (repo / "run.log").write_text("ignored, so no reason to refuse\n")
    assert ab.change_rev(repo) == "HEAD"
    (repo / "kept.py").write_text("X = 2\n")
    (repo / "staged.py").write_text("Y = 3\n")
    _git(repo, "add", "staged.py")
    ab._extract(repo, ab.change_rev(repo), tmp_path / "change")
    assert (tmp_path / "change" / "kept.py").read_text() == "X = 2\n"
    assert (tmp_path / "change" / "staged.py").read_text() == "Y = 3\n"
    assert not (tmp_path / "change" / "run.log").exists()
    assert (repo / "kept.py").read_text() == "X = 2\n"  # the checkout itself is left as it was


def test_an_untracked_file_makes_the_tool_refuse_and_name_it(repo):
    (repo / "kept.py").write_text("X = 2\n")
    (repo / "new.py").write_text("Z = 4\n")
    with pytest.raises(RuntimeError, match=r"left out of the change tree: new\.py$"):
        ab.change_rev(repo)
