"""``tools/ab.py``: its summary arithmetic and the source of its change tree.

The harness itself runs for minutes and stays out of this suite; these tests
load the module, check its reductions, its reading of a benchmark report and
its JSON record against hand-computed values, write that record through
``--json`` with the measurement stubbed out, refuse or extract a change tree
in a throwaway git repository, and check the records of ``BENCH_trajectory.json``.
"""

import importlib.util
import json
import re
import subprocess
from datetime import datetime, timezone
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


def test_the_json_record_holds_the_revs_the_date_and_every_numbers_summary():
    readings = {
        "parent": [{"jobs.wall_s": 2.0, "tier1.passed": 779.0}, {"jobs.wall_s": 4.0}],
        "change": [{"jobs.wall_s": 1.0, "tier1.passed": 779.0}, {"jobs.wall_s": 3.0, "lg-sweep.sweep_s": 0.1}],
    }
    revs = {"parent": "a" * 40, "change": "b" * 40}
    trees = {"parent": "c" * 40, "change": "d" * 40}
    start = datetime(2026, 1, 2, 3, 4, 5, tzinfo=timezone.utc)
    rec = json.loads(json.dumps(ab.record(revs, trees, readings, start)))
    assert set(rec) == {"revs", "trees", "date", "pairs", "numbers"}
    assert rec["revs"] == revs
    assert rec["trees"] == trees
    assert rec["date"] == "2026-01-02T03:04:05+00:00"
    assert rec["pairs"] == 2
    assert list(rec["numbers"]) == ["jobs.wall_s", "tier1.passed", "lg-sweep.sweep_s"]  # as first read
    assert rec["numbers"]["jobs.wall_s"] == {
        "pairs": 2, "parent": [2.5, 3.0, 3.5], "change": [1.5, 2.0, 2.5], "lower": 2,
    }
    assert rec["numbers"]["tier1.passed"] == {
        "pairs": 1, "parent": [779.0] * 3, "change": [779.0] * 3, "lower": 0,
    }
    assert rec["numbers"]["lg-sweep.sweep_s"] == {"pairs": 0}


def _unit(interp: int, dense: int) -> dict:
    return {"raw": 0.01, "wall": 0.01, "interp": [3e-4] * interp, "dense": [2e-3] * dense}


# two rounds of two jobs; the second job of round 1 raised, so it has no emit unit
REPORT = {
    "rounds": [
        [
            {"parse": _unit(0, 0), "sweep": _unit(4, 3), "emit": _unit(1, 0), "points": []},
            {"parse": _unit(0, 1), "sweep": _unit(2, 2), "emit": _unit(0, 0), "points": []},
        ],
        [
            {"parse": _unit(0, 0), "sweep": _unit(3, 1), "emit": _unit(0, 1), "points": []},
            {"parse": _unit(1, 0), "sweep": _unit(1, 0), "points": []},
        ],
    ],
    "peak_rss_mb": 50.0,
}


def test_a_runs_thinnest_round_is_its_fewest_passes_of_either_kind():
    # round 0 holds 7 interp and 6 dense passes, round 1 holds 5 and 2
    assert ab.min_round_passes(REPORT) == 2
    thin = {"rounds": [REPORT["rounds"][0], [{"parse": _unit(0, 0), "sweep": _unit(2, 0), "points": []}]]}
    assert ab.min_round_passes(thin) == 0  # the round whose rescaling fails on no dense pass


def test_the_thinnest_round_is_read_also_from_a_run_that_exited_non_zero(monkeypatch, tmp_path, capsys):
    stale = tmp_path / "perfbench" / "out" / "lg-sweep" / "plain" / "report.json"
    stale.parent.mkdir(parents=True)
    stale.write_text(json.dumps(REPORT))

    def run(tree, args, env=None):
        workload = args[args.index("--workload") + 1]
        if workload == "chsh-sweep":  # it writes its report, then its checks fail
            report = tree / "perfbench" / "out" / workload / "plain" / "report.json"
            report.parent.mkdir(parents=True)
            report.write_text(json.dumps(REPORT))
        return subprocess.CompletedProcess(args, 1, "", "StatisticsError"), 1.0, 1.0

    monkeypatch.setattr(ab, "_run", run)
    # lg-sweep's report is from an earlier run, and photon-fock wrote none
    assert ab._perfbench(tmp_path, 3001) == {"chsh-sweep.min_round_passes": 2.0}
    assert capsys.readouterr().err.count("exit 1") == 3


def test_a_run_that_exits_zero_gives_its_metrics_failed_count_and_host_fast_share(monkeypatch, tmp_path):
    result = {"correct": True, "attempted": 9, "failed": 0,
              "metrics": {"sweep_s": {"value": 0.06, "unit": "s"}, "peak_rss_mb": {"value": 50.0, "unit": "MB"}}}
    stdout = "\n".join(['raw {"sweep_s": 0.07}', 'wall {"sweep_s": 0.08}', 'host {"fast_share": 0.4375}',
                        json.dumps(result)]) + "\n"

    def run(tree, args, env=None):
        report = tree / "perfbench" / "out" / args[args.index("--workload") + 1] / "plain" / "report.json"
        report.parent.mkdir(parents=True, exist_ok=True)
        report.write_text(json.dumps(REPORT))
        return subprocess.CompletedProcess(args, 0, stdout, ""), 1.0, 1.0

    monkeypatch.setattr(ab, "_run", run)
    out = ab._perfbench(tmp_path, 3001)
    assert out["lg-sweep.min_round_passes"] == 2.0
    assert out["lg-sweep.failed"] == 0.0
    assert out["lg-sweep.fast_share"] == 0.4375
    assert out["lg-sweep.sweep_s"] == 0.06
    assert out["lg-sweep.peak_rss_mb"] == 50.0
    assert len(out) == 5 * len(ab.WORKLOADS)


def test_the_trajectory_file_is_a_dated_list_of_ab_records():
    # one record per change, each as ``tools/ab.py --json`` wrote it; nothing is run here.
    # The first two records were written before the tool reported ``src`` tree ids.
    records = json.loads((PATH.parents[1] / "BENCH_trajectory.json").read_text())
    assert isinstance(records, list)
    for k, rec in enumerate(records):
        ids = ("revs", "trees") if k >= 2 else ("revs",)
        assert set(rec) == {*ids, "date", "pairs", "numbers"}
        for field in ids:
            assert set(rec[field]) == {"parent", "change"}
            assert all(re.fullmatch(r"[0-9a-f]{40}", rev) for rev in rec[field].values())
        assert datetime.fromisoformat(rec["date"]).tzinfo is not None
        assert rec["pairs"] >= 1
        wanted = {"jobs.wall_s", "jobs.cpu_s", "tier1.wall_s", "tier1.cpu_s", "tier1.passed"}
        wanted |= {f"{w}.{m}" for w in ab.WORKLOADS for m in ("fast_share", "failed", "sweep_s")}
        assert wanted <= set(rec["numbers"])
        for summary in rec["numbers"].values():
            assert 0 <= summary["pairs"] <= rec["pairs"]
            if summary["pairs"]:
                assert set(summary) == {"pairs", "parent", "change", "lower"}
                for side in ("parent", "change"):
                    assert len(summary[side]) == 3 and summary[side] == sorted(summary[side])
                assert 0 <= summary["lower"] <= summary["pairs"]
    assert [rec["date"] for rec in records] == sorted(rec["date"] for rec in records)


def test_the_json_flag_writes_that_record_after_the_table(monkeypatch, tmp_path, capsys):
    readings = {"parent": [{"jobs.wall_s": 2.0}], "change": [{"jobs.wall_s": 1.0}]}
    monkeypatch.setattr(ab, "change_rev", lambda root: "HEAD")
    monkeypatch.setattr(ab, "commit_of", lambda root, rev: {"HEAD~1": "a" * 40, "HEAD": "b" * 40}[rev])
    monkeypatch.setattr(ab, "src_tree", lambda root, rev: {"a" * 40: "c" * 40, "b" * 40: "d" * 40}[rev])
    monkeypatch.setattr(ab, "measure", lambda revs, pairs: readings)
    out = tmp_path / "ab.json"
    assert ab.main(["HEAD~1", "--pairs", "1", "--json", str(out)]) == 0
    assert "jobs.wall_s" in capsys.readouterr().out
    rec = json.loads(out.read_text())
    assert rec["revs"] == {"parent": "a" * 40, "change": "b" * 40}
    assert rec["trees"] == {"parent": "c" * 40, "change": "d" * 40}
    assert datetime.fromisoformat(rec["date"]).tzinfo is not None
    assert rec["pairs"] == 1
    assert rec["numbers"] == {"jobs.wall_s": {"pairs": 1, "parent": [2.0] * 3, "change": [1.0] * 3, "lower": 1}}
    with pytest.raises(SystemExit) as refused:  # before any run, when the file cannot be written
        ab.main(["HEAD~1", "--json", str(tmp_path / "missing" / "ab.json")])
    assert refused.value.code == 2


def _git(root, *args):
    return subprocess.run(["git", "-C", str(root), "-c", "user.name=ab", "-c", "user.email=ab@example.com",
                           "-c", "commit.gpgsign=false", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


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


def test_a_modified_tracked_file_makes_the_tool_refuse_and_name_it(repo, tmp_path):
    (repo / "run.log").write_text("ignored, so no reason to refuse\n")
    assert ab.change_rev(repo) == "HEAD"
    (repo / "kept.py").write_text("X = 2\n")
    (repo / "staged.py").write_text("Y = 3\n")
    _git(repo, "add", "staged.py")
    with pytest.raises(RuntimeError, match=r"left out of the change tree: kept\.py, staged\.py$"):
        ab.change_rev(repo)
    _git(repo, "commit", "-q", "-a", "-m", "change")
    ab._extract(repo, ab.change_rev(repo), tmp_path / "change")
    assert (tmp_path / "change" / "kept.py").read_text() == "X = 2\n"
    assert (tmp_path / "change" / "staged.py").read_text() == "Y = 3\n"
    assert not (tmp_path / "change" / "run.log").exists()


def test_an_untracked_file_makes_the_tool_refuse_and_name_it(repo):
    (repo / "kept.py").write_text("X = 2\n")
    (repo / "new.py").write_text("Z = 4\n")
    with pytest.raises(RuntimeError, match=r"left out of the change tree: new\.py$"):
        ab.change_rev(repo)


def test_a_revision_resolves_to_its_commit_id_or_is_refused(repo):
    commit = ab.commit_of(repo, "HEAD")
    assert re.fullmatch(r"[0-9a-f]{40}", commit)
    assert ab.commit_of(repo, commit[:12]) == commit
    with pytest.raises(RuntimeError, match="^not a commit: no-such-rev$"):
        ab.commit_of(repo, "no-such-rev")


def test_the_record_names_each_sides_src_tree_which_a_later_document_commit_keeps(
        repo, tmp_path, monkeypatch):
    (repo / "src").mkdir()
    (repo / "src" / "code.py").write_text("A = 1\n")
    _git(repo, "add", "src")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "src" / "code.py").write_text("A = 2\n")
    _git(repo, "commit", "-q", "-a", "-m", "change")
    monkeypatch.setattr(ab, "ROOT", repo)
    monkeypatch.setattr(ab, "measure", lambda revs, pairs: {"parent": [{}], "change": [{}]})
    out = tmp_path / "ab.json"
    assert ab.main(["HEAD~1", "--pairs", "1", "--json", str(out)]) == 0
    rec = json.loads(out.read_text())
    for side, rev in (("parent", "HEAD~1"), ("change", "HEAD")):
        assert rec["trees"][side] == _git(repo, "rev-parse", f"{rev}:src")
        assert _git(repo, "cat-file", "-t", rec["trees"][side]) == "tree"
    assert rec["trees"]["parent"] != rec["trees"]["change"]
    # the record is committed with the documents that cite it: the change's commit
    # id is then no longer HEAD's, but its src tree id still is HEAD's
    (repo / "NOTES.md").write_text("measured\n")
    _git(repo, "add", "NOTES.md")
    _git(repo, "commit", "-q", "-m", "record")
    assert rec["revs"]["change"] != _git(repo, "rev-parse", "HEAD")
    assert rec["trees"]["change"] == _git(repo, "rev-parse", "HEAD:src")


def test_a_revision_without_a_src_tree_is_refused(repo):
    with pytest.raises(RuntimeError, match="^no src tree in HEAD$"):
        ab.src_tree(repo, "HEAD")
