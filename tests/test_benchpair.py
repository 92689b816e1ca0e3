import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "benchpair.py"
spec = importlib.util.spec_from_file_location("benchpair", SCRIPT)
benchpair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(benchpair)


def run(side, seed, cli_s, quality):
    metrics = {m["name"]: 1.0 for m in benchpair.SPEC["end_to_end"]}
    metrics.update(cli_s=cli_s, quality=quality)
    return {"side": side, "seed": seed, "metrics": metrics}


def test_seed_range():
    assert benchpair.seed_range("7001-7004") == [7001, 7002, 7003, 7004]
    assert benchpair.seed_range("9") == [9]


def test_summary_counts_pairs_won_in_each_metric_direction():
    runs = [run("parent", 1, 3.0, 0.5), run("change", 1, 2.0, 0.5),
            run("change", 2, 2.5, 0.4), run("parent", 2, 2.5, 0.6),
            run("parent", 3, 4.0, 0.7), run("change", 3, 3.5, 0.8),
            run("parent", 4, 5.0, 0.9), run("change", 4, 1.0, 0.9)]
    units = {m["name"]: m["unit"] for m in benchpair.SPEC["end_to_end"]}
    out = benchpair.summary(runs, units)
    # lower is better for cli_s, higher for quality; ties count for neither
    assert out["cli_s"]["change_better_pairs"] == 3
    assert out["quality"]["change_better_pairs"] == 1
    assert out["setup_s"]["change_better_pairs"] == 0
    assert out["cli_s"]["pairs"] == 4 and out["cli_s"]["unit"] == "s"
    # inclusive quartiles of the parent's 2.5, 3.0, 4.0, 5.0
    assert out["cli_s"]["parent"] == pytest.approx(
        {"median": 3.5, "q1": 2.875, "q3": 4.25})


def test_aa_and_workload_arguments():
    base = ["--parent", "HEAD", "--tag", "t", "--what", "w", "--seeds", "1-2"]
    names = [w["name"] for w in benchpair.SPEC["workloads"]]
    args = benchpair.parse_args(base)
    assert not args.aa and args.workload == names
    args = benchpair.parse_args(base + ["--aa", "--workload", names[-1]])
    assert args.aa and args.workload == [names[-1]]
    with pytest.raises(SystemExit):
        benchpair.parse_args(base + ["--workload", "no-such-workload"])


def test_working_tree_export_holds_edits_and_no_ignored_files(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src" / "__pycache__").mkdir(parents=True)
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "src" / "kept.py").write_text("committed\n")
    (repo / "gone.md").write_text("deleted from the working tree\n")
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    (repo / "src" / "kept.py").write_text("edited, not committed\n")
    (repo / "src" / "new.py").write_text("untracked\n")
    (repo / "src" / "__pycache__" / "kept.pyc").write_bytes(b"stale")
    (repo / "gone.md").unlink()
    tree = benchpair.export_working_tree(tmp_path / "change", repo)
    files = sorted(str(p.relative_to(tree)) for p in tree.rglob("*")
                   if p.is_file())
    assert files == [".gitignore", "src/kept.py", "src/new.py"]
    assert (tree / "src" / "kept.py").read_text() == "edited, not committed\n"
