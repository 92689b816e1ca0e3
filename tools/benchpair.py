"""Benchmark a parent revision against the working tree, in alternating pairs.

    python3 tools/benchpair.py --parent HEAD --tag skipgram_step \\
        --what "what the change does" --seeds 7001-7010
    python3 tools/benchpair.py --parent HEAD --tag aa_n2v_walks --aa \\
        --workload n2v-walks --what "A/A floor" --seeds 7101-7110

For each workload in ``BENCHMARK.json`` (or each that ``--workload``
names) and each seed, the benchmark command runs once on an export of
the parent revision and once on an export of the working tree,
alternating which side goes first; then once more per side with
``--trace 1`` at seed ``TRACE_SEED``. The parent is exported with ``git
archive`` into a temporary directory, so a run that is cut short leaves
nothing behind in the repository's ``.git``. The working tree's export,
in a sibling directory, holds its tracked files as they are now and its
untracked files that are not ignored, so neither side imports bytecode
or other leftovers that the other lacks. Both sides must have the same
benchmark code (the paths ``BENCHMARK.json`` lists, and the file
itself), or the comparison would measure the benchmark too.

With ``--aa`` both sides are exports of the parent, in sibling
directories, so any gap between them is the harness's own side bias: the
floor that a claimed gain on the same metric has to clear.

``BENCH_<tag>.json`` at the root of the working tree is rewritten after
every run. Per workload and end-to-end metric it holds each side's median
and inclusive quartiles over the seeds, the number of pairs the change
won (ties count for neither side), and ``claim_met``: whether a gain on
that metric may be claimed, that is, at least ten pairs ran, the change
won at least nine tenths of them, and its median is better than the
parent's by more than the parent's quartile spread. Per workload it also
totals each side's failed operations (``failed``); then come each side's
traced per-layer numbers and every run, with the host (``nproc``,
Python, numpy, BLAS) as the benchmark reports it.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# one traced run per side gives the per-layer numbers, away from the
# seeds of the timed pairs
TRACE_SEED, TRACE_SECONDS = 4001, 20


def seed_range(text):
    """``"7001-7010"`` or ``"7001"`` as a list of seeds."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(tree, workload, seed, seconds, trace):
    """One benchmark run from ``tree``: its info line and its result line."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def spread(values):
    """Median and inclusive quartiles."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(runs, units):
    """Per end-to-end metric: each side's spread, the pairs won and
    whether a gain may be claimed."""
    out = {}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        sides = {side: {r["seed"]: r["metrics"][name] for r in runs
                        if r["side"] == side} for side in ("parent", "change")}
        seeds = sorted(set(sides["parent"]) & set(sides["change"]))
        sign = 1 if metric["better"] == "higher" else -1
        won = sum(sign * (sides["change"][s] - sides["parent"][s]) > 0
                  for s in seeds)
        out[name] = {"unit": units[name]}
        out[name].update((side, spread(list(sides[side].values())))
                         for side in sides if sides[side])
        out[name].update(change_better_pairs=won, pairs=len(seeds))
        if seeds:
            parent, change = out[name]["parent"], out[name]["change"]
            gap = sign * (change["median"] - parent["median"])
            out[name]["claim_met"] = (len(seeds) >= 10
                                      and 10 * won >= 9 * len(seeds)
                                      and gap > parent["q3"] - parent["q1"])
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--tag", required=True, help="names BENCH_<tag>.json")
    parser.add_argument("--what", required=True, help="what the change does")
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="a seed or an inclusive range, e.g. 7001-7010")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]],
                        help="run only this workload (repeatable)")
    parser.add_argument("--aa", action="store_true",
                        help="run both sides from exports of --parent")
    args = parser.parse_args(argv)
    args.workload = args.workload or [w["name"] for w in SPEC["workloads"]]
    return args


def export(rev, tree):
    """``git archive`` of ``rev``, unpacked into the new directory tree."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    tree.mkdir()
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def export_working_tree(tree, repo=ROOT):
    """The working tree of ``repo`` as it is now, copied into the new
    directory tree: its tracked files and its untracked files that are
    not ignored, but not the tracked files it has deleted."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=repo,
        capture_output=True, check=True).stdout.decode()
    tree.mkdir()
    for name in filter(None, names.split("\0")):
        source = Path(repo, name)
        if source.is_file():
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, tree / name)
    return tree


def main(argv=None):
    args = parse_args(argv)
    bench_files = [*SPEC["paths"], "BENCHMARK.json"]
    if not args.aa and subprocess.run(
            ["git", "diff", "--quiet", args.parent, "--", *bench_files],
            cwd=ROOT).returncode:
        sys.exit(f"the benchmark code ({', '.join(bench_files)}) differs "
                 f"between {args.parent} and the working tree")
    rev = subprocess.run(["git", "rev-parse", "--short", args.parent],
                         cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.strip()
    command = " ".join(SPEC["command"])
    record = {
        "what": args.what, "parent_commit": rev, "aa": args.aa,
        "command": f"{command} --workload W --seed S "
                   f"--seconds {SPEC['run_seconds']} --trace 0",
        "trace_command": f"{command} --workload W --seed {TRACE_SEED} "
                         f"--seconds {TRACE_SECONDS} --trace 1",
        "method": f"{len(args.seeds)} pairs per workload (seeds "
                  f"{args.seeds[0]}-{args.seeds[-1]}), parent and change "
                  "alternating which runs first; "
                  + ("an A/A run: both sides git archive exports of the "
                     "parent, in sibling directories" if args.aa else
                     "the parent exported with git archive and the change "
                     "copied from the working tree (tracked and unignored "
                     "files), in sibling directories")
                  + ", each side run from its own source tree on the same "
                  "host",
        "env": None, "workloads": {}}
    out = ROOT / f"BENCH_{args.tag}.json"

    def save():
        out.write_text(json.dumps(record, indent=1) + "\n")

    with tempfile.TemporaryDirectory(prefix="benchpair-") as tmp:
        change = Path(tmp) / "change"
        trees = {"parent": export(rev, Path(tmp) / "parent"),
                 "change": export(rev, change) if args.aa
                 else export_working_tree(change)}
        for workload in args.workload:
            entry = record["workloads"][workload] = {
                "why": None, "input": None, "end_to_end": {}, "failed": {},
                "per_layer_traced": {}, "runs": []}
            for i, seed in enumerate(args.seeds):
                order = ("change", "parent") if i % 2 else ("parent", "change")
                for side in order:
                    info, result = bench(trees[side], workload, seed,
                                         SPEC["run_seconds"], 0)
                    record["env"] = record["env"] or info["env"]
                    entry["why"], entry["input"] = info["why"], info["input"]
                    entry["runs"].append({
                        "side": side, "seed": seed,
                        "correct": result["correct"],
                        "attempted": result["attempted"],
                        "failed": result["failed"],
                        "metrics": {k: m["value"] for k, m
                                    in result["metrics"].items()},
                        "repetitions": info["repetitions"],
                        "setup_samples": info["setup_samples"]})
                    units = {k: m["unit"] for k, m
                             in result["metrics"].items()}
                    entry["end_to_end"] = summary(entry["runs"], units)
                    entry["failed"] = {
                        s: sum(r["failed"] for r in entry["runs"]
                               if r["side"] == s) for s in trees}
                    save()
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(entry['runs'][-1]['metrics'])}",
                          flush=True)
            for side in ("parent", "change"):
                _, result = bench(trees[side], workload, TRACE_SEED,
                                  TRACE_SECONDS, 1)
                entry["per_layer_traced"][side] = {
                    k: m["value"] for k, m in result["metrics"].items()}
                save()
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
