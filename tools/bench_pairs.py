"""Paired benchmark runs of a parent revision and a changed one, written as
one ``BENCH_<n>.json`` trajectory file.

Usage::

    python3 tools/bench_pairs.py --parent REV --change REV --workdir DIR --pairs 10 --out BENCH_<n>.json

Each REV is anything ``git archive`` takes: a commit, or for staged changes
not yet committed the tree that ``git write-tree`` prints. Both are
extracted the same way, with ``git archive``, into ``DIR/parent`` and
``DIR/change``, which must not exist yet, so no difference in how the two
checkouts were made can show up as a difference in the program. The same
REV twice gives an A/A run, the spread of the harness alone. Every pair
runs ``perfbench/run.py --workload all --seed 1 --seconds 4 --trace 0`` once
in each tree, the parent first in odd pairs and the change first in even
ones, and reads each tree's per-workload records from its
``.perfbench_out/results/`` as soon as its run ends, before the next run of
that tree overwrites them. The file holds, per workload and end-to-end
metric of ``BENCHMARK.json``, both sides' per-pair values, medians and
quartiles and the number of pairs each side won; each side's revision, its
commit SHA (null for a bare tree), the git SHA of its ``src/`` tree, which
names the measured program code exactly, and its ``src/`` lines; and the
run metadata the records share. Run it on a quiet machine: both trees share
the CPU.

Every run gets ``PYTHONDONTWRITEBYTECODE=1``, so no run leaves bytecode
behind for a later one: both trees import ``src/`` by compiling it, in every
pair, whatever the calling shell sets. How ``src/`` is imported moves
``peak_rss_mb`` by more than some changes do: the same code's
``headline_run`` read 42.30–42.50 MB from valid ``__pycache__`` files and
42.66–42.81 MB compiling at import.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
RUN_ARGS = ("--workload", "all", "--seed", "1", "--seconds", "4", "--trace", "0")
SHARED_META = ("python", "numpy", "blas", "blas_threads", "nproc")


def git(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=check)


def extract(rev: str, tree: Path) -> dict:
    """Write ``rev``'s files into the new directory ``tree``; its identity."""
    tree.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev).stdout)) as archive:
        archive.extractall(tree, filter="data")
    commit = git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}", check=False)
    return {
        "rev": rev,
        "git_sha": commit.stdout.decode().strip() if commit.returncode == 0 else None,
        "src_tree_sha": git("rev-parse", "--verify", f"{rev}:src").stdout.decode().strip(),
    }


def run_once(tree: Path, workloads: list[str]) -> tuple[dict, dict]:
    """One benchmark run in ``tree``: its verdict line and its records."""
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), *RUN_ARGS],
        cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), stdout=subprocess.PIPE, text=True, check=True,
    )
    verdict = json.loads(done.stdout.strip().splitlines()[-1])
    results = tree / ".perfbench_out" / "results"
    records = {w: json.loads((results / f"{w}-full-seed1-trace0.json").read_text()) for w in workloads}
    return verdict, records


def spread(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median(values), "q1": q1, "q3": q3, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    trees = {side: args.workdir.resolve() / side for side in ("parent", "change")}
    sides = {side: extract(getattr(args, side), tree) for side, tree in trees.items()}
    runs: dict[str, list[tuple[dict, dict]]] = {side: [] for side in trees}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], workloads))
            print(f"pair {i + 1}/{args.pairs} {side} done", file=sys.stderr, flush=True)

    for side, ident in sides.items():
        ident["src_lines"] = next(iter(runs[side][0][1].values()))["meta"]["src_lines"]
        ident["correct"] = all(verdict["correct"] for verdict, _ in runs[side])
        ident["failed"] = sum(verdict["failed"] for verdict, _ in runs[side])
    metas = [record["meta"] for side in runs for _, records in runs[side] for record in records.values()]
    meta = {key: metas[0][key] for key in SHARED_META}
    if any(m[key] != meta[key] for m in metas for key in SHARED_META):
        raise SystemExit("the runs do not share their interpreter, numpy, BLAS and CPU count")

    table: dict[str, dict] = {}
    for w in workloads:
        table[w] = {}
        for metric in bench["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [records[w]["metrics"][name]["value"] for _, records in runs[side]] for side in runs}
            change_better = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
            parent_better = sum((p < c) if lower else (p > c) for p, c in zip(values["parent"], values["change"]))
            table[w][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": spread(values["parent"]),
                "change": spread(values["change"]),
                "change_better_pairs": change_better,
                "parent_better_pairs": parent_better,
            }

    out = {
        "command": "python3 perfbench/run.py " + " ".join(RUN_ARGS),
        "pairs": args.pairs,
        "order": "alternating: the parent runs first in odd pairs, the change in even ones",
        "parent": sides["parent"],
        "change": sides["change"],
        "meta": meta,
        "workloads": table,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
