"""Compare a traced run with the hand-measured profile in ROADMAP.md.

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 1 --trace 1
    python3 perfbench/run.py --workload lie --seed 1 --seconds 1 --trace 1
    python3 perfbench/crosscheck.py --seed 1

Reads .perfbench/spans-<workload>-<seed>.tsv and the matching jobs file.
cohomology: inside h2_bar for Gamma of order 8, the share of time in
qlinalg.mat_inv (with the qlinalg.solve it calls) plus qlinalg.mat_mul,
against smith_normal_form and h2_bar's own code.
lie: in E7/E8 jobs, the share of job time spent validating root data
(RootDatum.__post_init__ and BasedRootDatum._check_positivity).
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".perfbench"
ORDER8 = ("C8", "C4xC2", "C2xC4", "C2xC2xC2")
VALIDATION = ("root_datum.RootDatum.post_init", "root_datum.BasedRootDatum.check_positivity")


def load(workload, seed):
    spans = []
    with open(OUT / f"spans-{workload}-{seed}.tsv") as fh:
        next(fh)
        for line in fh:
            i, name, start, end, parent, job = line.rstrip("\n").split("\t")
            spans.append((name, float(start), float(end), int(parent), int(job)))
    labels = {}
    with open(OUT / f"jobs-{workload}-{seed}.tsv") as fh:
        next(fh)
        for line in fh:
            job, label, _seconds = line.rstrip("\n").split("\t")
            labels[int(job)] = label
    return spans, labels


def self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, start, end, _p, _j) in enumerate(spans)]


def ancestor(spans, i, name):
    """Index of the nearest enclosing span with this name, or -1."""
    p = spans[i][3]
    while p >= 0 and spans[p][0] != name:
        p = spans[p][3]
    return p


def cohomology(seed):
    spans, labels = load("cohomology", seed)
    own = self_times(spans)
    by_name = defaultdict(float)
    for i, (name, _s, _e, _p, job) in enumerate(spans):
        label = labels.get(job, "")
        if not label.startswith("h2 ") or label.split()[1] not in ORDER8:
            continue
        if ancestor(spans, i, "cohomology.h2_bar") < 0 and name != "cohomology.h2_bar":
            continue
        if name == "qlinalg.solve" and ancestor(spans, i, "qlinalg.mat_inv") >= 0:
            name = "qlinalg.mat_inv"
        by_name[name] += own[i]
    total = sum(by_name.values())
    print(f"cohomology seed {seed}: h2_bar on order-8 Gamma, {total:.2f} s")
    for name, t in sorted(by_name.items(), key=lambda kv: -kv[1]):
        print(f"  {name:40s} {t:8.3f} s  {t / total:6.1%}")
    change = by_name["qlinalg.mat_inv"] + by_name["qlinalg.mat_mul"]
    rest = max(t for n, t in by_name.items() if n not in ("qlinalg.mat_inv", "qlinalg.mat_mul"))
    print(f"  mat_inv + mat_mul = {change / total:.1%}; largest share: {change > rest}")
    return change > rest


def lie(seed):
    spans, labels = load("lie", seed)
    own = self_times(spans)
    job_time = defaultdict(float)
    validation = defaultdict(float)
    for i, (name, start, end, parent, job) in enumerate(spans):
        label = labels.get(job, "")
        if " E7 " not in f" {label} " and " E8 " not in f" {label} ":
            continue
        if name == "cli.run":
            job_time[label] += end - start
        if name in VALIDATION:
            validation[label] += own[i]
    if not job_time:
        print(f"lie seed {seed}: no E7/E8 jobs in the traced round")
        return
    print(f"lie seed {seed}: root-datum validation share of E7/E8 job time")
    for label in sorted(job_time):
        share = validation[label] / job_time[label]
        print(f"  {label:45s} {job_time[label]:7.3f} s  validation {share:6.1%}")
    total = sum(validation.values()) / sum(job_time.values())
    print(f"  all E7/E8 jobs: validation {total:.1%}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ok = cohomology(args.seed)
    lie(args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
