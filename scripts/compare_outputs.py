"""Compare what two source trees of ringadmm write for the benchmark's ops.

    python scripts/compare_outputs.py OLD_TREE NEW_TREE
    python scripts/compare_outputs.py OLD_TREE NEW_TREE --sizes tiny --parts 0 --seeds 23

Each tree writes the inputs of its own `perfbench/workloads.setup_part` for
every workload, and every size, seed and set-up part asked for, then runs each op
through its own `ringadmm.cli.main`, as the benchmark does.  Each tree runs
in one subprocess, in a temporary directory of its own.  Compared are every
op's exit code, standard output and standard error, and every file written,
inputs included, with the temporary directory's path replaced.  The
defaults cover 3 workloads x 2 sizes x 2 seeds x 3 parts: 1,152 ops.

Prints the first differences and, per op label (`run:logistic`, `sweep`,
...), how many of its ops differ in any of their files and, for each CSV
file name that differs, the largest absolute difference between two numeric
fields in the same place (`non-numeric` if the files do not line up field by
field, or differ in a field that is not a number); exits 1 if anything
differs, else 0; exits 2 when a tree's ops cannot be run.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import itertools
import math
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("runs", "attacks", "sweep")
SHOWN = 10  # differences printed
PLACEHOLDER = b"<work>"


def collect(tree: str, work: str, sizes, seeds, parts) -> None:
    """Write the inputs and run the ops of every workload of one tree under `work`.  Op i of a
    part writes to out/<part>-<i>, and its exit code, streams and label go to
    streams/<part>-<i>/."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import workloads as bench  # the tree's own perfbench/workloads.py
    from ringadmm.cli import main

    for name, size, seed, part in itertools.product(WORKLOADS, sizes, seeds, parts):
        base = os.path.join(work, f"{name}-{size}-{seed}")
        for i, op in enumerate(bench.setup_part(name, seed, part, base, size)):
            key = f"{part}-{i}"
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(op.argv + ["--out", os.path.join(base, "out", key)])
                except SystemExit as exc:  # argparse rejects the argv
                    rc = exc.code if isinstance(exc.code, int) else 1
            streams = os.path.join(base, "streams", key)
            os.makedirs(streams)
            for fname, text in (("exit_code", f"{rc}\n"), ("stdout", out.getvalue()),
                                ("stderr", err.getvalue()), ("label", f"{op.label}\n")):
                with open(os.path.join(streams, fname), "w") as fh:
                    fh.write(text)


def files_under(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs}


def content(root: str, rel: str) -> bytes:
    with open(os.path.join(root, rel), "rb") as fh:
        return fh.read().replace(os.fsencode(root), PLACEHOLDER)


def first_difference(old: bytes, new: bytes) -> str:
    for n, (a, b) in enumerate(zip(old.splitlines(), new.splitlines()), start=1):
        if a != b:
            return f"line {n}: {a[:120]!r} != {b[:120]!r}"
    return f"{len(old.splitlines())} lines != {len(new.splitlines())} lines"


def largest_difference(old: bytes, new: bytes) -> float | None:
    """The largest |new - old| over the fields of two CSV texts that differ,
    if the texts have the same number of lines and fields and every differing
    pair of fields is numeric (inf where one is NaN), else None."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return None
    worst = 0.0
    for a, b in zip(old_lines, new_lines):
        if a == b:
            continue
        old_fields, new_fields = a.split(b","), b.split(b",")
        if len(old_fields) != len(new_fields):
            return None
        for x, y in zip(old_fields, new_fields):
            if x != y:
                try:
                    diff = abs(float(y) - float(x))
                except ValueError:
                    return None
                worst = max(worst, math.inf if math.isnan(diff) else diff)
    return worst


def op_of(rel: str) -> tuple[str, str] | None:
    """The op (work directory, <part>-<i>) that wrote the file `rel`, or None for an input."""
    parts = rel.split(os.sep)
    return (parts[0], parts[2]) if len(parts) > 3 and parts[1] in ("out", "streams") else None


def compare(old_work: str, new_work: str) -> tuple[list[str], int, int, dict, dict]:
    """The differences between the two work directories, the number of
    files compared, the number of ops run, per op label how many ops differ
    in any file and how many there are, and per op label and CSV file name
    the largest numeric difference of the files that differ (None if one
    pair is not numeric; see largest_difference)."""
    old_files, new_files = files_under(old_work), files_under(new_work)
    only_old, only_new = sorted(old_files - new_files), sorted(new_files - old_files)
    diffs = [f"only in OLD: {rel}" for rel in only_old]
    diffs += [f"only in NEW: {rel}" for rel in only_new]
    changed = {op_of(rel) for rel in only_old + only_new}  # the ops with a differing file
    shared = sorted(old_files & new_files)
    numeric: dict[tuple, dict[str, float | None]] = {}  # op -> CSV file name -> difference
    for rel in shared:
        if filecmp.cmp(os.path.join(old_work, rel), os.path.join(new_work, rel), shallow=False):
            continue
        old, new = content(old_work, rel), content(new_work, rel)
        if old != new:
            changed.add(op_of(rel))
            diffs.append(f"differs: {rel}: {first_difference(old, new)}")
            if rel.endswith(".csv"):
                numeric.setdefault(op_of(rel), {})[os.path.basename(rel)] = \
                    largest_difference(old, new)
    by_label: dict[str, list[int]] = {}
    deltas: dict[str, dict[str, float | None]] = {}
    for rel in sorted(old_files | new_files):
        if os.path.basename(rel) == "label":
            work = new_work if rel in new_files else old_work
            with open(os.path.join(work, rel)) as fh:
                label = fh.read().strip()
            counts = by_label.setdefault(label, [0, 0])
            counts[0] += op_of(rel) in changed
            counts[1] += 1
            for name, diff in numeric.get(op_of(rel), {}).items():
                worst = deltas.setdefault(label, {})
                known = worst.get(name, 0.0)
                worst[name] = None if None in (diff, known) else max(diff, known)
    ops = sum(os.path.basename(rel) == "exit_code" for rel in shared)
    return diffs, len(shared), ops, by_label, deltas


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--sizes", nargs="+", choices=("tiny", "full"), default=["tiny", "full"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[23, 41])
    parser.add_argument("--parts", nargs="+", type=int, choices=(0, 1, 2), default=[0, 1, 2])
    # in the child: run OLD_TREE's ops under this work directory, compare nothing
    parser.add_argument("--collect", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    selection = (args.sizes, args.seeds, args.parts)
    if args.collect:
        collect(args.old_tree, args.collect, *selection)
        return 0

    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        works, children = [], []
        for name, tree in (("old", args.old_tree), ("new", args.new_tree)):
            tree, work = os.path.abspath(tree), os.path.join(tmp, name)
            os.makedirs(work)
            works.append(work)
            children.append(subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), tree, tree, "--collect", work,
                 "--sizes", *args.sizes, "--seeds", *map(str, args.seeds),
                 "--parts", *map(str, args.parts)],
                env=env, cwd=work, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True))
        failed = False
        for tree, child in zip((args.old_tree, args.new_tree), children):
            log = child.communicate()[0]
            if child.returncode != 0:
                print(f"{tree}: the ops could not be run (exit {child.returncode}):\n{log}",
                      file=sys.stderr)
                failed = True
        if failed:
            return 2
        diffs, files, ops, by_label, deltas = compare(*works)
    for line in diffs[:SHOWN]:
        print(line)
    if len(diffs) > SHOWN:
        print(f"... and {len(diffs) - SHOWN} more")
    for label, (changed, total) in sorted(by_label.items()):
        worst = ", ".join(f"{name} {'non-numeric' if d is None else f'{d:.1e}'}"
                          for name, d in sorted(deltas.get(label, {}).items()))
        print(f"{label}: {changed} of {total} ops differ"
              + (f"; max abs diff {worst}" if worst else ""))
    print(f"{ops} ops, {files} files compared: "
          + (f"{len(diffs)} differences" if diffs else "no difference"))
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
