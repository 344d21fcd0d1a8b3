#!/usr/bin/env python3
# Copyright (c) 2026 The siri Authors. MIT license.
"""Self-tests of the end-to-end benchmark. Run from the repository root:

  python3 perfbench/selftest.py

For every workload, runs a tiny-size pass untraced and traced and checks:
the result line's shape; that the correctness check passed with no failed
op; that every metric name matches [A-Za-z0-9_.-]+ and is emitted with the
unit BENCHMARK.json declares; that every printed metric, percentiles
included, carries its sample count; and that each workload prints the
end-to-end metric of every operation it runs. Last, checks that the
benchmark fails cleanly (non-zero exit, no result line) in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+) n=(\d+)$")
# Printed (not all gated) per workload: the ops each one runs.
OPS = {
    "eth-ledger": ["read", "commit"],
    "wiki-collab": ["read", "commit", "diff", "merge"],
    "ycsb-cold-read": ["read"],
}
ALWAYS = ["setup_s", "store_bytes_per_user_byte", "dedup_ratio",
          "rss_peak_mb", "failed_op_ratio"]
UNITS = {"read": "us", "commit": "ms", "diff": "ms", "merge": "ms"}


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)


def check_pass(bench, workload, trace, out):
    where = "%s --trace %d" % (workload, trace)
    assert out.returncode == 0, "%s exited %d:\n%s" % (
        where, out.returncode, out.stderr[-3000:])
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, "%s: %d failed ops" % (where, result["failed"])

    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    assert set(got) == set(want), "%s: metrics %s != declared %s" % (
        where, sorted(got), sorted(want))
    for name, m in got.items():
        assert NAME.match(name), "%s: bad metric name %r" % (where, name)
        assert set(m) == {"value", "unit"}, (where, name)
        assert m["unit"] == want[name], "%s: %s unit %s != %s" % (
            where, name, m["unit"], want[name])
        assert isinstance(m["value"], (int, float)) and math.isfinite(
            m["value"]), (where, name)

    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            match = METRIC_LINE.match(line)
            assert match, "%s: metric line without its sample count: %r" % (
                where, line)
            printed[match.group(1)] = (float(match.group(2)), match.group(3),
                                       int(match.group(4)))
    for name in got:
        assert name in printed, "%s: %s not printed" % (where, name)
        assert printed[name][1] == want[name], (where, name)
    if not trace:
        names = list(ALWAYS)
        for op in OPS[workload]:
            names += ["%s_p50_%s" % (op, UNITS[op]), "%s_p99_%s" % (op, UNITS[op])]
            if op in ("read", "commit"):
                names.append(op + "s_per_s")
        for name in names:
            assert name in printed, "%s: %s not printed" % (where, name)
            if "_p50_" in name or "_p99_" in name:
                assert printed[name][2] >= 1, "%s: %s has no samples" % (
                    where, name)
        assert printed["failed_op_ratio"][0] == 0, where
    else:
        for layer in ("client", "index", "net", "io"):
            assert layer + ".self_ms_per_op" in printed, (where, layer)
        assert "trace.overhead_pct" in printed, where
    print("ok  %s (%d ops)" % (where, result["attempted"]))


def check_bare_directory(root):
    """Without the repository's sources the benchmark must fail cleanly."""
    bare = os.path.join(root, ".bench_run", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(root, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(bare, "wiki-collab", 0)
    shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0, "bare directory: exit 0"
    assert '"correct"' not in out.stdout, "bare directory printed a result"
    print("ok  bare directory fails with exit %d" % out.returncode)


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in OPS:
        for trace in (0, 1):
            check_pass(bench, workload, trace, run(root, workload, trace))
    check_bare_directory(root)
    print("all benchmark self-tests passed")


if __name__ == "__main__":
    main()
