#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of the checkout:

    python3 perfbench/selftest.py

Checks, at the workloads' smallest size:
  * every workload prints, as its last line, the result object with every
    end-to-end metric (untraced) or per-layer metric (traced) named in
    BENCHMARK.json, each with its unit, plus attempted and failed counts;
  * a run forced to miss its simulated deadline reports failed operations
    (correct=false, non-zero exit), not a faster run;
  * bad arguments exit non-zero and print usage;
  * the digest of simulated results repeats across runs and host-thread
    counts;
  * a run leaves `git status` unchanged (when the checkout is a git work
    tree).
Exits 0 when everything holds; prints each failed check otherwise.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
SMALL = ["--seed", "1", "--seconds", "1", "--scale", "0.05"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(args):
    p = subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    return p.returncode, p.stdout, p.stderr


def result(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def digest(stdout):
    for line in stdout.splitlines():
        if line.startswith("digest "):
            return line.split()[2]
    return None


def git_status():
    p = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                       capture_output=True, text=True)
    return p.stdout if p.returncode == 0 else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    status_before = git_status()

    for w in [x["name"] for x in bench["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out, err = run(["--workload", w, "--trace", trace] + SMALL)
            r = result(out)
            what = f"{w} --trace {trace}"
            check(r is not None and set(r) ==
                  {"correct", "attempted", "failed", "metrics"},
                  f"{what}: last line is the result object (exit {code})")
            if r is None:
                continue
            check(isinstance(r["attempted"], int) and r["attempted"] >= 1 and
                  isinstance(r["failed"], int),
                  f"{what}: attempted={r['attempted']} failed={r['failed']}")
            missing = [m["name"] for m in bench[key]
                       if r["metrics"].get(m["name"], {}).get("unit") !=
                       m["unit"]]
            check(not missing, f"{what}: every {key} metric with its unit"
                  + (f" (missing {missing})" if missing else ""))
            extra = set(r["metrics"]) - {m["name"] for m in bench[key]}
            check(not extra, f"{what}: no unnamed metric"
                  + (f" (extra {sorted(extra)})" if extra else ""))

    for w in ("blocking", "spin"):
        code, out, _ = run(["--workload", w, "--trace", "0",
                            "--deadline-ms", "1"] + SMALL)
        r = result(out)
        check(r is not None and code != 0 and not r["correct"] and
              r["failed"] == r["attempted"] > 0,
              f"{w}: a run that misses its deadline is reported as failed "
              f"operations (exit {code}, "
              f"{r and r['failed']}/{r and r['attempted']} failed)")

    for bad in (["--workload", "nope"],
                ["--workload", "spin", "--seconds", "0"],
                ["--workload", "spin", "--trace", "2"],
                ["--workload", "spin", "--bogus", "1"], ["--seed", "1"],
                ["--workload", "spin", "--seed", "-3"], ["--workload"]):
        code, out, err = run(bad)
        check(code != 0 and "usage:" in err and result(out) is None,
              f"bad arguments {bad} exit non-zero with usage (exit {code})")

    jobs = str(min(4, os.cpu_count() or 1))
    for w in [x["name"] for x in bench["workloads"]]:
        ds = [digest(run(["--workload", w, "--trace", "0"] + extra + SMALL)[1])
              for extra in ([], [], ["--jobs", jobs])]
        check(ds[0] is not None and ds.count(ds[0]) == 3,
              f"{w}: digest repeats across runs and --jobs 1/{jobs} {ds}")

    if status_before is not None:
        check(git_status() == status_before, "git status unchanged by runs")

    print(f"{len(failures)} check(s) failed" if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
