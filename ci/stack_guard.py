#!/usr/bin/env python3
"""The one reader of `stack` output (schema: stackbench/README.md).

  ci/stack_guard.py               traced smoke of every workload, then the checks
  ci/stack_guard.py a.json ...    the checks alone, on `--out` files
  ci/stack_guard.py --history PR  one `--seconds 24 --trace 0` run per workload,
                                  appended as one line to BENCH_history.jsonl

Every check is a ratio of per-layer metrics of ONE run, so machine speed
cancels and nothing is compared against a committed number. Run from the
root of the checkout to measure; BENCH_history.jsonl is the one beside this
script, so a parent checkout can be measured into this tree's file.
"""
import json, pathlib, subprocess, sys

BENCH = json.load(open("BENCHMARK.json"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED, SECONDS = 18, BENCH["run_seconds"]
OUT = pathlib.Path("target/stack-smoke")
HISTORY = pathlib.Path(__file__).resolve().parent.parent / "BENCH_history.jsonl"


def stack(workload, *args):
    """Run one workload; its `--out` file (written even when the run fails)."""
    OUT.mkdir(parents=True, exist_ok=True)
    out = OUT / f"{workload}.json"
    out.unlink(missing_ok=True)
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(SEED), "--out", str(out), *args]
    code = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
    if not out.exists():
        sys.exit(f"stack --workload {workload}: exit {code} and no result")
    return out


def violations(result):
    """Each guarded property of one traced result that does not hold."""
    m = {name: metric["value"] for name, metric in result["metrics"].items()}
    miss = m["serve.engine.miss_us"]  # un-instrumented in-process cold recommend
    hit = m["serve.engine.hit_ns"]  # un-instrumented in-process cached recommend
    ratios = [
        ("sharded / unsharded cold p50", m["serve.shard.miss_us"] / miss, 2.0),
        ("instrumented / bare cold p50", (miss + m["obs.miss_overhead_us"]) / miss, 1.15),
        ("instrumented / bare hit", (hit + m["obs.hit_overhead_ns"]) / hit, 3.0),
    ]
    if result["workload"] in ("http_hot", "router_mixed"):  # the two that serve over HTTP
        ratios.append(("loopback / in-process", (miss + m["http.server.self_us"]) / miss, 10.0))
    par, seq = m["http.router.batch_par_users_per_s"], m["http.router.batch_seq_users_per_s"]
    print(f"{result['workload']}: " + ", ".join(f"{what} {r:.3f}x (<= {cap}x)" for what, r, cap in ratios)
          + f"; router batch parallel / sequential {par / seq:.2f}x (not asserted)")
    bad = [f"{what} is {r:.3f}x, over {cap}x" for what, r, cap in ratios if not r <= cap]
    if not (result["correct"] is True and result["failed"] == 0):
        bad.append(f"correct={result['correct']} failed={result['failed']}")
    return [f"{result['workload']}: {b}" for b in bad]


def history(pr):
    git = lambda *a: subprocess.run(["git", *a], capture_output=True, text=True, check=True).stdout.strip()
    line = {"pr": int(pr), "commit": git("rev-parse", "--short", "HEAD") + ("+" if git("status", "--porcelain") else ""),
            "seed": SEED, "seconds": SECONDS, "workloads": {}}
    for w in WORKLOADS:
        result = json.load(open(stack(w, "--seconds", str(SECONDS), "--trace", "0")))
        if not result["correct"]:
            sys.exit(f"{w}: incorrect run, nothing recorded")
        line["workloads"][w] = {e["name"]: result["metrics"][e["name"]]["value"] for e in BENCH["end_to_end"]}
    with open(HISTORY, "a") as f:
        f.write(json.dumps(line) + "\n")
    print(f"appended PR {pr} ({line['commit']}) to {HISTORY}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--history"]:
        sys.exit(history(sys.argv[2]))
    files = sys.argv[1:] or [stack(w, "--smoke", "--trace", "1") for w in WORKLOADS]
    bad = [v for f in files for v in violations(json.load(open(f)))]
    sys.exit("\n".join(["stack guard FAILED"] + bad) if bad else None)
