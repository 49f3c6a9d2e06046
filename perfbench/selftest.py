#!/usr/bin/env python3
"""Self-tests for the Airfoil benchmark, at the tiny workload size.

    python3 perfbench/selftest.py

Checks that:
  1. every metric BENCHMARK.json names is emitted, with its unit, by the
     untraced run (end-to-end) and the traced run (per-layer), and no other;
  2. a deliberately perturbed q trips the oracle: non-zero exit,
     "correct": false, failed > 0 (both oracle tiers);
  3. two seeds change the inputs (the wall bump) but not the metric names;
  4. in the traced run, every per-loop time falls inside the driver spans
     that contain it.
Exits 0 when all pass.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACES = os.path.join(ROOT, ".bench_build", "perfbench", "traces")
LOOPS = ("adt_calc", "res_calc", "bres_calc", "update", "save_soln",
         "update_save_soln")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(seed, trace, perturb=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "tiny",
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace)]
    if perturb:
        cmd += ["--perturb", perturb]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, p.stdout, result


def units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def mesh_line(out):
    return next(l for l in out.splitlines() if l.startswith("mesh:"))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    code, out1, r1 = run(1, 0)
    check(code == 0 and r1 is not None and r1["correct"] and r1["failed"] == 0,
          "untraced run passes its oracle checks")
    check(r1 is not None and units(r1) == e2e,
          "untraced run emits exactly the end-to-end metrics, with units")

    code, out_t, rt = run(1, 1)
    check(code == 0 and rt is not None and rt["correct"],
          "traced run passes its oracle checks")
    check(rt is not None and units(rt) == per_layer,
          "traced run emits exactly the per-layer metrics, with units")

    for arm in ("seq_fused", "hpx_dataflow", "hpx_shard"):
        code, _, rp = run(1, 0, perturb=arm)
        check(code != 0 and rp is not None and not rp["correct"] and
              rp["failed"] > 0, f"a perturbed {arm} q trips the oracle")

    code, out2, r2 = run(2, 0)
    check(code == 0 and mesh_line(out1) != mesh_line(out2),
          "seeds 1 and 2 generate different meshes")
    check(r2 is not None and r1 is not None and
          set(r2["metrics"]) == set(r1["metrics"]),
          "seeds 1 and 2 emit the same metric names")

    # 4. per-loop times inside the driver spans of the profiled samples.
    k = int(re.search(r"samples x (\d+) iters", out_t).group(1))
    with open(os.path.join(TRACES, "tiny-1.json")) as f:
        spans = json.load(f)["traceEvents"]
    arms = {}
    for s in spans:
        if s["name"].startswith("profiled-sample/"):
            arm = s["name"].split("/", 1)[1]
            total, count = arms.get(arm, (0.0, 0))
            arms[arm] = (total + s["dur"] / 1e3, count + 1)
    check(len(arms) == 7, "the trace holds profiled samples of all 7 drivers")
    inside = True
    for arm, (total_ms, count) in arms.items():
        span_ms_per_iter = total_ms / (count * k)
        for loop in LOOPS:
            v = rt["metrics"][f"loop.{loop}.ms.{arm}"]["value"]
            if not (0.0 < v <= span_ms_per_iter * (1 + 1e-9)):
                inside = False
                print(f"     loop.{loop}.ms.{arm} = {v:.6f} ms/iter vs "
                      f"driver span {span_ms_per_iter:.6f} ms/iter")
    check(inside, "every per-loop time falls inside its driver's spans")

    print("selftest: " + ("all passed" if not failures else
                          f"{len(failures)} failed"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
