#!/usr/bin/env python3
"""Run the benchmark ten times per workload, each with another seed, and
report every end-to-end metric's spread — the distance between the first and
third quartile of its ten values as a share of their median — against the
bound BENCHMARK.json fixes for it.

    python3 benchmark/spread.py OUT.json [FIRST_SEED]     # from the module root

The runs, medians and spreads are written to OUT.json; benchmark/baseline/
holds the two sets recorded when the benchmark was defined. A spread above its
bound (setup_s excepted) makes the exit code 1.
"""
import json
import statistics
import subprocess
import sys

RUNS = 10


def main():
    out_path = sys.argv[1]
    first_seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"first_seed": first_seed, "run_seconds": spec["run_seconds"], "workloads": {}}
    bad = False
    for w in spec["workloads"]:
        runs = []
        for seed in range(first_seed, first_seed + RUNS):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
            lines = p.stdout.strip().splitlines()
            for line in lines:
                if line.startswith("_meta:"):
                    report.setdefault("_meta", line)
            result = json.loads(lines[-1])
            assert result["correct"] and result["failed"] == 0, result
            runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{w['name']} seed {seed} done", file=sys.stderr)
        rows = {}
        print(f"\n{w['name']}")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "spread": spread, "bound": bound}
            flag = ""
            if name != "setup_s" and spread > bound:
                flag, bad = "  OVER BOUND", True
            elif name != "setup_s" and spread > bound / 3:
                flag = "  over a third of the bound"
            print(f"  {name:18s} median {med:12.6g}  spread {spread:8.4f}  bound {bound:6.3f}{flag}")
        report["workloads"][w["name"]] = {"metrics": rows, "runs": runs}
    json.dump(report, open(out_path, "w"), indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
