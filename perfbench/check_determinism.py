#!/usr/bin/env python3
"""Check that the benchmark's deterministic results repeat exactly.

Run from the root of a checkout:

    python3 perfbench/check_determinism.py [--seed N] [--other-seed M]

Runs every workload twice on one seed and asserts that the metrics that
depend only on the seed (minor words per frame on udp_ext, farm_http and
the par_rss oracle leg; simulated latency and goodput on udp_ext and
farm_http) are bit-identical, and that farm_http's simulated results
change on a second seed.  Exits non-zero on any mismatch.
"""

import argparse
import json
import subprocess
import sys

DETERMINISTIC = {
    "udp_ext": ["minor_words_per_frame", "sim_latency_p99_us", "sim_goodput_mbps"],
    "farm_http": ["minor_words_per_frame", "sim_latency_p99_us", "sim_goodput_mbps"],
    "par_rss": ["minor_words_per_frame"],
}
SEED_SENSITIVE = {"farm_http": ["sim_latency_p99_us", "sim_goodput_mbps"]}


def run(workload, seed):
    r = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = r.stdout.strip().splitlines()
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    latency = json.loads(lines[0])["latency"]
    metrics["sim_latency_p50_us"] = latency["p50_sim_us"]
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    args = ap.parse_args()
    ok = True
    for workload, names in DETERMINISTIC.items():
        names = names + (["sim_latency_p50_us"] if "sim_latency_p99_us" in names else [])
        a, b = run(workload, args.seed), run(workload, args.seed)
        for n in names:
            same = a[n] == b[n]
            ok &= same
            print("%-10s seed %d %-22s %r %r %s" % (workload, args.seed, n, a[n], b[n],
                                                    "identical" if same else "DIFFER"))
        for n in SEED_SENSITIVE.get(workload, []):
            c = run(workload, args.other_seed)[n]
            moved = c != a[n]
            ok &= moved
            print("%-10s seed %d %-22s %r (seed %d: %r) %s" % (
                workload, args.other_seed, n, c, args.seed, a[n], "changed" if moved else "UNCHANGED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
