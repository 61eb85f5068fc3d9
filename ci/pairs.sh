#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload.
#
#   ci/pairs.sh <parent-dir> <change-dir> <workload> <n> [seed] [untraced|traced|replay]
#
# Both directories are checkouts whose benchmark is already built
#   cargo build --release --offline --manifest-path <dir>/benchmark/Cargo.toml
# Runs n pairs of `benchmark rep --mode <mode>` (default untraced),
# alternating which side goes first. For untraced runs it prints for each of
# BENCHMARK.json's five end-to-end metrics the per-pair ratio change/parent,
# wins and ties, and both sides' median and quartiles (choosing-metrics §8:
# claim a gain only with ≥ 9/10 of the pairs won and medians further apart
# than the parent's quartiles), then both sides' busy cores
# (keys_per_s × cpu_ns_per_key × 1e-9). For traced and replay runs — where a claim's
# attribution comes from — it prints both sides' median and quartiles of
# every value the rep reports, one row each.
# Exact values (counts, loss bits) that differ between the sides are listed.
set -euo pipefail

if [ "$#" -lt 4 ] || [ "$#" -gt 6 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 n=$4 seed=${5:-7} mode=${6:-untraced}
case $mode in
untraced | traced | replay) ;;
*)
    echo "pairs.sh: mode must be untraced, traced or replay, not '$mode'" >&2
    exit 2
    ;;
esac

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

rep() { # <dir> <side>
    local bin=$1/benchmark/target/release/benchmark
    [ -x "$bin" ] || { echo "pairs.sh: $bin is not built" >&2; exit 2; }
    "$bin" rep --mode "$mode" --workload "$workload" --seed "$seed" | tail -n 1 >>"$out/$2"
}

for i in $(seq 1 "$n"); do
    if [ $((i % 2)) -eq 1 ]; then
        rep "$parent" parent
        rep "$change" change
    else
        rep "$change" change
        rep "$parent" parent
    fi
    echo "pair $i/$n done" >&2
done

python3 - "$out/parent" "$out/change" "$workload" "$seed" "$mode" <<'EOF'
import json, statistics, sys

parent, change = ([json.loads(l) for l in open(p)] for p in sys.argv[1:3])
mode = sys.argv[5]
print(f"workload {sys.argv[3]}, seed {sys.argv[4]}, {mode}, {len(parent)} pairs (ratio = change / parent)")
for side, runs in (("parent", parent), ("change", change)):
    failed = [f for r in runs for f in r["failures"]]
    if failed:
        print(f"FAILURES on {side}: {failed}")

METRICS = [("keys_per_s", True), ("cpu_ns_per_key", False), ("modeled_samples_per_s", True),
           ("peak_rss_mb", False), ("setup_s", False)]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3

for name, higher in METRICS if mode == "untraced" else []:
    p = [r["values"][name] for r in parent]
    c = [r["values"][name] for r in change]
    wins = sum((y > x) if higher else (y < x) for x, y in zip(p, c))
    ties = sum(x == y for x, y in zip(p, c))
    (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
    print(f"\n{name} ({'higher' if higher else 'lower'} is better): "
          f"change wins {wins}/{len(p)}, ties {ties}")
    print(f"  parent median {pm:.6g}  quartiles {pq1:.6g} .. {pq3:.6g}  (IQR {pq3 - pq1:.3g})")
    print(f"  change median {cm:.6g}  quartiles {cq1:.6g} .. {cq3:.6g}"
          f"  median ratio {cm / pm:.4f}  median distance {abs(cm - pm):.3g}")
    print("  per pair: " + " ".join(f"{y / x:.3f}" for x, y in zip(p, c)))

if mode == "untraced":
    # Cores the run kept busy: CPU time per key over wall time per key.
    print("\nbusy cores (keys_per_s x cpu_ns_per_key x 1e-9):")
    for side, runs in (("parent", parent), ("change", change)):
        q1, med, q3 = quartiles([r["values"]["keys_per_s"] * r["values"]["cpu_ns_per_key"] * 1e-9
                                 for r in runs])
        print(f"  {side} median {med:.3f}  quartiles {q1:.3f} .. {q3:.3f}")

if mode != "untraced":
    # Every value either side reports; a layer that is not live on the
    # workload is absent from the rep and reads 0 here, as in the driver.
    names = sorted({k for r in parent + change for k in r["values"]})
    width = max(map(len, names))
    print(f"\n{'value':{width}}  {'parent q1':>11} {'median':>11} {'q3':>11}"
          f"  {'change q1':>11} {'median':>11} {'q3':>11}   ratio")
    for name in names:
        (pq1, pm, pq3), (cq1, cm, cq3) = (
            quartiles([r["values"].get(name, 0.0) for r in runs]) for runs in (parent, change))
        ratio = f"{cm / pm:7.3f}" if pm else "      -"
        print(f"{name:{width}}  {pq1:11.5g} {pm:11.5g} {pq3:11.5g}"
              f"  {cq1:11.5g} {cm:11.5g} {cq3:11.5g}  {ratio}")

exact = lambda runs: sorted({(k, v) for r in runs for k, v in r["exact"].items()})
if exact(parent) == exact(change):
    print("\nexact values identical on both sides: "
          + ", ".join(f"{k}={v}" for k, v in exact(parent)))
else:
    print(f"\nEXACT VALUES DIFFER\n  parent {exact(parent)}\n  change {exact(change)}")
EOF
