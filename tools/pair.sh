#!/bin/sh
# Run one benchmark workload in alternating pairs: another revision's tree
# against this checkout.  Exports <rev> with git archive into a temporary
# directory, then for the <pairs> seeds from <first-seed> (default 1) runs
#
#     python3 bench/run.py --workload <workload> --seed S --seconds T
#
# once in each tree, T being BENCHMARK.json's run_seconds.  Odd seeds run
# <rev> first and even seeds this checkout first.  It prints, for each
# gated end-to-end metric, both sides' medians and quartiles, the spread of
# <rev>'s quartiles against the metric's bound, the per-pair ratios and how
# many pairs this checkout won.  It runs only what bench/run.py runs.  It
# also writes that summary to BENCH_<workload>.json at the checkout root:
# both revisions (this checkout's HEAD, and whether its tree had local
# changes) and, per metric, the medians, quartiles, <rev>'s spread, the
# win count and the per-pair ratios.
# Exits 0 when every run finished, 1 when a run failed its correctness
# gate or printed no result, 2 on a usage or export error.
#
#     tools/pair.sh HEAD~1 strassen-uniform-4k 6
#     tools/pair.sh HEAD~1 mixed-1k 10 11      # seeds 11..20
set -eu

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <rev> <workload> <pairs> [first-seed]" >&2
    exit 2
fi
first=${4:-1}
case "$3$first" in
    *[!0-9]*)
        echo "usage: $0 <rev> <workload> <pairs> [first-seed]" >&2
        exit 2 ;;
esac
last=$((first + $3 - 1))
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

mkdir "$tmp/old" "$tmp/runs"
git -C "$root" archive "$1" | tar -x -C "$tmp/old" || exit 2
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")

s=$first
while [ "$s" -le "$last" ]; do
    if [ $((s % 2)) -eq 1 ]; then order="old new"; else order="new old"; fi
    for side in $order; do
        if [ "$side" = old ]; then dir=$tmp/old; else dir=$root; fi
        (cd "$dir" && python3 bench/run.py --workload "$2" --seed "$s" \
            --seconds "$seconds") | tail -n 1 > "$tmp/runs/$side-$s.json"
        echo "seed $s $side done" >&2
    done
    s=$((s + 1))
done

old_commit=$(git -C "$root" rev-parse "$1^{commit}")
new_commit=$(git -C "$root" rev-parse HEAD)
if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
    dirty=1
else
    dirty=0
fi

python3 - "$root/BENCHMARK.json" "$tmp/runs" "$1" "$2" "$3" "$root" \
    "$old_commit" "$new_commit" "$dirty" "$seconds" "$first" <<'EOF'
import json
import statistics
import sys

(spec, runs, rev, workload, pairs, root, old_commit, new_commit, dirty,
 seconds, first) = sys.argv[1:]
pairs, first = int(pairs), int(first)
ok = True
results = {}
for side in ("old", "new"):
    for s in range(first, first + pairs):
        try:
            with open(f"{runs}/{side}-{s}.json") as f:
                result = json.load(f)
        except (OSError, ValueError):
            print(f"{side} seed {s}: no result")
            ok = False
            continue
        if not result["correct"] or result["failed"]:
            print(f"{side} seed {s}: correct={result['correct']} "
                  f"failed={result['failed']} of {result['attempted']}")
            ok = result["correct"] and ok
        results[side, s] = {k: v["value"] for k, v in
                            result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


seeds = [s for s in range(first, first + pairs)
         if ("old", s) in results and ("new", s) in results]
print(f"{workload}: {rev} against this checkout, {len(seeds)} pairs")
record = {
    "workload": workload,
    "command": f"python3 bench/run.py --workload {workload} --seed S "
               f"--seconds {seconds}",
    "seeds": seeds,
    "old": {"rev": rev, "commit": old_commit},
    "new": {"commit": new_commit, "local_changes": dirty == "1"},
    "metrics": {},
}
for metric in json.load(open(spec))["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    old = [results["old", s][name] for s in seeds]
    new = [results["new", s][name] for s in seeds]
    if not seeds:
        continue
    q_old, q_new = quartiles(old), quartiles(new)
    wins = sum((n > o) if higher else (n < o) for o, n in zip(old, new))
    ratios = " ".join(f"{n / o:.3f}" if o else "-" for o, n in zip(old, new))
    spread = (q_old[2] - q_old[0]) / q_old[1] if q_old[1] else 0.0
    change = q_new[1] / q_old[1] - 1 if q_old[1] else 0.0
    print(f"{name} ({metric['better']} is better, bound "
          f"{metric['bound']:.0%})")
    print(f"  {rev}: median {q_old[1]:.4g}, quartiles {q_old[0]:.4g} to "
          f"{q_old[2]:.4g} (spread {spread:.1%} of the median)")
    print(f"  this: median {q_new[1]:.4g}, quartiles {q_new[0]:.4g} to "
          f"{q_new[2]:.4g}")
    print(f"  medians {change:+.1%}; this checkout better in {wins} of "
          f"{len(seeds)}; per-pair new/old: {ratios}")
    record["metrics"][name] = {
        "better": metric["better"], "bound": metric["bound"],
        "old_median": q_old[1], "old_quartiles": [q_old[0], q_old[2]],
        "new_median": q_new[1], "new_quartiles": [q_new[0], q_new[2]],
        "old_spread": spread, "median_change": change, "wins": wins,
        "ratios": [n / o if o else None for o, n in zip(old, new)]}
with open(f"{root}/BENCH_{workload}.json", "w") as f:
    json.dump(record, f, indent=2)
    f.write("\n")
sys.exit(0 if ok and len(seeds) == pairs else 1)
EOF
