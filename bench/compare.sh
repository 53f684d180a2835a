#!/usr/bin/env bash
# Compares freshly collected BENCH_*.json records against committed
# baselines, so a regression in verdicts, traffic or throughput is caught
# in CI instead of drifting silently.
#
# Usage: compare.sh BASELINE_DIR OUT_DIR [DRIVER...]
#
# With DRIVERs given, each is first run with --json=OUT_DIR (same contract
# as collect.sh); without, OUT_DIR is assumed to already hold records.
# Every BENCH_<id>.json in OUT_DIR is then compared against the file of the
# same name in BASELINE_DIR:
#
#   - Deterministic fields (verdicts, cells, seeds, rounds, traffic
#     including the wire-byte counts, completion accounting) must match the
#     baseline exactly after canonicalization.  Stripped as legitimately
#     run-dependent: the metrics block, per-phase timings, wall clock,
#     throughput, and the metadata block (threads / compiler / build /
#     transport describe the machine, not the result).
#   - Throughput must be within BENCH_TOL relative tolerance of the
#     baseline (default 0.5, i.e. +/-50%; BENCH_TOL=skip disables the
#     check for noisy boxes).  When baseline and candidate were collected
#     on different transport backends (metadata.transport differs, e.g. a
#     committed in-process baseline vs a --transport=process rerun) the
#     throughput check is skipped with a note: backends deliberately trade
#     speed for isolation, so cross-backend drift is not a regression.
#     The deterministic-field comparison still applies in full.
#   - Both records must carry a schema_version this script knows.  A
#     missing or unknown version fails loudly instead of "comparing" two
#     records whose field layouts this script cannot interpret — stale
#     baselines must be regenerated, not silently matched.
#
# Exits nonzero when any record drifts, prints a per-field diff, and
# requires at least one record to actually compare (an empty intersection
# is a harness bug, not a pass).
set -u

if [ "$#" -lt 2 ]; then
  echo "usage: $0 BASELINE_DIR OUT_DIR [DRIVER...]" >&2
  exit 2
fi
baseline_dir=$1
out_dir=$2
shift 2
tolerance=${BENCH_TOL:-0.5}

if ! command -v python3 >/dev/null 2>&1; then
  echo "compare.sh: needs python3 for record comparison" >&2
  exit 2
fi
if [ ! -d "$baseline_dir" ]; then
  echo "compare.sh: baseline directory '$baseline_dir' does not exist" >&2
  exit 2
fi
mkdir -p "$out_dir" || exit 2

for driver in "$@"; do
  if ! "$driver" --json="$out_dir"; then
    echo "compare.sh: FAIL $(basename "$driver") (driver exit $?)" >&2
    exit 1
  fi
done

compare_record() {
  python3 - "$1" "$2" "$tolerance" <<'EOF'
import json, sys

def canon(node):
    if isinstance(node, dict):
        return {k: canon(v) for k, v in node.items()
                if k not in ("metrics", "phases", "wall_seconds", "throughput", "metadata")}
    if isinstance(node, list):
        return [canon(v) for v in node]
    return node

baseline = json.load(open(sys.argv[1]))
candidate = json.load(open(sys.argv[2]))
tol = sys.argv[3]
failed = False

# Versions this script can interpret (obs/records.h kSchemaVersion history).
# Anything else means the field layout below is wrong for the record, so
# refuse to compare rather than produce a meaningless verdict.
KNOWN_SCHEMAS = {10}
for role, rec, path in (("baseline", baseline, sys.argv[1]),
                        ("candidate", candidate, sys.argv[2])):
    version = rec.get("schema_version")
    if version not in KNOWN_SCHEMAS:
        failed = True
        print(f"  {role} {path}: unknown or missing schema_version {version!r}"
              f" (known: {sorted(KNOWN_SCHEMAS)}); regenerate the record")

cb, cc = canon(baseline), canon(candidate)
if cb != cc:
    failed = True
    for key in sorted(set(cb) | set(cc)):
        if cb.get(key) != cc.get(key):
            print(f"  field {key!r} differs:\n    baseline:  {cb.get(key)!r}\n    candidate: {cc.get(key)!r}")

base_transport = baseline.get("metadata", {}).get("transport")
cand_transport = candidate.get("metadata", {}).get("transport")
if base_transport != cand_transport:
    # Different backends trade throughput for isolation by design; only the
    # deterministic fields are comparable across them.
    print(f"  note: transports differ (baseline {base_transport!r}, candidate"
          f" {cand_transport!r}); skipping throughput check")
elif tol != "skip":
    base_tp = baseline["perf"]["throughput"]
    cand_tp = candidate["perf"]["throughput"]
    if base_tp > 0:
        drift = abs(cand_tp - base_tp) / base_tp
        if drift > float(tol):
            failed = True
            print(f"  throughput drifted {drift:.2f} (> {tol}): baseline {base_tp:.1f}, candidate {cand_tp:.1f} exec/s")

sys.exit(1 if failed else 0)
EOF
}

compared=0
failures=0
shopt -s nullglob
for candidate in "$out_dir"/BENCH_*.json; do
  name=$(basename "$candidate")
  baseline=$baseline_dir/$name
  if [ ! -f "$baseline" ]; then
    echo "compare.sh: note $name has no committed baseline; skipping" >&2
    continue
  fi
  compared=$((compared + 1))
  if ! compare_record "$baseline" "$candidate"; then
    echo "compare.sh: FAIL $name drifted from $baseline" >&2
    failures=$((failures + 1))
  fi
done

if [ "$compared" -eq 0 ]; then
  echo "compare.sh: no record in $out_dir has a baseline in $baseline_dir" >&2
  exit 2
fi
echo "compare.sh: $((compared - failures))/$compared records match the baselines"
[ "$failures" -eq 0 ]
