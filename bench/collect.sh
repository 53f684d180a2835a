#!/usr/bin/env bash
# Collects machine-readable results from the experiment drivers.
#
# Usage: collect.sh [--trace] [--faults] OUT_DIR [DRIVER...]
#
# Runs every DRIVER (default: all bench_e* binaries under $BENCH_BIN_DIR,
# itself defaulting to build/bench) with --json=OUT_DIR, so each drops its
# BENCH_<id>.json next to the printed tables.  With --trace, each driver
# also runs with --trace=OUT_DIR and the resulting TRACE_<id>.json must be
# parseable JSON with a traceEvents array (Perfetto / chrome://tracing
# loadable).  Exits non-zero if any driver fails, emits no JSON, reports
# "reproduced": false, or (under --trace) writes a malformed trace.
#
# Every record any mode reads must also check itself (check_reproduced):
# its "reproduced" is recomputed from its cells by the one rule of
# core::reproduced -- the record is not partial, its perf.quarantine is
# empty, and every cell met its "expected" outcome ("pass" cells passed,
# "violation" cells were flagged, "info" cells decide nothing) -- and a
# mismatch fails the run.
#
# In the default and --faults modes every histogram in every record must
# also agree with its own buckets (check_histograms): the bucket counts sum
# to "count", p50 <= p95 <= p99, and each p_q lies within [first, last] of
# the bucket holding rank ceil(q * count).  A printed percentile outside
# its bucket's data fails the run.
#
# With --faults, every driver additionally runs under a small message-drop
# rate (--drop=$FAULT_DROP, default 0.05).  A lossy network may legitimately
# flip a paper verdict, so a nonzero driver exit is tolerated; what must
# hold instead is record honesty: the driver still writes a parseable
# BENCH_*.json whose "faults" object carries the requested drop rate, whose
# perf section counts the executions that ran under it (nonzero) and the
# messages the plan really dropped (nonzero), and whose "reproduced" field
# is an explicit true/false verdict.  A record that ran no execution (E1
# classifies exact pmfs) must instead carry all-zero traffic and
# "reproduced": true: a lossy wire with nothing on it can flip nothing.
# The last line counts the drivers whose records passed these checks and,
# of those, the ones whose records all say "reproduced": true.
#
# With --resume, each driver instead exercises the interrupt/resume story
# end to end (DESIGN.md section 10): run once uninterrupted as a baseline,
# run again with --checkpoint + --stop-after=$RESUME_STOP (default 3) so the
# campaign self-interrupts after a few repetitions and flushes a partial
# record plus a resume checkpoint, then run a third time with --resume to
# complete it.  The resumed record must match the baseline record after
# canonicalization (timing fields and the metrics block stripped — wall
# clock legitimately differs; every deterministic field must not), and no
# checkpoint file may survive a completed campaign.
#
# With --socket, each driver instead exercises the transport seam (DESIGN.md
# section 11): run once on the default in-process backend and once with
# --transport=socket, requiring (a) both runs succeed, (b) the two records
# are identical after canonicalization — same verdicts, cells, traffic and
# wire bytes, because the backend moves bytes without changing what an
# execution computes — and (c) the socket record's metrics block shows real
# kernel traffic (a nonzero net.bytes_on_wire counter).
#
# With --process, the remaining arguments are ONE driver command line
# (binary plus its own arguments, e.g. ".../explore gennaro none uniform
# --samples=40").  The command runs three times -- default in-process
# backend, --transport=socket, --transport=process -- and the three records
# must be identical after canonicalization (the process-isolation
# equivalence contract: per-party worker processes change how bytes move,
# never what an execution computes).  The process record must additionally
# prove that workers really ran: metadata.transport == "process" and a
# nonzero proc.spawned counter in its metrics block.
#
# With --chaos, the remaining arguments are ONE driver command line (like
# --process).  The command runs twice -- once clean on the in-process
# backend, once with --transport=socket --chaos=$CHAOS_SPEC (default a
# recoverable loss/latency/corruption mix) -- and the two records must be
# identical after canonicalization: recoverable wire chaos may cost wall
# clock and retransmits, never results (DESIGN.md section 15).  The chaotic
# record must additionally prove chaos really ran: metadata.chaos names the
# spec, some net.chaos.* fault counter is nonzero, the channels recovered
# (nonzero net.chaos.retransmits) and no budget died.
#
# With --status, each driver instead exercises the live-telemetry stream
# (DESIGN.md section 13): run with --json plus a fast heartbeat
# (--status=FILE --status-interval=$STATUS_INTERVAL, default 0.05s) and then
# require that every heartbeat line parses as JSON, "completed" is monotone
# nondecreasing across the stream, every campaign id is a 16-hex
# correlation id, the last line is flagged "final", and its "completed"
# equals the total perf.completed of the records the driver wrote — the
# stream and the record agree on how much work was done.
#
# Every mode parses records and traces with python3; without it the script
# exits 2 before running anything.
set -u

want_trace=0
want_faults=0
want_resume=0
want_socket=0
want_status=0
want_process=0
want_chaos=0
while [ "${1:-}" = "--trace" ] || [ "${1:-}" = "--faults" ] || [ "${1:-}" = "--resume" ] ||
      [ "${1:-}" = "--socket" ] || [ "${1:-}" = "--status" ] || [ "${1:-}" = "--process" ] ||
      [ "${1:-}" = "--chaos" ]; do
  case $1 in
    --trace) want_trace=1 ;;
    --faults) want_faults=1 ;;
    --resume) want_resume=1 ;;
    --socket) want_socket=1 ;;
    --status) want_status=1 ;;
    --process) want_process=1 ;;
    --chaos) want_chaos=1 ;;
  esac
  shift
done
drop_rate=${FAULT_DROP:-0.05}
resume_stop=${RESUME_STOP:-3}
status_interval=${STATUS_INTERVAL:-0.05}
chaos_spec=${CHAOS_SPEC:-delay:uniform:0:1,loss:0.1,corrupt:0.001}

if [ "$#" -lt 1 ]; then
  echo "usage: $0 [--trace] [--faults] [--resume] [--socket] [--status] OUT_DIR [DRIVER...]" >&2
  echo "       $0 --process|--chaos OUT_DIR DRIVER [DRIVER_ARGS...]" >&2
  exit 2
fi

if ! command -v python3 >/dev/null 2>&1; then
  echo "collect.sh: python3 is required to check records and traces" >&2
  exit 2
fi

out_dir=$1
shift
mkdir -p "$out_dir" || exit 2

if [ "$#" -gt 0 ]; then
  drivers=("$@")
else
  bin_dir=${BENCH_BIN_DIR:-build/bench}
  drivers=("$bin_dir"/bench_e*)
  if [ ! -e "${drivers[0]}" ]; then
    echo "collect.sh: no bench_e* drivers under '$bin_dir' (set BENCH_BIN_DIR or pass drivers)" >&2
    exit 2
  fi
fi

# Trace well-formedness: the file parses as JSON.
check_trace() {
  python3 -m json.tool "$1" >/dev/null 2>&1
}

# Faulted-record honesty: the record parses, its faults object carries the
# requested drop rate, the traffic block carries all four fault counters,
# and "reproduced" is an explicit verdict.  A record whose executions ran
# must show dropped messages; one that ran none must show all-zero traffic
# and reproduce.
check_faulted_record() {
  python3 - "$1" "$drop_rate" 2>/dev/null <<'EOF'
import json, sys
rec = json.load(open(sys.argv[1]))
assert rec["reproduced"] in (True, False)
assert rec["faults"]["drop_probability"] == float(sys.argv[2])
traffic = rec["perf"]["traffic"]
assert all(k in traffic for k in ("dropped", "delayed", "blocked", "crashed"))
if rec["perf"]["executions"] == 0:
    assert all(v == 0 for v in traffic.values())
    assert rec["reproduced"] is True
else:
    assert traffic["dropped"] > 0
EOF
}

# Verdict honesty (schema v10): "reproduced" must equal the rule applied to
# the record's own cells and partial flag.
check_reproduced() {
  python3 - "$1" 2>&1 <<'EOF'
import json, sys
rec = json.load(open(sys.argv[1]))
unmet = []
for cell in rec["cells"]:
    expected = cell["expected"]
    if expected not in ("pass", "violation", "info"):
        sys.exit(f"  cell {cell['label']!r} has an unknown expectation {expected!r}")
    if expected != "info" and cell["verdict"]["pass"] != (expected == "pass"):
        unmet.append(cell["label"])
quarantined = len(rec.get("perf", {}).get("quarantine", []))
rule = not rec["partial"] and quarantined == 0 and not unmet
if rec["reproduced"] != rule:
    sys.exit(f"  reproduced mismatch in {sys.argv[1]}: the record says "
             f"{json.dumps(rec['reproduced'])}, its cells say {json.dumps(rule)} "
             f"(partial {json.dumps(rec['partial'])}, quarantined {quarantined}, "
             f"unmet cells: {unmet or 'none'})")
EOF
}

# Histogram honesty (schema v9): each histogram's "buckets" are
# [first, last, count] triples whose counts sum to "count", its
# percentiles are ordered, and every p_q lies in the bucket that holds
# rank ceil(q * count) (clamped to [1, count]); an empty histogram has
# null percentiles and no buckets.
check_histograms() {
  python3 - "$1" 2>&1 <<'EOF'
import json, math, sys
rec = json.load(open(sys.argv[1]))
bad = []
for name, h in rec["metrics"]["histograms"].items():
    count, buckets = h["count"], h["buckets"]
    bucketed = sum(b[2] for b in buckets)
    if bucketed != count:
        bad.append(f"{name}: bucket counts sum to {bucketed}, count is {count}")
        continue
    if count == 0:
        if any(h[p] is not None for p in ("p50", "p95", "p99")):
            bad.append(f"{name}: empty histogram with non-null percentiles")
        continue
    if not h["p50"] <= h["p95"] <= h["p99"]:
        bad.append(f"{name}: p50 {h['p50']} p95 {h['p95']} p99 {h['p99']} out of order")
    for key, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        rank = min(max(math.ceil(q * count), 1), count)
        seen = 0
        for first, last, n in buckets:
            seen += n
            if rank <= seen:
                break
        if not first <= h[key] <= last:
            bad.append(f"{name}: {key} = {h[key]} outside [{first}, {last}], "
                       f"the bucket holding rank {rank} of {count}")
for line in bad:
    print("  " + line)
sys.exit(1 if bad else 0)
EOF
}

# Record identity modulo wall clock: strip the keys that legitimately
# differ between two runs of the same campaign ("metrics", "phases",
# "wall_seconds", "throughput" -- all timing -- plus any EXTRA_KEY) anywhere
# in the tree, then require exact equality.  Determinism of everything else
# (verdict, seeds, traffic, rounds, completion accounting) is the contract
# of every identity mode.
# Usage: same_record RECORD_A RECORD_B [EXTRA_KEY...]
same_record() {
  python3 - "$@" 2>&1 <<'EOF'
import json, sys

strip = {"metrics", "phases", "wall_seconds", "throughput", *sys.argv[3:]}

def canon(node):
    if isinstance(node, dict):
        return {k: canon(v) for k, v in node.items() if k not in strip}
    if isinstance(node, list):
        return [canon(v) for v in node]
    return node

a = canon(json.load(open(sys.argv[1])))
b = canon(json.load(open(sys.argv[2])))
if a != b:
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            print(f"  field {key!r} differs:\n    {sys.argv[1]}: {a.get(key)!r}\n"
                  f"    {sys.argv[2]}: {b.get(key)!r}")
    sys.exit(1)
EOF
}

# The socket record must prove bytes really moved through the kernel: its
# metrics block carries a nonzero net.bytes_on_wire counter and names the
# socket backend in metadata.
check_socket_metrics() {
  python3 - "$1" 2>&1 <<'EOF'
import json, sys
rec = json.load(open(sys.argv[1]))
assert rec["metadata"]["transport"] == "socket", \
    f'metadata.transport is {rec["metadata"]["transport"]!r}, not "socket"'
bytes_on_wire = rec["metrics"]["counters"].get("net.bytes_on_wire", 0)
assert bytes_on_wire > 0, "net.bytes_on_wire is zero: no frame crossed the kernel"
EOF
}

# The process record must prove worker processes really ran: the metadata
# block names the process backend and the proc.spawned counter is nonzero.
check_process_metrics() {
  python3 - "$1" 2>&1 <<'PYEOF'
import json, sys
rec = json.load(open(sys.argv[1]))
assert rec["metadata"]["transport"] == "process", \
    f'metadata.transport is {rec["metadata"]["transport"]!r}, not "process"'
spawned = rec["metrics"]["counters"].get("proc.spawned", 0)
assert spawned > 0, "proc.spawned is zero: no worker process was ever spawned"
PYEOF
}

# The chaotic record must prove wire chaos really ran and the resilience
# machinery really recovered: metadata.chaos names the spec, at least one
# frame-fate counter moved, the channels retransmitted, and no channel
# spent its budget (recoverable chaos by construction).
check_chaos_metrics() {
  python3 - "$1" 2>&1 <<'PYEOF'
import json, sys
rec = json.load(open(sys.argv[1]))
assert rec["metadata"]["chaos"], "metadata.chaos is empty: the spec never reached the record"
counters = rec["metrics"]["counters"]
fates = sum(counters.get("net.chaos." + k, 0)
            for k in ("dropped", "duplicated", "reordered", "delayed", "corrupted"))
assert fates > 0, "every net.chaos.* fate counter is zero: chaos never touched a frame"
assert counters.get("net.chaos.retransmits", 0) > 0, \
    "net.chaos.retransmits is zero: nothing was ever recovered"
assert counters.get("net.chaos.budget_exhausted", 0) == 0, \
    "a channel spent its retransmit budget under a recoverable spec"
PYEOF
}

# Heartbeat-stream honesty: every line parses, completed never decreases,
# campaign ids are 16-hex correlation ids, the stream ends on a "final"
# beat, and that beat's completed matches the records' completed total.
check_status_stream() {
  python3 - "$@" 2>&1 <<'EOF'
import json, re, sys

status_path, record_paths = sys.argv[1], sys.argv[2:]
beats = []
with open(status_path) as stream:
    for lineno, line in enumerate(stream, 1):
        if not line.strip():
            continue
        try:
            beats.append(json.loads(line))
        except json.JSONDecodeError as err:
            sys.exit(f"  line {lineno} is not JSON: {err}")
if not beats:
    sys.exit(f"  {status_path} carries no heartbeat")

prev = -1
for i, beat in enumerate(beats, 1):
    completed = beat["completed"]
    if completed < prev:
        sys.exit(f"  beat {i}: completed went backwards ({prev} -> {completed})")
    prev = completed
    campaign = beat["campaign"]
    if campaign is not None and not re.fullmatch(r"[0-9a-f]{16}", campaign):
        sys.exit(f"  beat {i}: campaign {campaign!r} is not a 16-hex correlation id")

last = beats[-1]
if last.get("final") is not True:
    sys.exit("  stream does not end on a final heartbeat")
record_completed = sum(
    json.load(open(p))["perf"]["completed"] for p in record_paths)
if last["completed"] != record_completed:
    sys.exit(f"  final completed {last['completed']} != records' total {record_completed}")
EOF
}

if [ "$want_status" -eq 1 ]; then
  failures=0
  for driver in "${drivers[@]}"; do
    name=$(basename "$driver")
    json_dir=$out_dir/status_$name
    status_file=$out_dir/STATUS_$name.jsonl
    rm -rf "$json_dir" "$status_file"
    mkdir -p "$json_dir"

    if ! "$driver" --json="$json_dir" --status="$status_file" \
         --status-interval="$status_interval"; then
      echo "collect.sh: FAIL $name (--status run exited nonzero)" >&2
      failures=$((failures + 1))
      continue
    fi
    if [ ! -f "$status_file" ]; then
      echo "collect.sh: FAIL $name (wrote no status stream at $status_file)" >&2
      failures=$((failures + 1))
      continue
    fi
    if ! check_status_stream "$status_file" "$json_dir"/BENCH_*.json; then
      echo "collect.sh: FAIL $name (heartbeat stream $status_file is dishonest)" >&2
      failures=$((failures + 1))
      continue
    fi
    for rec in "$json_dir"/BENCH_*.json; do
      if ! check_reproduced "$rec"; then
        echo "collect.sh: FAIL $name (\"reproduced\" in $rec does not follow from its cells)" >&2
        failures=$((failures + 1))
        break
      fi
    done
  done
  count=${#drivers[@]}
  echo "collect.sh: $((count - failures))/$count drivers streamed honest heartbeats, records in $out_dir"
  [ "$failures" -eq 0 ]
  exit
fi

# The transport identity modes (--socket, --process, --chaos).  Each
# variant is "LABEL CHECK ARGS...": one more run of a command line with
# ARGS, whose records must equal the base run's modulo timing and metadata
# (which names the backend and the chaos spec, the one thing the runs
# disagree on) and pass CHECK.
if [ "$want_socket" -eq 1 ] || [ "$want_process" -eq 1 ] || [ "$want_chaos" -eq 1 ]; then
  base_label=inproc
  if [ "$want_socket" -eq 1 ]; then
    variants=("socket check_socket_metrics --transport=socket")
    commands=("${drivers[@]}")  # one command line per driver
  else
    if [ ! -x "${drivers[0]}" ]; then
      echo "collect.sh: --process/--chaos need one driver command line after OUT_DIR" >&2
      exit 2
    fi
    if [ "$want_process" -eq 1 ]; then
      variants=("socket true --transport=socket"
                "process check_process_metrics --transport=process")
    else
      base_label=clean
      variants=("chaos check_chaos_metrics --transport=socket --chaos=$chaos_spec")
    fi
    commands=("${drivers[*]}")  # the remaining arguments are one command line
  fi

  # identity_check CMD...: the base run, then every variant and its pair
  # checks.  Returns nonzero when any run or comparison failed.
  identity_check() {
    local name base_dir dir label check args base other ok=0
    name=$(basename "$1")
    base_dir=$out_dir/${base_label}_$name
    rm -rf "$base_dir"
    mkdir -p "$base_dir"
    if ! "$@" --json="$base_dir"; then
      echo "collect.sh: FAIL $name ($base_label run exited nonzero)" >&2
      return 1
    fi
    for variant in "${variants[@]}"; do
      read -r label check args <<<"$variant"
      dir=$out_dir/${label}_$name
      rm -rf "$dir"
      mkdir -p "$dir"
      # $args is deliberately word-split into its flags.
      if ! "$@" --json="$dir" $args; then
        echo "collect.sh: FAIL $name ($args run exited nonzero)" >&2
        return 1
      fi
      for base in "$base_dir"/BENCH_*.json; do
        if ! check_reproduced "$base"; then
          echo "collect.sh: FAIL $name (\"reproduced\" in $base does not follow from its cells)" >&2
          ok=1
        fi
        other=$dir/$(basename "$base")
        if [ ! -f "$other" ]; then
          echo "collect.sh: FAIL $name ($label run wrote no $(basename "$base"))" >&2
          ok=1
          continue
        fi
        if ! same_record "$base" "$other" metadata; then
          echo "collect.sh: FAIL $name ($other differs from $base)" >&2
          ok=1
        fi
        if ! "$check" "$other"; then
          echo "collect.sh: FAIL $name ($other fails $check)" >&2
          ok=1
        fi
      done
    done
    return $ok
  }

  failures=0
  for command in "${commands[@]}"; do
    # A --process/--chaos command line is word-split back into its argv.
    identity_check $command || failures=$((failures + 1))
  done
  count=${#commands[@]}
  echo "collect.sh: $((count - failures))/$count command lines record-identical to the" \
       "$base_label run across [${variants[*]}], records in $out_dir"
  [ "$failures" -eq 0 ]
  exit
fi

if [ "$want_resume" -eq 1 ]; then
  failures=0
  for driver in "${drivers[@]}"; do
    name=$(basename "$driver")
    base_dir=$out_dir/baseline_$name
    res_dir=$out_dir/resumed_$name
    ckpt_dir=$out_dir/ckpts_$name
    rm -rf "$base_dir" "$res_dir" "$ckpt_dir"
    mkdir -p "$base_dir" "$res_dir" "$ckpt_dir"

    if ! "$driver" --json="$base_dir"; then
      echo "collect.sh: FAIL $name (baseline run exited nonzero)" >&2
      failures=$((failures + 1))
      continue
    fi
    # Interrupted run: --stop-after makes the process drain after a few
    # repetitions; the verdict may be partial, so a nonzero exit is fine.
    # What must exist afterwards are a partial record and a checkpoint.
    "$driver" --json="$res_dir" --checkpoint="$ckpt_dir" --stop-after="$resume_stop" || true
    if ! ls "$ckpt_dir"/*.ckpt >/dev/null 2>&1; then
      echo "collect.sh: FAIL $name (interrupted run left no checkpoint in $ckpt_dir)" >&2
      failures=$((failures + 1))
      continue
    fi
    if ! grep -q '"partial": true' "$res_dir"/BENCH_*.json; then
      echo "collect.sh: FAIL $name (interrupted run wrote no partial record)" >&2
      failures=$((failures + 1))
      continue
    fi
    partial_ok=1
    for rec in "$res_dir"/BENCH_*.json; do
      check_reproduced "$rec" || partial_ok=0
    done
    if [ "$partial_ok" -eq 0 ]; then
      echo "collect.sh: FAIL $name (\"reproduced\" in an interrupted record does not follow from its cells)" >&2
      failures=$((failures + 1))
      continue
    fi
    if ! "$driver" --json="$res_dir" --checkpoint="$ckpt_dir" --resume; then
      echo "collect.sh: FAIL $name (resume run exited nonzero)" >&2
      failures=$((failures + 1))
      continue
    fi
    if ls "$ckpt_dir"/*.ckpt >/dev/null 2>&1; then
      echo "collect.sh: FAIL $name (completed campaign left stale checkpoints in $ckpt_dir)" >&2
      failures=$((failures + 1))
      continue
    fi
    record_ok=1
    for baseline in "$base_dir"/BENCH_*.json; do
      resumed=$res_dir/$(basename "$baseline")
      if [ ! -f "$resumed" ] || ! same_record "$baseline" "$resumed" ||
         ! check_reproduced "$resumed"; then
        echo "collect.sh: FAIL $name (resumed record $(basename "$baseline") differs from baseline)" >&2
        record_ok=0
      fi
    done
    [ "$record_ok" -eq 1 ] || failures=$((failures + 1))
  done
  count=${#drivers[@]}
  echo "collect.sh: $((count - failures))/$count drivers resumed identically, records in $out_dir"
  [ "$failures" -eq 0 ]
  exit
fi

failures=0
reproduced=0  # --faults: drivers whose honest records all say reproduced
for driver in "${drivers[@]}"; do
  name=$(basename "$driver")
  before=$(ls "$out_dir"/BENCH_*.json 2>/dev/null | sort)
  args=(--json="$out_dir")
  if [ "$want_trace" -eq 1 ]; then
    args+=(--trace="$out_dir")
  fi
  if [ "$want_faults" -eq 1 ]; then
    args+=(--drop="$drop_rate")
  fi
  if ! "$driver" "${args[@]}"; then
    if [ "$want_faults" -eq 0 ]; then
      echo "collect.sh: FAIL $name (driver exit $?)" >&2
      failures=$((failures + 1))
      continue
    fi
    echo "collect.sh: note $name exited nonzero under --faults (verdict may flip; checking the record instead)" >&2
  fi
  after=$(ls "$out_dir"/BENCH_*.json 2>/dev/null | sort)
  # The driver prints "[obs] wrote <path>"; cross-check a file appeared or
  # was refreshed, then confirm the record says reproduced.
  written=$(comm -13 <(printf '%s\n' "$before") <(printf '%s\n' "$after"))
  if [ -z "$written" ]; then
    # Re-run over an existing sink: fall back to the newest record.
    written=$(ls -t "$out_dir"/BENCH_*.json 2>/dev/null | head -1)
  fi
  if [ "$want_faults" -eq 1 ]; then
    faulted_ok=1
    for rec in $written; do
      check_faulted_record "$rec" || faulted_ok=0
    done
    if [ -z "$written" ] || [ "$faulted_ok" -eq 0 ]; then
      echo "collect.sh: FAIL $name (no well-formed faulted record in $out_dir)" >&2
      failures=$((failures + 1))
      continue
    fi
  elif [ -z "$written" ] || ! grep -q '"reproduced": true' $written; then
    echo "collect.sh: FAIL $name (no JSON with \"reproduced\": true in $out_dir)" >&2
    failures=$((failures + 1))
    continue
  fi
  verdicts_ok=1
  for rec in $written; do
    check_reproduced "$rec" || verdicts_ok=0
  done
  if [ "$verdicts_ok" -eq 0 ]; then
    echo "collect.sh: FAIL $name (\"reproduced\" in $written does not follow from its cells)" >&2
    failures=$((failures + 1))
    continue
  fi
  histograms_ok=1
  for rec in $written; do
    check_histograms "$rec" || histograms_ok=0
  done
  if [ "$histograms_ok" -eq 0 ]; then
    echo "collect.sh: FAIL $name (a histogram in $written disagrees with its buckets)" >&2
    failures=$((failures + 1))
    continue
  fi
  if [ "$want_trace" -eq 1 ]; then
    trace=$(ls -t "$out_dir"/TRACE_*.json 2>/dev/null | head -1)
    if [ -z "$trace" ] || ! check_trace "$trace"; then
      echo "collect.sh: FAIL $name (no parseable TRACE_*.json in $out_dir)" >&2
      failures=$((failures + 1))
      continue
    fi
  fi
  if [ "$want_faults" -eq 1 ] && ! grep -L '"reproduced": true' $written | grep -q .; then
    reproduced=$((reproduced + 1))
  fi
done

count=${#drivers[@]}
if [ "$want_faults" -eq 1 ]; then
  echo "collect.sh: $((count - failures))/$count drivers wrote honest faulted records" \
       "($reproduced reproduced), records in $out_dir"
else
  echo "collect.sh: $((count - failures))/$count drivers reproduced, records in $out_dir"
fi
[ "$failures" -eq 0 ]
