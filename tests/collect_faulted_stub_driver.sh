#!/usr/bin/env sh
# A stand-in experiment driver for collect.sh --faults: it writes an honest
# faulted record whose verdict flipped -- the requested drop rate, executions
# that ran and dropped messages, "reproduced": false backed by its cells --
# and exits 1 as a driver does when its verdict flips.  collect.sh must
# accept the record and count it as not reproduced.
#
# Usage: collect_faulted_stub_driver.sh --json=DIR --drop=P
set -u

dir=
drop=
for arg in "$@"; do
  case $arg in
    --json=*) dir=${arg#--json=} ;;
    --drop=*) drop=${arg#--drop=} ;;
    *)
      echo "usage: $0 --json=DIR --drop=P" >&2
      exit 2
      ;;
  esac
done
if [ -z "$dir" ] || [ -z "$drop" ]; then
  echo "usage: $0 --json=DIR --drop=P" >&2
  exit 2
fi
mkdir -p "$dir" || exit 2
cat >"$dir/BENCH_stub_faulted.json" <<JSON
{
  "schema_version": 10,
  "id": "stub/faulted",
  "paper_claim": "a claim a lossy wire can flip",
  "setup": "hand-written record",
  "reproduced": false,
  "partial": false,
  "detail": "the control cell failed under message drops",
  "faults": {"drop_probability": $drop, "max_delay": 0, "crashes": [], "partitions": []},
  "perf": {
    "executions": 8,
    "completed": 8,
    "traffic": {"messages": 40, "dropped": 3, "delayed": 0, "blocked": 0, "crashed": 0}
  },
  "cells": [
    {
      "label": "control",
      "expected": "pass",
      "verdict": {"kind": "CR", "pass": false, "gap": 0.2, "radius": 0.1, "detail": ""}
    }
  ],
  "metrics": {"counters": {}, "histograms": {}}
}
JSON
echo "[stub/faulted] NOT-REPRODUCED"
exit 1
