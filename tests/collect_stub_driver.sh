#!/usr/bin/env sh
# A stand-in experiment driver for collect.sh's verdict check: it writes a
# record whose "reproduced" is true although one of its cells missed the
# outcome it expects (a "violation" cell that passed).  collect.sh must
# recompute the verdict from the cells and reject the record.
#
# Usage: collect_stub_driver.sh --json=DIR
set -u

case "${1:-}" in
  --json=*) dir=${1#--json=} ;;
  *)
    echo "usage: $0 --json=DIR" >&2
    exit 2
    ;;
esac
mkdir -p "$dir" || exit 2
cat >"$dir/BENCH_stub_unmet.json" <<'EOF'
{
  "schema_version": 10,
  "id": "stub/unmet",
  "paper_claim": "an attack the tester should flag",
  "setup": "hand-written record",
  "reproduced": true,
  "partial": false,
  "detail": "claims success without the cells to back it",
  "cells": [
    {
      "label": "control",
      "expected": "pass",
      "verdict": {"kind": "CR", "pass": true, "gap": 0.01, "radius": 0.1, "detail": ""}
    },
    {
      "label": "attack",
      "expected": "violation",
      "verdict": {"kind": "CR", "pass": true, "gap": 0.02, "radius": 0.1, "detail": ""}
    }
  ],
  "metrics": {"counters": {}, "histograms": {}}
}
EOF
echo "[stub/unmet] REPRODUCED"
