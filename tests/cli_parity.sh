#!/usr/bin/env sh
# Parser parity: examples/explore and the bench drivers both route their
# option handling through exec::configure's strict parser, so the
# same garbage input must be rejected identically — exit code 2 — by both
# front doors.  A drift here means one of them grew a lenient hand-rolled
# path again (the bug this test pins: explore used to silently ignore
# unknown and repeated options the drivers rejected).
#
# Usage: cli_parity.sh EXPLORE_BINARY BENCH_DRIVER_BINARY
set -u

if [ "$#" -ne 2 ]; then
  echo "usage: $0 EXPLORE_BINARY BENCH_DRIVER_BINARY" >&2
  exit 2
fi
explore=$1
driver=$2
fail=0

check() {
  desc=$1
  shift
  "$explore" gennaro none uniform "$@" >/dev/null 2>&1
  a=$?
  "$driver" "$@" >/dev/null 2>&1
  b=$?
  if [ "$a" -ne 2 ] || [ "$b" -ne 2 ]; then
    echo "FAIL [$desc]: explore exit $a, driver exit $b (want 2 from both)" >&2
    fail=1
  else
    echo "ok   [$desc]: both exit 2"
  fi
}

check "unknown option"         --bogus=1
check "repeated option"        --threads=2 --threads=2
check "malformed thread count" --threads=banana
check "bad transport"          --transport=carrier-pigeon
check "bad drop probability"   --drop=1.5
check "empty json path"        --json=
check "empty log path"         --log=
check "empty status path"      --status=
check "bad status interval"    --status-interval=banana
check "zero status interval"   --status-interval=0
check "repeated status path"   --status=a --status=b
check "malformed net timeout"  --net-timeout=abc
check "zero net timeout"       --net-timeout=0
check "negative net timeout"   --net-timeout=-1
check "sub-ms net timeout"     --net-timeout=0.0001
check "trailing-junk timeout"  --net-timeout=5s
check "repeated net timeout"   --net-timeout=5 --net-timeout=5
# Seconds knobs stop at 10^6 s: past it a value overflows the clock
# duration it becomes (a deadline in the past, a heartbeat per wait).
check "status interval past the cap" --status-interval=1e300
check "rep timeout past the cap"     --rep-timeout=1e300
check "net timeout past the cap"     --net-timeout=1e300
check "empty chaos spec"       --chaos=
check "unknown chaos key"      --chaos=turbulence:0.5
check "chaos loss over 1"      --chaos=loss:1.5
check "chaos bad delay kind"   --chaos=delay:gauss:1
check "chaos without a wire condition" --chaos=budget:3
check "repeated chaos"         --chaos=loss:0.1 --chaos=loss:0.1
check "chaos on the in-process backend" --chaos=loss:0.5
# Knobs that parse but name a party the campaign does not have: rejected by
# exec::Runner::validate before sampling, and the UsageError leaves the
# driver through exec::configure's terminate handler as exit 2.
check "crash party beyond n"   --crash=9@0
check "negative crash party"   --crash=-1@0
check "chaos party beyond n"   --transport=socket --chaos=loss:0.5,party:9

# Refused before sampling, naming what was refused: exit 2 from both front
# doors with `want` on stderr.  The exit code alone cannot tell: a delay
# bound whose max_delay + 1 wraps also exits 2 if it reaches the first
# execution, naming the DRBG ("HmacDrbg::below: bound == 0").
check_names() {
  desc=$1
  want=$2
  shift 2
  a_err=$("$explore" gennaro none uniform --samples=1 "$@" 2>&1 >/dev/null)
  a=$?
  b_err=$("$driver" "$@" 2>&1 >/dev/null)
  b=$?
  case $a_err in *"$want"*) a_named=yes ;; *) a_named=no ;; esac
  case $b_err in *"$want"*) b_named=yes ;; *) b_named=no ;; esac
  if [ "$a" -ne 2 ] || [ "$b" -ne 2 ] || [ "$a_named" = no ] || [ "$b_named" = no ]; then
    echo "FAIL [$desc]: explore exit $a (names it: $a_named), driver exit $b" \
         "(names it: $b_named); want 2 and '$want' from both" >&2
    fail=1
  else
    echo "ok   [$desc]: both exit 2 naming '$want'"
  fi
}

check_names "delay bound that wraps" "delay 18446744073709551615" --delay=18446744073709551615

# Explore-only rows: explore's own options (--n, --samples, --seed,
# --corrupt) and distribution specs go through the run knobs' strict number
# parsing, so garbage exits 2 with the usage line instead of aborting on an
# uncaught exception (exit 134) or silently truncating ("3x" -> 3) or
# wrapping ("-1" -> 2^64-1).
check_explore() {
  desc=$1
  shift
  "$explore" "$@" >/dev/null 2>&1
  a=$?
  if [ "$a" -ne 2 ]; then
    echo "FAIL [$desc]: explore exit $a (want 2)" >&2
    fail=1
  else
    echo "ok   [$desc]: explore exit 2"
  fi
}

check_explore "malformed party count"     gennaro none uniform --n=abc
check_explore "trailing-junk party count" gennaro none uniform --n=3x
check_explore "malformed sample count"    gennaro none uniform --samples=x
check_explore "negative sample count"     gennaro none uniform --samples=-1
check_explore "negative seed"             gennaro none uniform --seed=-1
check_explore "malformed corrupt list"    gennaro none uniform --corrupt=a
check_explore "malformed singleton bits"  gennaro none singleton:10x1
check_explore "malformed product entry"   gennaro none product:0.5,x
check_explore "chaos party beyond --n"    gennaro none uniform --n=4 --transport=socket \
                                          --chaos=loss:0.5,party:9
check_explore "crash beyond n, quarantine" gennaro none uniform --samples=1 --retries=1 \
                                           --crash=9@0
# Every explore run ends with the Sb tester, whose joint (x, W) histogram
# takes 2n <= 64 bits: n = 33 is refused before the first batch instead of
# aborting in the histogram after sampling.
check_explore "Sb tester beyond 32 parties" gennaro none uniform --n=33 --samples=1

# The crash and chaos grammars parse their numbers as strictly as the knobs
# do (base/parse.h).  explore-only with --samples=1: a lenient grammar lets
# these run, and a bench driver would run its whole grid.
check_explore "signed crash party"        gennaro none uniform --samples=1 --crash=+1@0
check_explore "blank before crash party"  gennaro none uniform --samples=1 "--crash= 1@0"
check_explore "blank before crash round"  gennaro none uniform --samples=1 "--crash=1@ 0"
check_explore "signed chaos probability"  gennaro none uniform --samples=1 --transport=socket \
                                          --chaos=loss:+0.5
check_explore "blank before chaos party"  gennaro none uniform --samples=1 --transport=socket \
                                          "--chaos=loss:0.5,party: 1"
check_explore "hex-float chaos loss"      gennaro none uniform --samples=1 --transport=socket \
                                          --chaos=loss:0x1p-2
check_explore "negative chaos warm-up"    gennaro none uniform --samples=1 --transport=socket \
                                          --chaos=loss:0.5,after:-0
check_explore "overflowing chaos budget"  gennaro none uniform --samples=1 --transport=socket \
                                          --chaos=loss:0.5,budget:99999999999999999999999

# The usage line names the program that printed it: explore hands the
# shared parser its own name, never one of its positionals ("usage:
# uniform [--threads=N] ..." was the bug).
usage_line=$("$explore" gennaro none uniform --bogus 2>&1 >/dev/null | grep '^usage:')
case $usage_line in
  "usage: "*explore" ["*) echo "ok   [usage line names explore]" ;;
  *)
    echo "FAIL [usage line names explore]: got '$usage_line'" >&2
    fail=1
    ;;
esac

# Fractional --net-timeout must be *accepted* (the knob takes seconds, and
# sub-second deadlines are what keep negative network tests fast).  explore
# alone carries the acceptance row: with one in-process sample it exits 0 in
# milliseconds, while a bench driver would run its whole grid.
"$explore" gennaro none uniform --samples=1 --net-timeout=0.5 >/dev/null 2>&1
a=$?
if [ "$a" -ne 0 ]; then
  echo "FAIL [fractional net timeout accepted]: explore exit $a (want 0)" >&2
  fail=1
else
  echo "ok   [fractional net timeout accepted]: explore exit 0"
fi

exit $fail
