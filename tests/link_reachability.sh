#!/usr/bin/env sh
# Link reachability: every function a src/ archive exports (nm type T) must
# be linked into at least one product binary.  The build compiles with
# -ffunction-sections -fdata-sections -fno-ipa-icf and links with
# --gc-sections, so a function no product reaches is dropped from every
# binary; what is left in an archive's T set but in no binary is code that
# no driver, micro bench, example or simbench can run.  A GCC clone of a
# function (`f [clone .constprop.0]`, `.isra`, `.part`, `.cold`) counts as
# the function itself.
#
# ALLOWLIST names the deliberate exceptions, one demangled signature per
# line; `#` starts a comment, and each entry's comment gives its reason.
# Entries that are linked after all (a build that inlines less) or no
# longer exported are reported as notes, not failures.
#
# Usage: link_reachability.sh ALLOWLIST ARCHIVE... -- BINARY...
set -u
export LC_ALL=C

if [ "$#" -lt 4 ]; then
  echo "usage: $0 ALLOWLIST ARCHIVE... -- BINARY..." >&2
  exit 2
fi
allowlist=$1
shift

tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
: >"$tmp/exported"
: >"$tmp/linked"

side=archives
for file in "$@"; do
  if [ "$file" = "--" ]; then
    side=binaries
    continue
  fi
  if ! nm -C --defined-only "$file" >"$tmp/nm" 2>"$tmp/err"; then
    echo "FAIL: nm could not read $file:" >&2
    cat "$tmp/err" >&2
    exit 2
  fi
  if [ "$side" = archives ]; then
    sed -n 's/^[0-9a-f]* T //p' "$tmp/nm" >>"$tmp/exported"
  else
    sed -n 's/^[0-9a-f]* [A-Za-z] //p' "$tmp/nm" | sed 's/ \[clone [^]]*\]//g' >>"$tmp/linked"
  fi
done
if [ "$side" != binaries ] || [ ! -s "$tmp/exported" ] || [ ! -s "$tmp/linked" ]; then
  echo "FAIL: need the src/ archives, then --, then the product binaries" >&2
  exit 2
fi

sort -u -o "$tmp/exported" "$tmp/exported"
sort -u -o "$tmp/linked" "$tmp/linked"
sed -e 's/#.*//' -e 's/^[[:space:]]*//' -e 's/[[:space:]]*$//' -e '/^$/d' "$allowlist" |
  sort -u >"$tmp/allowed"

comm -23 "$tmp/exported" "$tmp/linked" >"$tmp/unlinked"
comm -23 "$tmp/unlinked" "$tmp/allowed" >"$tmp/dead"
comm -23 "$tmp/allowed" "$tmp/unlinked" >"$tmp/stale"

while IFS= read -r name; do
  echo "note: allow-listed but linked or not exported: $name"
done <"$tmp/stale"

exported=$(wc -l <"$tmp/exported")
allowed=$(($(wc -l <"$tmp/unlinked") - $(wc -l <"$tmp/dead")))
if [ -s "$tmp/dead" ]; then
  echo "FAIL: $(wc -l <"$tmp/dead") of $exported exported src/ functions are linked by no product binary:"
  sed 's/^/  /' "$tmp/dead"
  exit 1
fi
echo "ok: all $exported exported src/ functions are linked by a product binary or allow-listed ($allowed allow-listed)"
