#!/usr/bin/env bash
# Deterministic regression gate: re-run the pinned-scale regression bench
# into a scratch directory and diff its figure JSON + run manifest against
# the committed goldens in results/golden/.
#
# The simulation is single-threaded virtual time with seeded RNGs, so the
# outputs are byte-identical run to run; ANY diff means the performance
# model changed and the goldens must be deliberately re-blessed:
#
#   scripts/regress.sh            # gate: fail on drift
#   scripts/regress.sh --bless    # accept current behaviour as golden
#
# The manifest's "git_describe" line is the one legitimately run-varying
# field; it renders on its own line and is excluded from the diff.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=results/golden
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

echo "==> running regression bench (fixed scale, seed 42) -> $OUT"
NBKV_RESULTS_DIR="$OUT" cargo run -q --release -p nbkv-bench --bin regress

echo "==> running one-sided regression bench (fixed scale, seed 42) -> $OUT"
NBKV_RESULTS_DIR="$OUT" cargo run -q --release -p nbkv-bench --bin regress_onesided

echo "==> running replication regression bench (fixed scale, seed 42) -> $OUT"
NBKV_RESULTS_DIR="$OUT" cargo run -q --release -p nbkv-bench --bin regress_replication

if [[ "${1:-}" == "--bless" ]]; then
    rm -rf "$GOLDEN"
    mkdir -p "$GOLDEN"
    cp -r "$OUT"/. "$GOLDEN"/
    echo "==> blessed: $(find "$GOLDEN" -name '*.json' | wc -l) golden files updated"
    exit 0
fi

if [[ ! -d "$GOLDEN" ]]; then
    echo "error: no goldens at $GOLDEN — run 'scripts/regress.sh --bless' once and commit" >&2
    exit 1
fi

echo "==> diffing against $GOLDEN"
# Per-file verdict first, so the files that moved stand out; then, for
# each drifted file, which values moved (section, name, golden -> current).
drifted=()
while read -r f; do
    if diff -q -I '"git_describe"' "$GOLDEN/$f" "$OUT/$f" >/dev/null 2>&1; then
        echo "    identical  ${f#./}"
    else
        echo "    drifted    ${f#./}"
        drifted+=("$f")
    fi
done < <( (cd "$GOLDEN" && find . -type f; cd "$OUT" && find . -type f) | sort -u)
if [[ ${#drifted[@]} -eq 0 ]]; then
    echo "==> OK: no drift"
    exit 0
fi
for f in "${drifted[@]}"; do
    echo "==> ${f#./}: values that moved"
    if [[ -f "$GOLDEN/$f" && -f "$OUT/$f" ]]; then
        python3 scripts/golden_diff.py "$GOLDEN/$f" "$OUT/$f"
    else
        echo "    only in $([[ -f "$GOLDEN/$f" ]] && echo golden || echo current)"
    fi
done
echo "" >&2
echo "error: regression outputs drifted from the committed goldens." >&2
echo "If the change is intentional, re-bless (then 'git diff results/golden'" >&2
echo "shows the raw diff) and commit:" >&2
echo "    scripts/regress.sh --bless && git add results/golden" >&2
exit 1
