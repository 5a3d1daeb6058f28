#!/usr/bin/env bash
# Run the CI workflow's steps on this machine, in the order the workflow
# lists them: every `- name:` step that has a `run:` line in
# .github/workflows/ci.yml, across all jobs. `uses:` steps (checkout,
# toolchain, cache) are skipped. Each step's output goes to
# target/ci-local/<n>.log; one line per step says PASS or FAIL and its wall
# seconds. Exits 1 if any step failed.
#
#   scripts/ci-local.sh
set -u
cd "$(dirname "$0")/.." || exit 2
workflow=.github/workflows/ci.yml
logs=target/ci-local
mkdir -p "$logs"

# One "name<TAB>command" line per step that runs something.
steps=$(awk '
    /^[[:space:]]*- name:/ { sub(/^[[:space:]]*- name:[[:space:]]*/, ""); name = $0; next }
    /^[[:space:]]*- /      { name = ""; next }
    /^[[:space:]]*run:/ && name != "" {
        sub(/^[[:space:]]*run:[[:space:]]*/, ""); print name "\t" $0; name = ""
    }
' "$workflow")

n=0
failed=0
while IFS=$'\t' read -r name cmd; do
    n=$((n + 1))
    start=$EPOCHREALTIME
    if bash -c "$cmd" >"$logs/$n.log" 2>&1 </dev/null; then
        verdict=PASS
    else
        verdict=FAIL
        failed=$((failed + 1))
    fi
    secs=$(awk -v a="$start" -v b="$EPOCHREALTIME" 'BEGIN { printf "%7.1f", b - a }')
    printf '%s %s s  %2d. %s\n' "$verdict" "$secs" "$n" "$name"
done <<<"$steps"

echo "$((n - failed)) of $n steps passed (logs in $logs/)"
[ "$failed" -eq 0 ]
