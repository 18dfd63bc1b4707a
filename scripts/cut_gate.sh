#!/usr/bin/env bash
# Quality gate of two `pgp-partition` binaries: the cut of a change against
# its parent over a range of seeds, with the tolerance stated up front.
#
# Usage: scripts/cut_gate.sh <parent-bin> <change-bin> <tolerance> <first-seed> <last-seed> <graph> <args…>
#   e.g. scripts/cut_gate.sh /tmp/parent/pgp-partition target/release/pgp-partition \
#            1.01 3000 3009 evo.metis k=32 p=2 preset=eco class=social
#
# Runs each binary once per seed S in <first-seed>..=<last-seed> on <graph>
# with <args…> seed=S (so <args…> name no seed), reads the cut off the
# `partitioned in …: cut = N, …` stderr line and compares the two partition
# files (`same` / `DIFF`, from cmp). Prints every seed's two cuts and their
# ratio, the geometric mean over the seeds of the ratio change / parent (a
# seed where both cuts are 0 counts as 1; one where only the parent's is 0
# makes the mean infinite), and a last line `identical n / n`.
# One binary against itself prints ratio 1.0000 and `identical n / n`.
# Exits 1 when the geometric mean is above <tolerance> (or a run fails), 2 on
# bad usage.

set -euo pipefail

usage() {
    sed -n '2,18p' "$0" >&2
    exit 2
}
[ "$#" -ge 6 ] || usage
parent="$1" change="$2" tolerance="$3" first="$4" last="$5" graph="$6"
shift 6
[[ "$tolerance" =~ ^[0-9]+(\.[0-9]+)?$ ]] || usage
[[ "$first" =~ ^[0-9]+$ && "$last" =~ ^[0-9]+$ ]] || usage
first=$((10#$first)) last=$((10#$last))
((first <= last)) || usage

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The cut one run of binary $2 at seed $3 prints; its partition goes to
# $tmp/$1.part.
cut_of() {
    local side="$1" bin="$2" seed="$3"
    shift 3
    "$bin" "$graph" "$@" "seed=$seed" "output=$tmp/$side.part" >/dev/null 2>"$tmp/stderr" || {
        echo "run failed: $bin $graph $* seed=$seed" >&2
        cat "$tmp/stderr" >&2
        exit 1
    }
    sed -n 's/.*: cut = \([0-9]*\),.*/\1/p' "$tmp/stderr" | grep . || {
        echo "no 'cut = N' line from $bin" >&2
        exit 1
    }
}

echo "seed  parent_cut  change_cut  ratio  output"
identical=0
for ((s = first; s <= last; s++)); do
    p="$(cut_of parent "$parent" "$s" "$@")"
    c="$(cut_of change "$change" "$s" "$@")"
    if cmp -s "$tmp/parent.part" "$tmp/change.part"; then
        output=same
        identical=$((identical + 1))
    else
        output=DIFF
    fi
    echo "$p $c" >>"$tmp/cuts"
    awk -v s="$s" -v p="$p" -v c="$c" -v o="$output" 'BEGIN {
        r = p > 0 ? sprintf("%.4f", c / p) : (c > 0 ? "inf" : "1.0000")
        printf "%4s  %10s  %10s  %6s  %s\n", s, p, c, r, o
    }'
done

status=0
awk -v tol="$tolerance" '
{
    n++
    if ($1 > 0 && $2 > 0) logs += log($2 / $1)
    else if ($2 > 0) worse = 1    # a zero parent cut the change does not keep
    else if ($1 > 0) better = 1   # the change reaches a zero cut
}
END {
    g = worse ? "inf" : (better ? 0 : exp(logs / n))
    printf "geometric mean of cut ratios change/parent over %d seeds: %s (tolerance %s)\n", \
        n, g == "inf" ? g : sprintf("%.4f", g), tol
    exit (g == "inf" || g > tol + 0) ? 1 : 0
}' "$tmp/cuts" || status=1
echo "identical $identical / $((last - first + 1))"
exit "$status"
