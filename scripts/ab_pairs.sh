#!/usr/bin/env bash
# Interleaved A/B of two `pgp-partition` binaries (ROADMAP: "a perf claim is
# ten interleaved single-process pairs of the two binaries, median ratio").
#
# Usage: scripts/ab_pairs.sh <parent-bin> <change-bin> <pairs> <graph> <args…>
#   e.g. scripts/ab_pairs.sh /root/scratch/parent/pgp-partition \
#            target/release/pgp-partition 10 web.metis k=8 p=2 class=social
#
# Each pair runs both binaries once on <graph> with <args…>, alternating
# which side goes first, and times the whole process (file in, partition
# file out). The two sides write separate partition files and every pair
# says whether they are byte-identical (`same` / `DIFF`, from cmp), so the
# ten pairs that show a speed also show whether the result moved. Each run's
# peak RSS is read off its closing stderr line (`wrote …; peak RSS <x> MiB`;
# `-` for a binary that predates that line), so the same pairs show memory
# too. Prints every pair, each side's median and quartiles (Python's
# exclusive method, as benchmark/src/stats.rs) of time and of peak RSS,
# wins / ties, the median of the per-pair ratios change / parent, and a last
# line `identical n / n`. A gain needs the change to win at least nine tenths
# of the pairs and the medians to differ by more than the parent's
# inter-quartile distance.

set -euo pipefail

if [ "$#" -lt 4 ]; then
    sed -n '2,21p' "$0" >&2
    exit 2
fi
parent="$1" change="$2" pairs="$3" graph="$4"
shift 4

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Seconds one run of binary $2 takes and its peak RSS in MiB (`-` if its
# closing line does not say); its partition goes to $tmp/$1.part.
time_run() {
    local side="$1" bin="$2" t0 t1
    shift 2
    t0="$EPOCHREALTIME"
    "$bin" "$graph" "$@" "output=$tmp/$side.part" >/dev/null 2>"$tmp/stderr" || {
        echo "run failed: $bin $graph $*" >&2
        cat "$tmp/stderr" >&2
        exit 1
    }
    t1="$EPOCHREALTIME"
    awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.4f ", b - a }'
    tail -n 1 "$tmp/stderr" | sed -n 's/.*peak RSS \([0-9.]*\) MiB.*/\1/p' | grep . || echo -
}

echo "pair  first   parent_s  change_s  ratio  parent_MiB  change_MiB  output"
identical=0
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        first=parent
        read -r p p_mib <<<"$(time_run parent "$parent" "$@")"
        read -r c c_mib <<<"$(time_run change "$change" "$@")"
    else
        first=change
        read -r c c_mib <<<"$(time_run change "$change" "$@")"
        read -r p p_mib <<<"$(time_run parent "$parent" "$@")"
    fi
    if cmp -s "$tmp/parent.part" "$tmp/change.part"; then
        output=same
        identical=$((identical + 1))
    else
        output=DIFF
    fi
    echo "$p $c $p_mib $c_mib" >>"$tmp/pairs"
    awk -v i="$i" -v f="$first" -v p="$p" -v c="$c" -v pm="$p_mib" -v cm="$c_mib" -v o="$output" \
        'BEGIN { printf "%4d  %-6s  %8.4f  %8.4f  %5.3f  %10s  %10s  %s\n", i, f, p, c, c / p, pm, cm, o }'
done

# Order statistics of the sorted values v[1..n].
awk '
function quantile(v, n, k,    pos, lo, frac) {   # k-th quartile, exclusive method
    pos = k * (n + 1) / 4
    if (pos < 1) pos = 1
    if (pos > n) pos = n
    lo = int(pos); frac = pos - lo
    return lo < n ? v[lo] + frac * (v[lo + 1] - v[lo]) : v[n]
}
function sort(v, n,    i, j, t) {
    for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
}
{
    n++; p[n] = $1; c[n] = $2; r[n] = $2 / $1
    if ($2 < $1) wins++; else if ($2 == $1) ties++
    if ($3 != "-" && $4 != "-") { k++; pm[k] = $3; cm[k] = $4; if ($4 < $3) lower++ }
}
END {
    sort(p, n); sort(c, n); sort(r, n)
    printf "parent: median %.4f s  quartiles %.4f .. %.4f\n", quantile(p, n, 2), quantile(p, n, 1), quantile(p, n, 3)
    printf "change: median %.4f s  quartiles %.4f .. %.4f\n", quantile(c, n, 2), quantile(c, n, 1), quantile(c, n, 3)
    printf "change wins %d of %d pairs, %d ties\n", wins, n, ties
    printf "median of per-pair ratios change/parent: %.3f\n", quantile(r, n, 2)
    printf "medians differ by %.4f s; parent inter-quartile distance %.4f s\n", \
        quantile(p, n, 2) - quantile(c, n, 2), quantile(p, n, 3) - quantile(p, n, 1)
    if (k == n) {
        sort(pm, n); sort(cm, n)
        printf "peak RSS parent: median %.1f MiB  quartiles %.1f .. %.1f\n", quantile(pm, n, 2), quantile(pm, n, 1), quantile(pm, n, 3)
        printf "peak RSS change: median %.1f MiB  quartiles %.1f .. %.1f\n", quantile(cm, n, 2), quantile(cm, n, 1), quantile(cm, n, 3)
        printf "peak RSS change/parent: %.3f of medians; change lower in %d of %d pairs\n", \
            quantile(cm, n, 2) / quantile(pm, n, 2), lower, n
    } else {
        printf "peak RSS: not printed by both binaries in every pair\n"
    }
}' "$tmp/pairs"
echo "identical $identical / $pairs"
