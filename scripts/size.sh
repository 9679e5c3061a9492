#!/usr/bin/env bash
# Size ledger: non-blank non-test lines of Rust per crate and per file, and
# the release `biq` binary's bytes, counted the same way every time.
#
# A line counts when it is not blank and not test code. Test code is every
# file under a `tests/` directory and every item a `#[cfg(test)]` attribute
# opens (a `mod tests { … }` to its closing brace, or a one-line `use`).
# Comments and doc comments count. The crate of a file is its
# `crates/<name>` directory, `benchmark` for the benchmark package, and
# `root` for the umbrella package (`src/`, `examples/`).
#
# Usage: scripts/size.sh [--no-bin] [rev]
#          one table for `rev` (default: the working tree)
#        scripts/size.sh [--no-bin] --diff <rev>
#          `rev` → the working tree: per crate, then every file whose
#          count moved, then the binary
#   --no-bin  skip the release build of `biq` (the byte count prints as -)
set -euo pipefail

cd "$(dirname "$0")/.."
repo=$PWD
bin=1
diff_rev=
rev=
while [ $# -gt 0 ]; do
    case $1 in
        --no-bin) bin=0 ;;
        --diff) diff_rev=${2:?--diff needs a revision}; shift ;;
        -h|--help) sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//'; exit 0 ;;
        *) rev=$1 ;;
    esac
    shift
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Prints `<path> <lines>` for every counted file of the tree in $1.
count_tree() {
    (cd "$1" && find crates src examples benchmark -name '*.rs' \
        -not -path '*/target/*' -not -path '*/tests/*' 2>/dev/null | sort |
        while read -r f; do
            awk -v f="$f" '
                function strip(s) {
                    gsub(/"([^"\\]|\\.)*"/, "\"\"", s)
                    gsub(/'\''([^'\''\\]|\\.)'\''/, "x", s)
                    sub(/\/\/.*/, "", s)
                    return s
                }
                # A #[cfg(test)] item: skip it to the brace that closes it.
                /^[ \t]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; sub(/^[ \t]*#\[cfg\(test\)\]/, "") }
                skip {
                    s = strip($0)
                    o = gsub(/\{/, "{", s); c = gsub(/\}/, "}", s)
                    depth += o - c
                    if (o > 0) opened = 1
                    if ((opened && depth <= 0) || (!opened && s ~ /;/)) skip = 0
                    next
                }
                /[^ \t\r]/ { n++ }
                END { print f, n + 0 }
            ' "$f"
        done)
}

# Release `biq` bytes of the tree in $1 (built in $2), or `-`.
bin_bytes() {
    if [ "$bin" = 0 ]; then echo -; return; fi
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo build --release -q -p biq_cli >&2) || { echo -; return; }
    stat -c %s "$2/release/biq"
}

# Checks out `rev` into $tmp/<dir> and prints its path.
export_rev() {
    mkdir -p "$tmp/$2"
    git -C "$repo" archive "$1" | tar -x -C "$tmp/$2"
    [ -f "$tmp/$2/Cargo.lock" ] || cp "$repo/Cargo.lock" "$tmp/$2/" 2>/dev/null || true
    echo "$tmp/$2"
}

# Sums `<path> <lines>` rows into `<crate> <lines>` rows.
by_crate() {
    awk '{
        split($1, p, "/")
        c = (p[1] == "crates") ? p[1] "/" p[2] : (p[1] == "benchmark") ? "benchmark" : "root"
        sum[c] += $2; total += $2
    } END { for (c in sum) print c, sum[c] | "sort"; close("sort"); print "total", total }' "$1"
}

if [ -z "$diff_rev" ]; then
    if [ -n "$rev" ]; then tree=$(export_rev "$rev" rev-tree); target=$tmp/target; else tree=$repo; target=$repo/target; fi
    count_tree "$tree" > "$tmp/files"
    printf '%-48s %8s\n' crate lines
    by_crate "$tmp/files" | awk '{ printf "%-48s %8d\n", $1, $2 }'
    echo
    printf '%-48s %8s\n' file lines
    awk '{ printf "%-48s %8d\n", $1, $2 }' "$tmp/files"
    echo
    printf '%-48s %8s\n' 'release biq bytes' "$(bin_bytes "$tree" "$target")"
    exit 0
fi

before=$(export_rev "$diff_rev" rev-tree)
count_tree "$before" > "$tmp/before"
count_tree "$repo" > "$tmp/after"
by_crate "$tmp/before" > "$tmp/before.crates"
by_crate "$tmp/after" > "$tmp/after.crates"

# Joins two `<key> <n>` lists (a key missing on one side reads 0) and prints
# the rows whose counts differ, or every row with `all`.
table() {
    awk -v all="$3" '
        FNR == NR { b[$1] = $2; keys[$1] = 1; next }
        { a[$1] = $2; keys[$1] = 1 }
        END {
            for (k in keys) if (all || b[k] + 0 != a[k] + 0)
                printf "%-48s %8d %8d %+8d\n", k, b[k], a[k], a[k] - b[k] | "sort"
            close("sort")
        }' "$1" "$2"
}

printf '%-48s %8s %8s %8s\n' crate before after delta
table "$tmp/before.crates" "$tmp/after.crates" 1 | grep -v '^total ' || true
table "$tmp/before.crates" "$tmp/after.crates" 1 | grep '^total ' || true
echo
printf '%-48s %8s %8s %8s\n' 'file (changed only)' before after delta
table "$tmp/before" "$tmp/after" '' || true
echo
b_bytes=$(bin_bytes "$before" "$tmp/target")
a_bytes=$(bin_bytes "$repo" "$repo/target")
if [ "$b_bytes" = - ] || [ "$a_bytes" = - ]; then
    printf '%-48s %8s %8s\n' 'release biq bytes' "$b_bytes" "$a_bytes"
else
    printf '%-48s %8d %8d %+8d\n' 'release biq bytes' "$b_bytes" "$a_bytes" $((a_bytes - b_bytes))
fi
