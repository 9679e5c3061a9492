#!/usr/bin/env bash
# Inspects the query's two hot loops in a release binary and prints, per
# loop found, its instruction count and how many of its instructions touch
# the stack:
#
# * the b = 1 width-1 gather: the innermost loop of the AVX2 width-1 gather
#   that holds two `vgatherdps` and two byte key loads (`vpmovzxbd`) and no
#   prefetch — the row-paired chain of the u8-key monomorph (the chain's
#   only form for byte keys), per 16 lookups (two 8-lane gathers);
# * the KeyMajor chunk loop: the innermost loop of the AVX2 stamp's fused
#   query (`simd::avx2::fused_row`) that holds eight byte key loads
#   (`movzbl`) and at least eight ymm entry loads — the canonical tree's 8
#   accumulators over 8 chunks of the u8-key monomorph, per 8 lookups. Its
#   entry loads are whole vectors over the padded entry stride, so it must
#   hold no `vmaskmovps`.
#
# Exits 1 when either loop is missing, when one touches the stack (a
# spilled accumulator, offset vector or table offset: the regression this
# guards), or when the KeyMajor loop holds a masked load.
#
# Usage: scripts/gather_loop.sh <binary> [function-pattern]
#   function-pattern  an awk regex over demangled function names for the
#                     width-1 gather (default: the AVX2 level's stamps,
#                     `simd::avx2::`)
set -euo pipefail

if [ $# -lt 1 ] || [ ! -f "$1" ]; then
    echo "usage: scripts/gather_loop.sh <binary> [function-pattern]" >&2
    exit 2
fi
pattern=${2:-'simd::avx2::'}

objdump -d --no-show-raw-insn -C "$1" | awk -v pat="$pattern" '
# Every backward jump of a function closes a loop [target, jump]; an
# innermost one holds no other backward jump. Report the innermost loops
# of the two shapes above and set the exit status.
function hex(s,   v, i) {
    v = 0
    for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return v
}
function flush(   i, j, n, gathers, keys, bytes, loads, masked, pf, stack, inner) {
    if (fn !~ pat && fn !~ /simd::avx2::fused_row/) { ninsn = 0; return }
    for (i = 1; i <= ninsn; i++) {
        if (op[i] !~ /^j/ || target[i] == "" || target[i] >= addr[i]) continue
        n = gathers = keys = bytes = loads = masked = pf = stack = inner = 0
        for (j = 1; j <= i; j++) {
            if (addr[j] < target[i]) continue
            n++
            if (op[j] == "vgatherdps") gathers++
            if (op[j] == "vpmovzxbd") keys++
            if (op[j] == "movzbl") bytes++
            # A ymm load from memory: an entry load, folded into its add
            # or not (the source operand comes first in AT&T syntax).
            if (op[j] ~ /^(vaddps|vmovups|vmovaps|vmaskmovps)$/ && args[j] ~ /^ *-?(0x[0-9a-f]+)?\(.*%ymm/) loads++
            if (op[j] == "vmaskmovps" && args[j] ~ /^ *-?(0x[0-9a-f]+)?\(/) masked++
            if (op[j] ~ /^prefetch/) pf++
            # `%rsp`-based, or `%rbp` as a frame pointer (a base with no
            # index: without frame pointers `%rbp` is a data register).
            if (args[j] ~ /\(%rsp|\(%rbp\)/) stack++
            if (j < i && op[j] ~ /^j/ && target[j] != "" && target[j] < addr[j]) inner++
        }
        if (inner) continue
        if (fn ~ pat && gathers == 2 && keys == 2 && !pf) {
            found++
            if (stack > 0) bad++
            printf "%s: loop %x..%x: %d instructions per 16 lookups, %d stack accesses\n",
                fn, target[i], addr[i], n, stack
        } else if (fn ~ /simd::avx2::fused_row/ && bytes == 8 && loads >= 8) {
            kfound++
            if (stack > 0 || masked > 0) kbad++
            printf "%s: KeyMajor loop %x..%x: %d instructions per 8 lookups, %d masked loads, %d stack accesses\n",
                fn, target[i], addr[i], n, masked, stack
        }
    }
    ninsn = 0
}
/^[0-9a-f]+ <.*>:$/ {
    flush()
    fn = $0
    sub(/^[0-9a-f]+ </, "", fn)
    sub(/>:$/, "", fn)
    next
}
/^ +[0-9a-f]+:\t/ {
    line = $0
    sub(/^ +/, "", line)
    split(line, part, "\t")
    a = part[1]
    sub(/:$/, "", a)
    ninsn++
    addr[ninsn] = hex(a)
    split(part[2], w, " ")
    op[ninsn] = w[1]
    args[ninsn] = substr(part[2], length(w[1]) + 1)
    target[ninsn] = ""
    if (w[1] ~ /^j/ && w[2] ~ /^[0-9a-f]+$/) target[ninsn] = hex(w[2])
}
END {
    flush()
    if (!found) { print "no paired u8 gather loop found" > "/dev/stderr"; exit 1 }
    if (bad) { print bad " gather loop(s) touch the stack" > "/dev/stderr"; exit 1 }
    if (!kfound) { print "no u8 KeyMajor chunk loop found" > "/dev/stderr"; exit 1 }
    if (kbad) {
        print kbad " KeyMajor loop(s) hold a masked load or touch the stack" > "/dev/stderr"
        exit 1
    }
}'
