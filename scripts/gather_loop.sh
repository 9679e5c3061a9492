#!/usr/bin/env bash
# Inspects the b = 1 query's hot loop in a release binary: the innermost
# loop of the AVX2 width-1 gather that holds two `vgatherdps` and two byte
# key loads (`vpmovzxbd`) and no prefetch — the row-paired chain of the
# u8-key monomorph (the chain's only form for byte keys). Prints, per such
# loop, its instructions per 16 lookups (two 8-lane gathers) and how many
# of them touch the stack.
#
# Exits 1 when no such loop is found or when one touches the stack (a
# spilled accumulator or offset vector: the regression this guards).
#
# Usage: scripts/gather_loop.sh <binary> [function-pattern]
#   function-pattern  an awk regex over demangled function names
#                     (default: the AVX2 level's stamps, `simd::avx2::`)
set -euo pipefail

if [ $# -lt 1 ] || [ ! -f "$1" ]; then
    echo "usage: scripts/gather_loop.sh <binary> [function-pattern]" >&2
    exit 2
fi
pattern=${2:-'simd::avx2::'}

objdump -d --no-show-raw-insn -C "$1" | awk -v pat="$pattern" '
# Every backward jump of a function closes a loop [target, jump]; an
# innermost one holds no other backward jump. Report the innermost loops
# of the shape above and set the exit status.
function hex(s,   v, i) {
    v = 0
    for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return v
}
function flush(   i, j, n, gathers, keys, pf, stack, inner) {
    if (fn !~ pat) { ninsn = 0; return }
    for (i = 1; i <= ninsn; i++) {
        if (op[i] !~ /^j/ || target[i] == "" || target[i] >= addr[i]) continue
        n = gathers = keys = pf = stack = inner = 0
        for (j = 1; j <= i; j++) {
            if (addr[j] < target[i]) continue
            n++
            if (op[j] == "vgatherdps") gathers++
            if (op[j] == "vpmovzxbd") keys++
            if (op[j] ~ /^prefetch/) pf++
            if (args[j] ~ /\(%(rsp|rbp)/) stack++
            if (j < i && op[j] ~ /^j/ && target[j] != "" && target[j] < addr[j]) inner++
        }
        if (inner || gathers != 2 || keys != 2 || pf) continue
        found++
        if (stack > 0) bad++
        printf "%s: loop %x..%x: %d instructions per 16 lookups, %d stack accesses\n",
            fn, target[i], addr[i], n, stack
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
    if (bad) { print bad " loop(s) touch the stack" > "/dev/stderr"; exit 1 }
}'
