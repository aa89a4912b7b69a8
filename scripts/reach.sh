#!/bin/sh
# Library code that nothing built from this repository runs, gated by
# a keep-list:
#
#   sh scripts/reach.sh
#
# Builds every cmd/*, every examples/* and the benchmark SUT (bench/)
# with inlining off (-gcflags=all=-l), so every function a binary can
# call is a symbol of its own, and reads their symbols with go tool nm.
# Then prints each non-test top-level func and method under internal/
# and of the root package (the facade) that no binary contains, as
# file:line, its line count and its name, and a total. Methods match
# whatever their receiver, pointer or value; generic functions and
# methods match by the name before their type arguments, so any
# instantiation counts. Tests are not binaries here: code that only
# tests reach is listed.
#
# A second list, after a blank line, does the same for options: each
# exported field of an exported struct named …Options under internal/
# that no non-test cmd/*, examples/* or bench/*.go file sets by name — as
# a composite-literal key (Field:) or an assignment (.Field =) — as
# file:line and Struct.Field, and a total. The match is by field name
# alone, so a field set on one struct counts as set on every struct
# with a field of that name.
#
# Every row of both lists must be named in scripts/reach.keep with the
# reason it stays (the file's header gives the format and the four
# reasons). The script exits 1, naming each one on stderr, when a row or
# field is printed that the list does not name, when an entry names
# nothing printed (stale: delete the entry) and when an entry's reason is
# not one of the four; otherwise it exits 0.
#
# Needs go, sh and a POSIX awk; writes only to a temporary directory it
# removes.
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/cmd" "$tmp/examples"
export GOTOOLCHAIN=local
go build -gcflags=all=-l -o "$tmp/cmd/" ./cmd/...
go build -gcflags=all=-l -o "$tmp/examples/" ./examples/...
go build -C bench -gcflags=all=-l -o "$tmp/dkf-e2e" .

# Reached names, normalized: type arguments, "(*", ")" and a method
# value's "-fm" dropped, so streamkf/internal/mat.(*Matrix).Clone reads
# streamkf/internal/mat.Matrix.Clone.
for b in "$tmp"/cmd/* "$tmp"/examples/* "$tmp/dkf-e2e"; do
    go tool nm "$b"
done | awk '
{
    s = $0
    sub(/^ *[0-9a-f]* +[A-Za-z] +/, "", s)
    if (s !~ /^streamkf[.\/]/) next
    out = ""; depth = 0
    for (i = 1; i <= length(s); i++) {
        c = substr(s, i, 1)
        if (c == "[") depth++
        else if (c == "]") depth--
        else if (depth == 0 && c != "(" && c != ")" && c != "*") out = out c
    }
    sub(/-fm$/, "", out)
    print out
}' | sort -u >"$tmp/reached"

# Declared names in the same form, with their extent: a func ends at the
# line that closes it at column 0, or on its own line when it is one.
{
    find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*'
    find . -maxdepth 1 -name '*.go' ! -name '*_test.go'
} | sed 's|^\./||' | sort | xargs awk '
function flush() {
    if (name != "") printf "%s %s:%d %d\n", pkg "." name, FILENAME, start, FNR - start + 1
    name = ""
}
FNR == 1 {
    name = ""; dir = FILENAME; sub(/\/?[^\/]*$/, "", dir)
    pkg = dir == "" ? "streamkf" : "streamkf/" dir
}
/^func / {
    s = $0; sub(/^func /, "", s); recv = ""
    if (s ~ /^\(/) {
        r = s; sub(/\).*/, "", r); sub(/^\(/, "", r)
        n = split(r, parts, " "); recv = parts[n]
        gsub(/[*]/, "", recv); sub(/\[.*/, "", recv)
        sub(/^\([^)]*\) */, "", s)
    }
    sub(/[[(].*/, "", s)
    if (s == "init" || s == "main") next
    name = (recv != "" ? recv "." : "") s; start = FNR
    if ($0 ~ /}[ \t]*(\/\/.*)?$/) flush()
    next
}
/^}/ { flush() }' >"$tmp/declared"

# Each printed row's key, "<package dir> <name>", goes to keys.
: >"$tmp/keys"
awk -v keys="$tmp/keys" 'NR == FNR { reached[$1] = 1; next }
!($1 in reached) {
    name = $1; sub(/^streamkf(\/[^.]*)?\./, "", name)
    printf "%-44s %5d  %s\n", $2, $3, name
    dir = $2; sub(/\/?[^\/]*$/, "", dir)
    print (dir == "" ? "." : dir), name >>keys
    total += $3; n++
}
END { printf "%-44s %5d  (%d funcs)\n", "total", total, n }' "$tmp/reached" "$tmp/declared"

# Names the binaries' sources set: Field: keys and .Field = assignments.
echo
{
    find cmd examples -name '*.go' ! -name '*_test.go'
    find bench -maxdepth 1 -name '*.go' ! -name '*_test.go'
} | sort | xargs cat | awk '
{
    s = " " $0
    while (match(s, /[^A-Za-z0-9_.][A-Z][A-Za-z0-9_]*:/)) {
        print substr(s, RSTART + 1, RLENGTH - 2)
        s = substr(s, RSTART + RLENGTH)
    }
    s = $0
    while (match(s, /\.[A-Z][A-Za-z0-9_]* *=/)) {
        t = substr(s, RSTART + 1, RLENGTH - 2)
        s = substr(s, RSTART + RLENGTH)
        if (substr(s, 1, 1) != "=") { sub(/ *$/, "", t); print t }
    }
}' | sort -u >"$tmp/set"

# Declared option fields: file:line, struct, field.
find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | sort | xargs awk '
FNR == 1 { st = "" }
/^type ([A-Z][A-Za-z0-9_]*)?Options struct [{]/ { st = $2; next }
st != "" && /^}/ { st = ""; next }
st != "" && match($0, /^\t[A-Z][A-Za-z0-9_]*(, *[A-Z][A-Za-z0-9_]*)* /) {
    n = split(substr($0, 2, RLENGTH - 2), names, /, */)
    for (i = 1; i <= n; i++) printf "%s:%d %s %s\n", FILENAME, FNR, st, names[i]
}' >"$tmp/fields"

awk -v keys="$tmp/keys" 'NR == FNR { set[$1] = 1; next }
!($3 in set) {
    printf "%-44s  %s.%s\n", $1, $2, $3; n++
    dir = $1; sub(/\/[^\/]*$/, "", dir)
    print dir, $2 "." $3 >>keys
}
END { printf "%-44s  (%d fields)\n", "total", n }' "$tmp/set" "$tmp/fields"

# The gate: each printed key against scripts/reach.keep.
awk -v keys="$tmp/keys" 'FILENAME == keys { printed[$0] = 1; next }
/^[ \t]*(#|$)/ { next }
{
    k = $1 " " $2
    if ($3 !~ /^\([abcd]\)$/)
        printf "scripts/reach.keep:%d: %s: reason is not (a), (b), (c) or (d)\n", FNR, k
    if (k in kept)
        printf "scripts/reach.keep:%d: %s: listed twice\n", FNR, k
    else if (!(k in printed))
        printf "scripts/reach.keep:%d: %s: stale, nothing of that name is printed\n", FNR, k
    kept[k] = 1
}
END {
    for (k in printed)
        if (!(k in kept)) printf "reach: %s: not in scripts/reach.keep; delete it or add it with its reason\n", k
}' "$tmp/keys" scripts/reach.keep | sort >"$tmp/verdict"
if [ -s "$tmp/verdict" ]; then
    cat "$tmp/verdict" >&2
    exit 1
fi
