#!/usr/bin/env bash
# Keep library code that no shipped program reaches out of src/.
#
# Every function whose definition starts a line of a src/**/*.cc file
# (its name, or a return type before it, at column 0; destructors and
# operators aside) must be reached: after comments
# and string and character literals are stripped, its unqualified
# name must occur
#   - in a shipped C++ file (src/, tools/, bench/, examples/,
#     perfbench/src/) other than its own .cc and .hh, or
#   - more than once in its own .cc, or more than once in its own .hh.
# A function that tests alone call fails unless it is on the allowlist
# below, with the reason it stays in the library.
#
# The check is by name, so a function that shares its name with
# another one (size, find, str) passes; it keeps new dead code out,
# it does not prove old code live.
#
# Usage: tools/lint_src_unreached.sh [repo_dir]
#        (repo_dir defaults to the repository holding this script)
set -euo pipefail

repo=${1:-$(cd "$(dirname "$0")/.." && pwd)}

# name|reason: functions kept for what only a test observes.
allowlist=(
    "jsonParse|builds the JsonValue tree that the reference decoders in tests/support/tree_decoders.cc walk (RpcProtocol.DecodersAgreeWithTreeReference)"
)

cd "$repo"
files=()
while IFS= read -r -d '' f; do
    files+=("$f")
done < <(find src tools bench examples perfbench/src -type f \
             \( -name '*.cc' -o -name '*.hh' -o -name '*.cpp' \
                -o -name '*.h' \) -print0 2>/dev/null | sort -z)

allow=$(printf '%s\n' "${allowlist[@]}")

awk -v allow="$allow" '
BEGIN {
    q = sprintf("%c", 39)
    # A character literal: an escape and what follows it up to the
    # closing quote, or one plain character.
    charlit = q "(\\\\.[^" q "]*|[^" q "\\\\])" q
}
FNR == 1 { inblock = 0 }
{
    line = $0
    # A definition in a .cc under src/: a (qualified) name and "(" at
    # column 0, or after a return type that starts there (a destructor
    # or an operator does not match).
    if (FILENAME ~ /^src\/.*\.cc$/ &&
        match(line, /^([A-Za-z_][A-Za-z0-9_:<>,]*[ *&]+)*[A-Za-z_][A-Za-z0-9_:]*\(/)) {
        name = substr(line, 1, RLENGTH - 1)
        sub(/.*[ *&]/, "", name)
        sub(/.*::/, "", name)
        if (name != "operator" && !((name, FILENAME) in defs)) {
            defs[name, FILENAME] = 1
            ndefs++
            def_name[ndefs] = name
            def_file[ndefs] = FILENAME
            def_line[ndefs] = FNR
        }
    }
    # Character literals first (a quote inside one opens no string),
    # then strings, then comments.
    gsub(charlit, "0", line)
    gsub(/"([^"\\]|\\.)*"/, "0", line)
    code = ""
    while (line != "") {
        if (inblock) {
            p = index(line, "*/")
            if (!p) {
                line = ""
                break
            }
            line = substr(line, p + 2)
            inblock = 0
            continue
        }
        p1 = index(line, "/*")
        p2 = index(line, "//")
        if (p2 && (!p1 || p2 < p1)) {
            code = code substr(line, 1, p2 - 1)
            break
        }
        if (p1) {
            code = code substr(line, 1, p1 - 1) " "
            line = substr(line, p1 + 2)
            inblock = 1
            continue
        }
        code = code line
        line = ""
    }
    gsub(/[^A-Za-z0-9_]+/, " ", code)
    n = split(code, words, " ")
    for (i = 1; i <= n; i++) {
        count[words[i], FILENAME]++
        total[words[i]]++
    }
}
END {
    na = split(allow, rows, "\n")
    for (i = 1; i <= na; i++) {
        if (rows[i] == "")
            continue
        split(rows[i], parts, "|")
        allowed[parts[1]] = 1
    }
    status = 0
    for (d = 1; d <= ndefs; d++) {
        name = def_name[d]
        cc = def_file[d]
        hh = cc
        sub(/\.cc$/, ".hh", hh)
        in_cc = count[name, cc] + 0
        in_hh = count[name, hh] + 0
        defined[name] = 1
        if (total[name] - in_cc - in_hh > 0 || in_cc > 1 || in_hh > 1)
            continue
        if (name in allowed)
            continue
        printf "error: %s:%d: %s is reached by no shipped program\n",
               cc, def_line[d], name > "/dev/stderr"
        status = 1
    }
    for (name in allowed) {
        if (!(name in defined)) {
            printf "error: allowlisted %s is not defined in src/\n",
                   name > "/dev/stderr"
            status = 1
        }
    }
    if (status == 0)
        printf "src/ defines no function that only tests reach (%d checked)\n", ndefs
    exit status
}
' "${files[@]}"
