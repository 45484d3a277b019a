#!/usr/bin/env bash
# Keep two kinds of system work in one place each under src/. A
# header shares the allowance of its .cc file; comment lines are
# ignored.
#
#   threads (default): library code runs on the one shared worker pool
#     (globalPool() in src/common/thread_pool.hh), so a file that
#     constructs a ThreadPool or a std::thread fails unless it is the
#     pool itself or one of the two owners of long-lived service
#     threads (the RPC server's workers and replicator, the solve
#     scheduler's runners).
#   journal: durable files go through src/common/journal.*, so a file
#     that calls fsync or rename fails unless it is that module.
#   json: lines are decoded straight from JsonReader's tokens, so a
#     file that names JsonValue or calls jsonParse( fails unless it is
#     the JSON module (which keeps the tree for the tests' reference
#     decoders).
#
# Usage: tools/lint_src_threads.sh [threads|journal|json] [src_dir]
#        (src_dir defaults to <repo>/src)
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
rule=${1:-threads}
src=${2:-$repo/src}

code='^[[:space:]]*([^*/[:space:]].*)?'
case $rule in
threads)
    allowed=" common/thread_pool rpc/server service/solve_scheduler "
    what="starts threads outside the shared pool"
    # A code line naming a thread object: `ThreadPool pool(...)`,
    # `ThreadPool pool_;`, `new ThreadPool`, `make_unique<ThreadPool>`,
    # or any `std::thread` / `std::jthread` other than their static
    # members (`std::thread::hardware_concurrency()`, `std::thread::id`).
    pool='\bThreadPool[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*[;({]'
    pool_new='(new|make_unique<|make_shared<)[[:space:]]*ThreadPool\b'
    thread='\bstd::j?thread\b([^:]|$)'
    pattern="$code($pool|$pool_new|$thread)"
    ok="src/ starts threads only in the allowed files"
    ;;
journal)
    allowed=" common/journal "
    what="syncs or renames files outside common/journal"
    pattern="$code\\b(fsync|rename)[[:space:]]*\\("
    ok="src/ syncs and renames files only in common/journal"
    ;;
json)
    allowed=" common/json "
    what="builds a JSON tree outside common/json"
    pattern="$code(\\bJsonValue\\b|\\bjsonParse[[:space:]]*\\()"
    ok="src/ builds JSON trees only in common/json"
    ;;
*)
    echo "usage: $0 [threads|journal|json] [src_dir]" >&2
    exit 2
    ;;
esac

status=0
while IFS= read -r hit; do
    file=${hit%%:*}
    rel=${file#"$src"/}
    if [[ $allowed == *" ${rel%.*} "* ]]; then
        continue
    fi
    echo "error: src/$rel $what:" "${hit#*:}" >&2
    status=1
done < <(grep -rnE --include='*.cc' --include='*.hh' "$pattern" "$src" ||
             true)

if [[ $status -eq 0 ]]; then
    echo "$ok"
fi
exit "$status"
