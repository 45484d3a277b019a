#!/usr/bin/env bash
# Keep library code on the one shared worker pool (globalPool() in
# src/common/thread_pool.hh): fail when a file under src/ constructs a
# ThreadPool or a std::thread, unless it is the pool itself or one of
# the two owners of long-lived service threads (the RPC server's
# workers and replicator, the solve scheduler's runners). A header
# shares the allowance of its .cc file. Comment lines are ignored.
#
# Usage: tools/lint_src_threads.sh [src_dir]   (default: <repo>/src)
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
src=${1:-$repo/src}
allowed=" common/thread_pool rpc/server service/solve_scheduler "

# A code line naming a thread object: `ThreadPool pool(...)`,
# `ThreadPool pool_;`, `new ThreadPool`, `make_unique<ThreadPool>`,
# or any `std::thread` / `std::jthread` other than their static
# members (`std::thread::hardware_concurrency()`, `std::thread::id`).
code='^[[:space:]]*([^*/[:space:]].*)?'
pool='\bThreadPool[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*[;({]'
pool_new='(new|make_unique<|make_shared<)[[:space:]]*ThreadPool\b'
thread='\bstd::j?thread\b([^:]|$)'

status=0
while IFS= read -r hit; do
    file=${hit%%:*}
    rel=${file#"$src"/}
    if [[ $allowed == *" ${rel%.*} "* ]]; then
        continue
    fi
    echo "error: src/$rel starts threads outside the shared pool:" \
         "${hit#*:}" >&2
    status=1
done < <(grep -rnE --include='*.cc' --include='*.hh' \
             "$code($pool|$pool_new|$thread)" "$src" || true)

if [[ $status -eq 0 ]]; then
    echo "src/ starts threads only in the allowed files"
fi
exit "$status"
