#!/usr/bin/env bash
# One command for the whole benchmark: builds the program and the
# benchmark in release mode, then runs it. See README.md beside this
# file, or `run.sh --help`.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo_dir="$(dirname "$bench_dir")"

# No execution-policy variable may leak into a measurement: a stray
# BGPSIM_CACHE_DIR turns the second sweep into 805 cache hits.
for name in $(compgen -e); do
    case "$name" in BGPSIM_*) unset "$name" ;; esac
done

# Both builds share one target directory, so the benchmark finds the
# `bgpsim` worker binary beside itself. A relative CARGO_TARGET_DIR
# means "inside the checkout", whichever directory cargo runs from.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$repo_dir/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Cargo's progress goes to stderr; stdout stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path "$repo_dir/Cargo.toml" --bin bgpsim >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2

export BENCH_DIR="$bench_dir"
export BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export BENCH_COMMIT="$(git -C "$repo_dir" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$target/release/bgpsim-benchmark" "$@"
