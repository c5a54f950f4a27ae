#!/usr/bin/env bash
# Pre-PR gate: everything CI runs, in one command.
#
#   $ scripts/check.sh
#
# Runs from the repo root regardless of the invocation directory.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The root `cargo test` runs only the root package. Every member crate's
# unit tests and proptests (the OPM, HGD and search-tree suites sit
# directly on the coin tape) and rsse-core's integration suites run here.
echo "==> cargo test -q --workspace"
cargo test -q --workspace

# Named again so a filtered local run cannot skip them: the crypto
# crate's FIPS-197 / SP 800-38A and RFC 4231 / 2202 vectors, its
# known-answer pins, the proptests holding the T-table AES rounds and the
# keyed HMAC state equal to their spec forms, and the zero-allocation pin
# of the HMAC and tape paths.
echo "==> cargo test -q -p rsse-crypto"
cargo test -q -p rsse-crypto

# The serving-path hardening suites, named explicitly so a filtered local
# run cannot silently skip them: codec fuzzing (decode never panics, never
# over-allocates) and pool fault injection (contained panics, deadlines,
# overload shedding).
echo "==> cargo test -q -p rsse-cloud --test codec_fuzz --test decode_alloc"
cargo test -q -p rsse-cloud --test codec_fuzz --test decode_alloc

# Repeated: these suites time overload sheds, deadlines, and socket
# interleavings (the worker pool's faults and stress, the TCP event
# loop), so a single green run could hide a flake.
for run in $(seq 1 10); do
    echo "==> cargo test -q --test pool_faults --test pool_stress (run $run/10)"
    cargo test -q --test pool_faults --test pool_stress
    echo "==> cargo test -q -p rsse-cloud --test tcp_transport (run $run/10)"
    cargo test -q -p rsse-cloud --test tcp_transport
done

# The sharding layer's tentpole guarantees: scatter-gather ranking is
# byte-identical to the single-server search for shard counts 1-8, and
# tuned routing (label-filter pruning, merged-result cache, replica
# reads) is byte-identical to the full scatter under interleaved updates.
echo "==> cargo test -q --test shard_equivalence"
cargo test -q --test shard_equivalence

# The ranking cache's tentpole guarantee: cache on == cache off, byte for
# byte, under interleaved updates (sharded path included) — plus the
# persistence format's lossless round-trip and hostile-file rejection.
echo "==> cargo test -q --test cache_coherence"
cargo test -q --test cache_coherence

# The conjunctive serving path's tentpole guarantee: the intersection
# pushdown returns byte-identical rankings across the mem and on-disk
# generational backends, cache on vs off, and sharded vs single-node,
# under random search/update interleavings and both keyword orders.
echo "==> cargo test -q --test conjunctive"
cargo test -q --test conjunctive

echo "==> cargo test -q -p rsse-core --test persist_roundtrip"
cargo test -q -p rsse-core --test persist_roundtrip

# The storage engine's tentpole guarantee: mem and the on-disk
# generational store — compacted live and inline, the inline fold
# byte-identical to the saved index file — return byte-identical
# rankings under interleaved searches, updates, flushes, and
# compactions — cached, warm-restarted, and sharded deployments included.
echo "==> cargo test -q --test backend_equivalence"
cargo test -q --test backend_equivalence

# The storage engine's crash-consistency guarantee: the writer is killed
# at every fsync/rename boundary of a create/flush/compact plan on the
# generational store (24 boundaries), and each reopened store must land
# on exactly the pre-op or post-op rankings — never a torn state — and
# keep accepting updates. Also pins the typed
# double-compact error, epoch-based segment reclaim, and that searches
# keep being served while a live compaction is stalled mid-merge.
echo "==> cargo test -q -p rsse-core --test crash_torture"
cargo test -q -p rsse-core --test crash_torture

# The transport layer's tentpole guarantee: the real TCP event loop and
# the simulated channel transport produce byte-identical reply frames,
# rankings, and traffic reports for the same pipelined request log. The
# TCP-only guarantees — out-of-order completions re-pair by sequence id,
# a slow reader stalls only its own connection, overload sheds the
# canonical frame over TCP too — are `tcp_transport`, run 10x above.
echo "==> cargo test -q -p rsse-cloud --test transport_equivalence"
cargo test -q -p rsse-cloud --test transport_equivalence

# 512-connection loopback soak: 16 client threads, 4-deep pipelines of
# mixed search/fetch frames per connection, every reply re-paired by
# sequence id and type-checked — exits nonzero on any dropped, garbled,
# or misrouted frame. The full (non-smoke) soak runs more rounds.
echo "==> tcp_soak --smoke"
cargo run --release -q -p rsse-bench --bin tcp_soak -- --smoke

# Smoke the throughput harness end to end (tiny counts, no perf gates):
# boots every scenario including the Zipf hot_keywords cache pair, the
# batched cpu path, the generational churn pair (live compactor beside
# the pool), and the tuned sharded scenario (pruning + merged cache +
# replicas under churn), and checks the functional cache invariants.
# The full (non-smoke) run additionally gates sharded 8-shard
# throughput at >= 1.0x single-shard on the churny Zipf workload, the
# churn-compact leg at >= 0.8x the no-compaction baseline, and loopback
# TCP at 64 pipelined connections at >= 0.7x the channel transport,
# voiding the published numbers on failure.
echo "==> throughput --smoke"
cargo run --release -q -p rsse-bench --bin throughput -- --smoke

echo "==> cargo clippy --workspace --all-targets --release -- -D warnings"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> all checks passed"
