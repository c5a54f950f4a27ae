//! What the benchmark runs and reports: the corpus, the four workloads
//! with their offered rates and latency limits, the metric names, and the
//! per-layer → end-to-end predictions. `BENCHMARK.json` at the repository
//! root lists the same workloads and metrics; a test keeps them in step.

use rsse_ir::corpus::CorpusParams;
use std::time::Duration;

/// Name of the shared corpus.
pub const CORPUS: &str = "paper_1000_v500";

/// `CorpusParams::paper_1000(seed)` with a 500-term background
/// vocabulary and 150-token mean documents: 1000 files, "network" in every
/// one (the 1000-entry Fig. 8 list, so ν = 1000), M = 128, |R| = 2^46.
/// Every list is padded to ν, so Setup cost scales with the number of
/// lists; 500 terms keep one outsource near 3 s, which lets every run
/// set up three times.
pub fn corpus(seed: u64) -> CorpusParams {
    let mut params = CorpusParams::paper_1000(seed);
    params.vocab_size = 500;
    params.mean_doc_len = 150;
    params
}

/// Seed of the corpus and of the documents the churn workloads add: the
/// dataset is the same in every run, and `--seed` drives the traffic (the
/// query mix and the arrival schedule), so a change in a metric between
/// seeds is the program's, not the dataset's.
pub const DATASET_SEED: u64 = 1;

/// Master secret of the benchmark's owner.
pub const MASTER_SEED: &[u8] = b"perfbench owner";

/// Setups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Worker threads of the TCP server.
pub const TCP_WORKERS: usize = 2;
/// Job backlog of the TCP server: far above anything the ladder keeps in
/// flight, so a shed means the server fell behind, not a tight queue.
pub const TCP_BACKLOG: usize = 512;
/// Requests in flight in the closed-loop phase over TCP.
pub const CLOSED_WINDOW: usize = 8;
/// Caller threads of the sharded workload (its window).
pub const SHARD_CALLERS: usize = 2;
/// Shards and replica pools per shard of the sharded workload.
pub const SHARDS: usize = 2;
/// Replica pools per shard.
pub const REPLICAS: usize = 2;

/// A phase is invalid when the generator sent its p99 request later than
/// this after its due time.
pub const LATENESS_BOUND_MS: f64 = 5.0;
/// Slack of the growing-backlog test, ms.
pub const BACKLOG_SLACK_MS: f64 = 1.0;
/// Adds sent at the end of every round of a read-only workload, one at a
/// time, for its update latency.
pub const UPDATE_PROBE_ADDS: usize = 60;
/// The churn workload starts a background compaction every this many adds.
pub const COMPACT_EVERY: usize = 100;
/// Warm-up before the first measured phase.
pub const WARMUP: Duration = Duration::from_millis(500);

/// How a workload is served and what it sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Zipf single-keyword searches, in-memory backend, over TCP.
    ZipfHot,
    /// Uniform two-keyword conjunctions, generational store, over TCP.
    ConjCold,
    /// Zipf searches with every 4th operation an add, generational store
    /// with background compaction, over TCP.
    ChurnDisk,
    /// Zipf over hot and rare terms with 1 in 8 an add, through the tuned
    /// shard router (2 shards × 2 replica pools, pruning, merged cache).
    ShardedChurn,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark.
    pub why: &'static str,
    /// What it sends and where.
    pub kind: Kind,
    /// The offered-rate ladder `r1 < r2 < r3`, req/s: about a twentieth, a
    /// sixth and a quarter of the workload's closed-loop peak on a 2-vCPU
    /// host. The host gets about one CPU while both vCPUs are busy, so
    /// higher rates measured the neighbours: their tails moved 2-10x
    /// between runs.
    pub rates: [f64; 3],
    /// Latency limit on the ladder's tail percentile, ms.
    pub p99_limit_ms: f64,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "zipf_hot",
        why: "Zipf(1.1) top-10 over the 48 hottest terms, in-memory, TCP: nearly all cache hits, so it prices the wire (codec, event loop, file gather), not crypto",
        kind: Kind::ZipfHot,
        rates: [500.0, 1500.0, 2500.0],
        p99_limit_ms: 10.0,
    },
    Workload {
        name: "conj_cold",
        why: "uniform AND pairs over the 256 hottest terms, on-disk store, TCP: the caches miss, so each request decrypts two padded 1000-entry lists and intersects them",
        kind: Kind::ConjCold,
        rates: [80.0, 250.0, 400.0],
        p99_limit_ms: 25.0,
    },
    Workload {
        name: "churn_disk",
        why: "Zipf searches with every 4th op a document add, on-disk store with background compaction, TCP: writes invalidate hot lists, so read gains that cost writes show",
        kind: Kind::ChurnDisk,
        rates: [120.0, 400.0, 650.0],
        p99_limit_ms: 20.0,
    },
    Workload {
        name: "sharded_churn",
        why: "hot and rare terms with 1 in 8 ops an add, 2 callers through the tuned shard router (2 shards x 2 replicas): the only path through scatter, merge and pruning",
        kind: Kind::ShardedChurn,
        rates: [250.0, 800.0, 1300.0],
        p99_limit_ms: 20.0,
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The workloads `BENCHMARK.json` lists. `churn_disk` and `sharded_churn`
/// stay runnable, but their sub-millisecond latencies doubled whenever the
/// shared host was contended, and their spreads over ten runs reached
/// 0.3-1.9 against bounds of 0.25; the layers only they reach are covered
/// by the layer probes below.
pub const BENCHMARKED: [&str; 2] = ["zipf_hot", "conj_cold"];

/// Layer probes: the traced run of the first workload also runs a short
/// traced run of the second and takes these per-layer metrics from it, so
/// the shard router and compaction are measured although their workloads
/// are not in `BENCHMARK.json`. A probe serves one request at a time (one
/// TCP worker, one sharded caller), so an add never runs beside a search:
/// `CloudServer::apply_update` appends the postings before it ingests the
/// file, and a search between the two ranks a document whose file it
/// cannot return. Its counters (legs, pruning, compactions, invalidations)
/// do not depend on how many requests run at once.
pub const PROBES: [(&str, &str, &[&str]); 2] = [
    (
        "zipf_hot",
        "sharded_churn",
        &[
            "router.legs_per_query",
            "router.pruned_share",
            "router.merged_hit_ratio",
            "router.filter_fetches_per_update",
            "router.replica_skew",
        ],
    ),
    (
        "conj_cold",
        "churn_disk",
        &[
            "core.compactions",
            "core.compact_wall_s",
            "core.install_pause_max_ms",
            "core.compact_bytes_per_update_byte",
            "cache.invalidations_per_update",
        ],
    ),
];

/// Measured seconds of a layer probe.
pub const PROBE_SECONDS: u64 = 6;

/// An end-to-end metric: name, unit, whether higher is better, bound.
pub type E2e = (&'static str, &'static str, bool, f64);

/// End-to-end metrics, printed by every untraced run, with the share by
/// which each may worsen. They are costs in CPU time, which leaves out the
/// time the hypervisor gives the vCPU to other guests (see `cpu.rs`):
/// - `setup_s`: CPU seconds from the generated documents to the first
///   answered query, median of `SETUP_REPS` setups;
/// - `request_cpu_us`: CPU per request of the workload's mix in process
///   (request frame through `serve_frame`, reply decoded), without the
///   sockets;
/// - `update_cpu_us`: CPU per document add in process (owner-side
///   `add_document` and file encryption, the server's apply, the ack
///   decoded).
///
/// The two per-operation costs are divided by a calibration timed beside
/// every batch, so the host's speed, which drifts by ±25% from second to
/// second on a shared VM, cancels out. On such a host the wall-clock
/// latencies and rates spread by 0.2-2.5 of their median between runs of
/// the same binary, past any bound the benchmark may set: they are
/// reported (`REPORTED`) but not bounded. `error_rate` is 0 at this
/// commit, and a metric that reads 0 has no median to bound a change
/// against, so it is carried by the result's `attempted`/`failed` counts
/// (and printed with the human-readable table) instead of listed here.
pub const END_TO_END: [E2e; 5] = [
    ("setup_s", "s", false, 0.25),
    ("request_cpu_us", "us", false, 0.25),
    ("update_cpu_us", "us", false, 0.25),
    ("wire_bytes_per_op", "count", false, 0.1),
    ("peak_rss_mb", "MB", false, 0.25),
];

/// Metrics of an untraced run that are printed on standard error and
/// kept in the detailed report, but not in the result line: the wall-clock
/// latencies and rates over TCP, and the program's CPU per request at the
/// closed-loop peak over TCP, which falls when a contended host batches
/// more requests per wake-up. Latency percentiles are the lower quartile
/// over the rounds, rates the median.
pub const REPORTED: [(&str, &str); 13] = [
    ("tcp_cpu_us_per_op.peak", "us"),
    ("p50_ms.r1", "ms"),
    ("p99_ms.r1", "ms"),
    ("p50_ms.r2", "ms"),
    ("p99_ms.r2", "ms"),
    ("p50_ms.r3", "ms"),
    ("p99_ms.r3", "ms"),
    ("max_ok_rps", "1/s"),
    ("peak_rps", "1/s"),
    ("p50_ms.peak", "ms"),
    ("p99_ms.peak", "ms"),
    ("update_p50_ms", "ms"),
    ("update_p99_ms", "ms"),
];

/// A per-layer metric: name, unit, whether higher is better.
pub type Layer = (&'static str, &'static str, bool);

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not reach reads 0 there (compaction outside `conj_cold`'s churn
/// probe, the router outside `zipf_hot`'s sharded probe, the conjunctive
/// search outside `conj_cold`).
pub const PER_LAYER: [Layer; 50] = [
    ("crypto.aes_block_ns", "ns", false),
    ("crypto.entry_decrypt_ns", "ns", false),
    ("crypto.tape_new_ns", "ns", false),
    ("crypto.file_decrypt_us", "us", false),
    ("hgd.hygeinv_us", "us", false),
    ("opse.opm_encrypt_us", "us", false),
    ("opse.opm_ops", "count", false),
    ("ir.index_build_s", "s", false),
    ("sse.basic_build_s", "s", false),
    ("core.build_index_s", "s", false),
    ("core.build_raw_s", "s", false),
    ("core.segment_write_s", "s", false),
    ("core.update_us", "us", false),
    ("core.search_us", "us", false),
    ("core.conj_search_us", "us", false),
    ("core.conj_entries_per_result", "count", false),
    ("core.compactions", "count", false),
    ("core.compact_wall_s", "s", false),
    ("core.install_pause_max_ms", "ms", false),
    ("core.compact_bytes_per_update_byte", "ratio", false),
    ("codec.encode_us.reply", "us", false),
    ("codec.decode_us.reply", "us", false),
    ("codec.reply_bytes", "count", false),
    ("cache.hit_ratio", "ratio", true),
    ("cache.conj_hit_ratio", "ratio", true),
    ("cache.invalidations_per_update", "count", false),
    ("server.serve_us.hit", "us", false),
    ("server.serve_us.miss", "us", false),
    ("tcp.overhead_us", "us", false),
    ("tcp.overloaded", "count", false),
    ("tcp.backpressure_stalls", "count", false),
    ("router.legs_per_query", "count", false),
    ("router.pruned_share", "ratio", true),
    ("router.merged_hit_ratio", "ratio", true),
    ("router.filter_fetches_per_update", "count", false),
    ("router.replica_skew", "ratio", false),
    ("client.trapdoor_us", "us", false),
    ("client.decrypt_us", "us", false),
    ("loadgen.lateness_p99_ms", "ms", false),
    ("trace.overhead_p50_ms", "ms", false),
    ("self_us.request", "us", false),
    ("self_us.loadgen", "us", false),
    ("self_us.owner", "us", false),
    ("self_us.codec", "us", false),
    ("self_us.wire", "us", false),
    ("self_us.router", "us", false),
    ("self_us.server", "us", false),
    ("self_us.check", "us", false),
    ("server.replayed", "count", true),
    ("loadgen.late_phases", "count", false),
];

/// Per-layer → end-to-end predictions: layer metrics, the end-to-end
/// metrics and workloads they should move, and where they should stay
/// flat. Predictions on `churn_disk` or `sharded_churn` end to end need
/// those workloads run by name; `BENCHMARK.json` sees their layers through
/// the layer probes only.
pub const PREDICTIONS: [(&str, &str, &str); 13] = [
    (
        "crypto.aes_block_ns crypto.entry_decrypt_ns",
        "request_cpu_us on conj_cold; setup_s on all (reported: p50_ms.r*, max_ok_rps, peak_rps on conj_cold)",
        "request_cpu_us on zipf_hot",
    ),
    (
        "crypto.tape_new_ns crypto.file_decrypt_us",
        "setup_s, update_cpu_us on all (reported: update_p50_ms)",
        "request_cpu_us on zipf_hot",
    ),
    (
        "hgd.hygeinv_us opse.opm_encrypt_us opse.opm_ops",
        "setup_s, update_cpu_us on all (reported: update_p50_ms)",
        "request_cpu_us",
    ),
    ("ir.index_build_s sse.basic_build_s", "setup_s on all", "request_cpu_us, update_cpu_us"),
    (
        "core.build_index_s core.build_raw_s core.segment_write_s core.update_us",
        "setup_s on all (segment write: conj_cold, churn_disk); update_cpu_us on all",
        "request_cpu_us on zipf_hot",
    ),
    (
        "core.search_us core.conj_search_us core.conj_entries_per_result",
        "request_cpu_us on conj_cold (reported: p50_ms.* on conj_cold, churn_disk; p50_ms.peak on sharded_churn)",
        "request_cpu_us on zipf_hot",
    ),
    (
        "core.compactions core.compact_wall_s core.install_pause_max_ms core.compact_bytes_per_update_byte",
        "reported only: p99_ms.r2/r3, update_p99_ms on churn_disk",
        "read-only workloads",
    ),
    (
        "codec.encode_us.reply codec.decode_us.reply codec.reply_bytes",
        "request_cpu_us, wire_bytes_per_op on zipf_hot (reported: p50_ms.r1, peak_rps)",
        "request_cpu_us on conj_cold",
    ),
    (
        "cache.hit_ratio cache.conj_hit_ratio cache.invalidations_per_update",
        "request_cpu_us on zipf_hot (hits); update_cpu_us on all (invalidation)",
        "request_cpu_us on conj_cold",
    ),
    (
        "server.serve_us.hit server.serve_us.miss",
        "request_cpu_us on zipf_hot (hit) and conj_cold (miss)",
        "-",
    ),
    (
        "tcp.overhead_us tcp.overloaded tcp.backpressure_stalls",
        "reported only: p50_ms.r1 on zipf_hot; max_ok_rps, p99_ms.r3 on TCP workloads",
        "request_cpu_us (in process, no sockets)",
    ),
    (
        "router.legs_per_query router.pruned_share router.merged_hit_ratio router.filter_fetches_per_update router.replica_skew",
        "reported only: peak_rps, p50_ms.peak on sharded_churn",
        "TCP workloads",
    ),
    (
        "client.trapdoor_us client.decrypt_us loadgen.lateness_p99_ms",
        "none: built before the window; lateness decides phase validity",
        "-",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's manifest lists exactly these workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for w in &WORKLOADS {
            let listed = BENCHMARKED.contains(&w.name);
            let name = format!("\"name\": \"{}\"", w.name);
            assert_eq!(text.contains(&name), listed, "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            assert_eq!(text.contains(w.why), listed, "why of {}", w.name);
            assert!(w.rates[0] < w.rates[1] && w.rates[1] < w.rates[2]);
        }
        for (host, probe, metrics) in &PROBES {
            assert!(BENCHMARKED.contains(host) && !BENCHMARKED.contains(probe));
            assert!(metrics.iter().all(|m| PER_LAYER.iter().any(|l| l.0 == *m)));
        }
        for (name, unit, higher, bound) in &END_TO_END {
            let better = if *higher { "higher" } else { "lower" };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(text.contains(&entry), "{entry}");
        }
        for (name, unit, higher) in &PER_LAYER {
            let better = if *higher { "higher" } else { "lower" };
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(text.contains(&entry), "{entry}");
        }
        assert_eq!(
            text.matches("\"name\":").count(),
            BENCHMARKED.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }
}
