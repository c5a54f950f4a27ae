//! One run of one workload: build the inputs from the seed, set up the
//! deployment several times, drive the phases, check every reply, and
//! compute the metrics.

use crate::check::{Oracle, ADDED_ID_BASE};
use crate::cpu;
use crate::layers::{self, LayerInput};
use crate::load::{
    closed_loop_tcp, closed_sharded, in_process, ms, open_loop_tcp, scheduled_sharded, Adder, Op,
    PhaseOutcome, Sample, ShardTarget, TcpTarget, TOP_K,
};
use crate::sched::{arrivals, Rng, Zipf};
use crate::spec::{self, Kind, Workload, MASTER_SEED};
use crate::stats::{self, percentile, summarize, Rung};
use crate::trace::{self, Tracer};
use bytes::BytesMut;
use rsse_cloud::{
    serve_frame, CacheStats, CloudServer, DataOwner, Message, PoolOptions, RouterOptions,
    SearchMode, ShardedDeployment, TcpServer, TcpServerOptions, TcpServerStats, User,
};
use rsse_core::{Rsse, RsseParams};
use rsse_ir::corpus::SyntheticCorpus;
use rsse_ir::{Document, FileId, InvertedIndex, Tokenizer};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Hot terms the Zipf mixes draw from.
const HOT_TERMS: usize = 48;
/// Terms the conjunctive pairs draw from.
const CONJ_TERMS: usize = 256;
/// Rare terms of the sharded mix: absent from the corpus, each introduced
/// by exactly one added document, so each lives on at most one shard.
const RARE_TERMS: usize = 16;
/// Zipf exponent of the query logs.
const ZIPF_S: f64 = 1.1;
/// Documents planned for adds: more than any run sends.
const PLANNED_ADDS: usize = 12_000;
/// Operations generated for a closed-loop phase: more than any peak phase
/// completes in its span.
const CLOSED_OPS: usize = 50_000;
/// Longest an update probe may take.
const PROBE_SPAN: Duration = Duration::from_secs(10);

/// What a run produced.
pub struct RunResult {
    /// Metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted over all phases.
    pub attempted: u64,
    /// Operations failed over all phases.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
    /// The detailed report, a JSON object.
    pub detail: String,
}

/// The plaintext inputs every workload derives from the seed.
struct Inputs {
    docs: Vec<Document>,
    plain: InvertedIndex,
    oracle: Oracle,
    /// Index of the first rare term in the oracle's terms (sharded only).
    rare_base: u16,
}

/// Index terms that tokenize to themselves, by descending document
/// frequency (ties by term).
fn top_terms(plain: &InvertedIndex, n: usize) -> Vec<String> {
    let tokenizer = Tokenizer::new();
    let mut terms: Vec<(&str, usize)> = plain.iter().map(|(t, p)| (t, p.len())).collect();
    terms.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    terms
        .into_iter()
        .filter(|(t, _)| tokenizer.tokenize(t) == [t.to_string()])
        .take(n)
        .map(|(t, _)| t.to_string())
        .collect()
}

/// Words outside the corpus vocabulary that tokenize to themselves.
fn fresh_terms(plain: &InvertedIndex, n: usize) -> Vec<String> {
    let tokenizer = Tokenizer::new();
    (20_000..64_000)
        .map(rsse_ir::corpus::vocab_word)
        .filter(|w| plain.postings(w).is_none() && tokenizer.tokenize(w) == [w.clone()])
        .take(n)
        .collect()
}

impl Inputs {
    fn new(w: &Workload) -> Self {
        let corpus = SyntheticCorpus::generate(&spec::corpus(spec::DATASET_SEED));
        let docs = corpus.documents().to_vec();
        let plain = InvertedIndex::build(&docs);
        let hot = top_terms(&plain, HOT_TERMS);
        let (terms, rare_base) = match w.kind {
            Kind::ConjCold => (top_terms(&plain, CONJ_TERMS), 0),
            Kind::ShardedChurn => {
                let mut terms = hot.clone();
                terms.extend(fresh_terms(&plain, RARE_TERMS));
                (terms, HOT_TERMS as u16)
            }
            _ => (hot.clone(), 0),
        };
        // Planned adds: six distinct hot terms, tf 1..=3 each; in the
        // sharded workload the first adds also carry one rare term each.
        let mut rng = Rng::new(spec::DATASET_SEED, "adds");
        let adds = (0..PLANNED_ADDS)
            .map(|j| {
                let mut picked: Vec<&str> = Vec::new();
                while picked.len() < 6 {
                    let t = hot[rng.below(hot.len())].as_str();
                    if !picked.contains(&t) {
                        picked.push(t);
                    }
                }
                let mut words = Vec::new();
                for t in picked {
                    for _ in 0..=rng.below(3) {
                        words.push(t);
                    }
                }
                if w.kind == Kind::ShardedChurn && j < RARE_TERMS {
                    words.push(terms[rare_base as usize + j].as_str());
                }
                Document::new(FileId::new(ADDED_ID_BASE + j as u64), words.join(" "))
            })
            .collect();
        let oracle = Oracle::new(&docs, &plain, RsseParams::default(), terms, adds);
        Inputs {
            docs,
            plain,
            oracle,
            rare_base,
        }
    }

    /// Operation `i` of the workload's mix.
    fn op(&self, w: &Workload, i: usize, rng: &mut Rng, zipf: &Zipf) -> Op {
        match w.kind {
            Kind::ZipfHot => Op::Search(zipf.sample(rng) as u16),
            Kind::ConjCold => {
                let a = rng.below(CONJ_TERMS);
                let mut b = rng.below(CONJ_TERMS - 1);
                if b >= a {
                    b += 1;
                }
                Op::Conj(a as u16, b as u16)
            }
            Kind::ChurnDisk if i % 4 == 3 => Op::Add,
            Kind::ChurnDisk => Op::Search(zipf.sample(rng) as u16),
            Kind::ShardedChurn if i % 8 == 7 => Op::Add,
            Kind::ShardedChurn if rng.below(4) == 0 => {
                Op::Search(self.rare_base + rng.below(RARE_TERMS) as u16)
            }
            Kind::ShardedChurn => Op::Search(zipf.sample(rng) as u16),
        }
    }

    fn ops(&self, w: &Workload, n: usize, rng: &mut Rng) -> Vec<Op> {
        let zipf = Zipf::new(HOT_TERMS, ZIPF_S);
        (0..n).map(|i| self.op(w, i, rng, &zipf)).collect()
    }

    /// An open-loop schedule at `rate` over `span`.
    fn schedule(
        &self,
        w: &Workload,
        seed: u64,
        phase: &str,
        rate: f64,
        span: Duration,
    ) -> Vec<(Duration, Op)> {
        let at = arrivals(&mut Rng::new(seed, &format!("{phase}/at")), rate, span);
        let ops = self.ops(w, at.len(), &mut Rng::new(seed, &format!("{phase}/ops")));
        at.into_iter().zip(ops).collect()
    }

    /// Corpus statistics: lists, ν, OPM operations (one per posting).
    fn corpus_stats(&self) -> String {
        let postings: usize = self.plain.iter().map(|(_, p)| p.len()).sum();
        format!(
            "{{\"name\":\"{}\",\"docs\":{},\"lists\":{},\"nu\":{},\"opm_ops\":{}}}",
            spec::CORPUS,
            self.docs.len(),
            self.plain.num_keywords(),
            self.plain.max_posting_len(),
            postings
        )
    }
}

/// One TCP deployment; shut down and its store removed on drop.
struct TcpDeployment {
    tcp: Option<TcpServer>,
    server: Arc<CloudServer>,
    dir: Option<PathBuf>,
}

impl Drop for TcpDeployment {
    fn drop(&mut self) {
        if let Some(tcp) = self.tcp.take() {
            tcp.shutdown();
        }
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One setup's cost: CPU seconds of every thread (`setup_s`), and the
/// wall time it took.
#[derive(Clone, Copy)]
struct SetupTime {
    cpu_s: f64,
    wall_s: f64,
}

impl SetupTime {
    fn start() -> (Instant, f64) {
        (Instant::now(), cpu::process_s())
    }

    fn since((wall, cpu): (Instant, f64)) -> Self {
        SetupTime {
            cpu_s: cpu::process_s() - cpu,
            wall_s: wall.elapsed().as_secs_f64(),
        }
    }
}

/// Setup, timed: outsource, frame encode, server boot (with the segment
/// write on the on-disk workloads), TCP spawn, and the first query
/// answered over the wire.
fn setup_tcp(
    w: &Workload,
    inputs: &Inputs,
    workers: usize,
    first: &[u8],
    dir: &Path,
) -> Result<(TcpDeployment, SetupTime), String> {
    let started = SetupTime::start();
    let owner = DataOwner::new(MASTER_SEED, RsseParams::default());
    let frame = owner
        .outsource(&inputs.docs)
        .map_err(|e| format!("outsource failed: {e}"))?
        .encode();
    let msg = Message::decode(frame).map_err(|e| format!("outsource frame: {e}"))?;
    let (server, dir) = match w.kind {
        Kind::ZipfHot => (CloudServer::from_outsource(msg), None),
        _ => (
            CloudServer::from_outsource_generational(msg, dir, CloudServer::DEFAULT_CACHE_BUDGET),
            Some(dir.to_path_buf()),
        ),
    };
    let server = Arc::new(server.map_err(|e| format!("server boot failed: {e}"))?);
    let tcp = TcpServer::spawn(
        Arc::clone(&server),
        TcpServerOptions::new(workers, spec::TCP_BACKLOG),
    )
    .map_err(|e| format!("tcp spawn failed: {e}"))?;
    let deployment = TcpDeployment {
        tcp: Some(tcp),
        server,
        dir,
    };
    first_query(deployment.addr(), first)?;
    Ok((deployment, SetupTime::since(started)))
}

impl TcpDeployment {
    fn addr(&self) -> std::net::SocketAddr {
        self.tcp.as_ref().expect("running").addr()
    }
    fn stats(&self) -> TcpServerStats {
        self.tcp.as_ref().expect("running").stats()
    }
}

/// Sends one request and waits for any well-formed reply.
fn first_query(addr: std::net::SocketAddr, body: &[u8]) -> Result<(), String> {
    use std::io::{Read, Write};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("first connect: {e}"))?;
    stream
        .write_all(&rsse_cloud::frame_message(0, body))
        .map_err(|e| format!("first write: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut asm = rsse_cloud::FrameAssembler::new();
    let mut buf = vec![0u8; 64 << 10];
    loop {
        let n = stream
            .read(&mut buf)
            .map_err(|e| format!("first read: {e}"))?;
        if n == 0 {
            return Err("server closed before the first reply".into());
        }
        asm.feed(&buf[..n]);
        if let Some((_, reply)) = asm.next_frame().map_err(|e| e.to_string())? {
            return match Message::decode(BytesMut::from(&reply[..])) {
                Ok(Message::Error { detail, .. }) => Err(format!("first query failed: {detail}")),
                Ok(_) => Ok(()),
                Err(e) => Err(format!("first reply: {e}")),
            };
        }
    }
}

/// Setup of the sharded deployment, timed through the first answered
/// scatter.
fn setup_sharded(
    inputs: &Inputs,
    first_legs: &[Message],
) -> Result<(ShardedDeployment, SetupTime), String> {
    let started = SetupTime::start();
    let deployment = ShardedDeployment::bootstrap_tuned(
        MASTER_SEED,
        RsseParams::default(),
        &inputs.docs,
        spec::SHARDS,
        PoolOptions::new(1, 64),
        RouterOptions::new()
            .with_pruning()
            .with_merged_cache(8 << 20)
            .with_replicas(spec::REPLICAS),
    )
    .map_err(|e| format!("sharded bootstrap failed: {e}"))?;
    deployment
        .router()
        .scatter(first_legs.to_vec(), Some(TOP_K))
        .map_err(|e| format!("first scatter failed: {e}"))?;
    Ok((deployment, SetupTime::since(started)))
}

/// Measures of one phase, as reported.
struct PhaseReport {
    name: String,
    offered: Option<f64>,
    outcome: PhaseOutcome,
}

impl PhaseReport {
    fn rung(&self) -> Rung {
        let mut lat = self.outcome.search_ms.clone();
        let p99 = summarize(&mut lat).map(|s| s.p99.value);
        Rung {
            offered_rps: self.offered.unwrap_or(0.0),
            goodput_rps: self.outcome.goodput(),
            p99_ms: p99,
            failures: self.outcome.failed,
            late: self.late(),
            backlog_growing: stats::backlog_growing(
                &self.outcome.search_ms,
                spec::BACKLOG_SLACK_MS,
            ),
        }
    }

    fn lateness_p99(&self) -> Option<f64> {
        let mut l = self.outcome.lateness_ms.clone();
        l.sort_unstable_by(f64::total_cmp);
        percentile(&l, 0.99).map(|p| p.value)
    }

    fn late(&self) -> bool {
        self.lateness_p99()
            .is_some_and(|l| l > spec::LATENESS_BOUND_MS)
    }

    fn json(&self) -> String {
        let o = &self.outcome;
        let mut lat = o.search_ms.clone();
        let summary = summarize(&mut lat);
        let pct = |p: Option<stats::Pct>| match p {
            Some(p) => format!(
                "{{\"ms\":{},\"quantile\":{:.5},\"samples\":{}}}",
                num(p.value),
                p.quantile,
                p.samples
            ),
            None => "null".into(),
        };
        format!(
            "{{\"phase\":\"{}\",\"offered_rps\":{},\"attempted\":{},\"failed\":{},\"ok\":{},\"searches\":{},\"adds\":{},\"goodput_rps\":{},\"p50\":{},\"p99\":{},\"lateness_p99_ms\":{},\"late\":{},\"backlog_growing\":{},\"cpu_cores\":{:.3},\"cpu_s\":{},\"gen_cpu_s\":{},\"batches\":{},\"op_cpu_us_median\":{},\"calib_us_median\":{},\"errors\":[{}]}}",
            self.name,
            self.offered.map_or("null".into(), num),
            o.attempted,
            o.failed,
            o.ok,
            o.searches,
            o.adds,
            num(o.goodput()),
            pct(summary.map(|s| s.p50)),
            pct(summary.map(|s| s.p99)),
            self.lateness_p99().map_or("null".into(), num),
            self.late(),
            self.rung().backlog_growing,
            o.cpu_cores,
            num(o.cpu_s),
            num(o.gen_cpu_s),
            o.op_cpu_us.len(),
            num(stats::median(&o.op_cpu_us)),
            num(stats::median(&o.calib_us)),
            o.errors
                .iter()
                .map(|e| json_str(e))
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

/// A finite number as JSON (non-finite values read 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Encoded request bodies for every query op in `ops`.
fn bodies(user: &User, oracle: &Oracle, ops: impl Iterator<Item = Op>) -> HashMap<Op, Vec<u8>> {
    let mut out = HashMap::new();
    for op in ops {
        if op == Op::Add || out.contains_key(&op) {
            continue;
        }
        let msg = match op {
            Op::Search(t) => user.search_request(
                &oracle.terms[t as usize],
                Some(TOP_K as u32),
                SearchMode::Rsse,
            ),
            Op::Conj(a, b) => user.conjunctive_request(
                &format!("{} {}", oracle.terms[a as usize], oracle.terms[b as usize]),
                Some(TOP_K as u32),
            ),
            Op::Add => unreachable!("adds are built at send time"),
        }
        .expect("query terms have trapdoors");
        out.insert(op, msg.encode().to_vec());
    }
    out
}

/// The run's knobs.
pub struct RunArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// Traffic seed: query mix and arrival schedule.
    pub seed: u64,
    /// Measured seconds, split over the rounds.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// A layer probe inside another workload's traced run: skips the
    /// library layer timings, which the host run takes.
    pub probe: bool,
}

/// Cache and router counters at one instant, summed over servers.
#[derive(Default, Clone, Copy)]
struct Counters {
    cache: CacheStats,
    conj: CacheStats,
    merged: CacheStats,
    tcp: TcpServerStats,
}

fn sum_cache(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        evictions: a.evictions + b.evictions,
        invalidations: a.invalidations + b.invalidations,
        stale_fills: a.stale_fills + b.stale_fills,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn hit_ratio(before: CacheStats, after: CacheStats) -> f64 {
    let hits = (after.hits - before.hits) as f64;
    ratio(hits, hits + (after.misses - before.misses) as f64)
}

/// Runs one workload once; a traced run of a workload that hosts a layer
/// probe also runs the probe and takes the probe's metrics from it.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let mut result = run_one(args)?;
    if !args.trace || args.probe {
        return Ok(result);
    }
    for (_, name, metrics) in spec::PROBES.iter().filter(|p| p.0 == args.workload.name) {
        let probe = run_one(&RunArgs {
            workload: spec::workload(name).expect("probes name workloads"),
            seed: args.seed,
            seconds: spec::PROBE_SECONDS,
            trace: true,
            probe: true,
        })?;
        for m in *metrics {
            let v = probe.metrics.get(m).copied();
            result
                .metrics
                .insert(m, v.ok_or(format!("probe {name} did not measure {m}"))?);
        }
        result.attempted += probe.attempted;
        result.failed += probe.failed;
        result.correct &= probe.correct;
        result.detail.pop();
        result.detail = format!("{},\"layer_probe\":{}}}", result.detail, probe.detail);
    }
    Ok(result)
}

/// One run of one workload, without its layer probe.
fn run_one(args: &RunArgs) -> Result<RunResult, String> {
    let w = args.workload;
    let inputs = Inputs::new(w);
    let work_dir = PathBuf::from(".bench_work").join(format!("{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("work dir: {e}"))?;
    let result = match w.kind {
        Kind::ShardedChurn => run_sharded(args, &inputs, &work_dir),
        _ => run_tcp(args, &inputs, &work_dir),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".bench_work");
    result
}

/// Rounds per run: the ladder and the peak phase run this many times,
/// interleaved. Rate metrics are the median over the rounds. Latency
/// percentiles are the lower quartile over the rounds (the fourth-best of
/// sixteen): on a shared VM a neighbour's burst stalls whole stretches of
/// a run, and the quartile keeps those rounds from setting the figure,
/// while a stall of the program's own has to hit thirteen rounds in
/// sixteen to move it.
const ROUNDS: usize = 16;
/// Shares of a round's time given to r1, r2, r3, the peak phase and the
/// in-process searches: the low rungs get longer so each collects a
/// comparable number of samples.
const SHARES: [f64; 5] = [0.4, 0.2, 0.15, 0.15, 0.1];
/// Operations per timed batch of the in-process adds.
const UPDATE_BATCH: usize = 2;
/// Share of the in-process batches dropped at each end before averaging:
/// a page fault or a burst of interrupts lands on a few batches only.
const OP_CPU_TRIM: f64 = 0.1;

/// What one round sends, fixed before the window.
struct PlannedRound {
    rungs: Vec<Vec<(Duration, Op)>>,
    peak_ops: Vec<Op>,
    peak_span: Duration,
    probe: Option<Vec<Op>>,
    serve_ops: Vec<Op>,
    serve_span: Duration,
}

/// The run's rounds. Read-only workloads end each round with an update
/// probe: a sequential owner sending adds one at a time, each after the
/// previous one was acknowledged.
fn plan(args: &RunArgs, inputs: &Inputs) -> Vec<PlannedRound> {
    let w = args.workload;
    let round_s = args.seconds as f64 / ROUNDS as f64;
    let span = |share: f64| Duration::from_secs_f64(round_s * share);
    (0..ROUNDS)
        .map(|round| PlannedRound {
            rungs: w
                .rates
                .iter()
                .enumerate()
                .map(|(i, &rate)| {
                    let phase = format!("round{round}/r{}", i + 1);
                    inputs.schedule(w, args.seed, &phase, rate, span(SHARES[i]))
                })
                .collect(),
            peak_ops: inputs.ops(
                w,
                CLOSED_OPS,
                &mut Rng::new(args.seed, &format!("round{round}/peak")),
            ),
            peak_span: span(SHARES[3]),
            probe: matches!(w.kind, Kind::ZipfHot | Kind::ConjCold)
                .then(|| vec![Op::Add; spec::UPDATE_PROBE_ADDS]),
            serve_ops: inputs.ops(
                w,
                CLOSED_OPS,
                &mut Rng::new(args.seed, &format!("round{round}/in_process")),
            ),
            serve_span: span(SHARES[4]),
        })
        .collect()
}

/// Operations per timed batch of the in-process searches: a batch takes
/// 50-100 µs of CPU or a couple of ms for conjunctions, short next to the
/// seconds over which the host's speed drifts.
fn serve_batch(w: &Workload) -> usize {
    match w.kind {
        Kind::ConjCold => 2,
        _ => 16,
    }
}

/// The r1 span of a round: warm-up-free reference phases use it too.
fn r1_span(args: &RunArgs) -> Duration {
    Duration::from_secs_f64(args.seconds as f64 / ROUNDS as f64 * SHARES[0])
}

/// How a phase is driven.
enum Drive<'a> {
    /// Open loop over a schedule; traced when the run traces.
    Open(&'a [(Duration, Op)]),
    /// Closed loop through the ops for at most a span.
    Closed(&'a [Op], Duration),
    /// The update probe: its ops one at a time, never traced.
    Probe(&'a [Op]),
    /// In process, without the sockets: ops in timed batches of the given
    /// size for at most a span.
    InProcess(&'a [Op], usize, Duration),
}

/// One round as measured.
struct Round {
    rungs: Vec<PhaseReport>,
    peak: PhaseReport,
    probe: Option<PhaseReport>,
    /// The update probe's adds in process (read-only workloads).
    update: Option<PhaseReport>,
    /// The workload's mix in process (TCP workloads).
    serve: Option<PhaseReport>,
}

impl Round {
    fn phases(&self) -> impl Iterator<Item = &PhaseReport> {
        self.rungs
            .iter()
            .chain([&self.peak])
            .chain(&self.probe)
            .chain(&self.update)
            .chain(&self.serve)
    }
}

/// Runs the planned rounds through `drive`.
fn drive_rounds(
    args: &RunArgs,
    planned: &[PlannedRound],
    mut drive: impl FnMut(Drive<'_>) -> PhaseOutcome,
) -> Vec<Round> {
    let mut drive = |d: Drive<'_>| {
        let (cpu, wall) = (cpu::process_s(), Instant::now());
        let mut outcome = drive(d);
        outcome.cpu_s = cpu::process_s() - cpu;
        outcome.cpu_cores = outcome.cpu_s / wall.elapsed().as_secs_f64();
        outcome
    };
    planned
        .iter()
        .enumerate()
        .map(|(round, p)| Round {
            rungs: p
                .rungs
                .iter()
                .enumerate()
                .map(|(i, schedule)| PhaseReport {
                    name: format!("round{round}/r{}", i + 1),
                    offered: Some(args.workload.rates[i]),
                    outcome: drive(Drive::Open(schedule)),
                })
                .collect(),
            peak: PhaseReport {
                name: format!("round{round}/peak"),
                offered: None,
                outcome: drive(Drive::Closed(&p.peak_ops, p.peak_span)),
            },
            probe: p.probe.as_ref().map(|ops| PhaseReport {
                name: format!("round{round}/update_probe"),
                offered: None,
                outcome: drive(Drive::Probe(ops)),
            }),
            // Right after the probe's adds, whose invalidations leave the
            // caches with little for these adds to drop: their cost is
            // then the same whatever the traffic seed filled them with.
            update: p.probe.as_ref().map(|ops| PhaseReport {
                name: format!("round{round}/in_process_update"),
                offered: None,
                outcome: drive(Drive::InProcess(ops, UPDATE_BATCH, PROBE_SPAN)),
            }),
            serve: (args.workload.kind != Kind::ShardedChurn).then(|| PhaseReport {
                name: format!("round{round}/in_process"),
                offered: None,
                outcome: drive(Drive::InProcess(
                    &p.serve_ops,
                    serve_batch(args.workload),
                    p.serve_span,
                )),
            }),
        })
        .collect()
}

/// Lower quartile over rounds of a per-round latency, skipping rounds
/// without one.
fn round_latency(values: impl Iterator<Item = Option<f64>>) -> Option<f64> {
    stats::lower_quartile(&values.flatten().collect::<Vec<_>>())
}

/// Everything both kinds of run collect, turned into metrics.
struct Collected {
    setup: Vec<SetupTime>,
    warmup: PhaseReport,
    rounds: Vec<Round>,
    check_errors: Vec<String>,
    deep_checked: usize,
    extra: BTreeMap<&'static str, f64>,
}

impl Collected {
    fn phases(&self) -> impl Iterator<Item = &PhaseReport> {
        [&self.warmup]
            .into_iter()
            .chain(self.rounds.iter().flat_map(Round::phases))
    }

    /// Rung `i` over all rounds: p99 and generator lateness (lower
    /// quartile over rounds), median goodput, all failures, and a backlog
    /// that grew in most rounds.
    fn rung(&self, i: usize) -> Rung {
        let phases: Vec<&PhaseReport> = self.rounds.iter().map(|r| &r.rungs[i]).collect();
        let growing = phases.iter().filter(|p| p.rung().backlog_growing).count();
        Rung {
            offered_rps: self.rounds[0].rungs[i].offered.unwrap_or(0.0),
            goodput_rps: stats::median(
                &phases
                    .iter()
                    .map(|p| p.outcome.goodput())
                    .collect::<Vec<_>>(),
            ),
            p99_ms: round_latency(phases.iter().map(|p| p.rung().p99_ms)),
            failures: phases.iter().map(|p| p.outcome.failed).sum(),
            late: round_latency(phases.iter().map(|p| p.lateness_p99()))
                .is_some_and(|l| l > spec::LATENESS_BOUND_MS),
            backlog_growing: 2 * growing > phases.len(),
        }
    }

    fn finish(self, args: &RunArgs, inputs: &Inputs) -> RunResult {
        let w = args.workload;
        let mut metrics = BTreeMap::new();
        let attempted: u64 = self.phases().map(|p| p.outcome.attempted).sum();
        let failed: u64 =
            self.phases().map(|p| p.outcome.failed).sum::<u64>() + self.check_errors.len() as u64;
        let summary = |p: &PhaseReport| {
            let mut lat = p.outcome.search_ms.clone();
            summarize(&mut lat)
        };
        if !args.trace {
            let setup_cpu: Vec<f64> = self.setup.iter().map(|s| s.cpu_s).collect();
            metrics.insert("setup_s", stats::median(&setup_cpu));
            // The program's CPU per request over TCP, phase by phase: the
            // process minus the generator's threads, median over rounds.
            let over_rounds = |f: &dyn Fn(&Round) -> Option<f64>| {
                let v: Vec<f64> = self.rounds.iter().filter_map(f).collect();
                (!v.is_empty()).then(|| stats::median(&v))
            };
            let served_us = |p: &PhaseReport| {
                let o = &p.outcome;
                (o.attempted > 0).then(|| (o.cpu_s - o.gen_cpu_s) * 1e6 / o.attempted as f64)
            };
            if let Some(v) = over_rounds(&|r| served_us(&r.peak)) {
                metrics.insert("tcp_cpu_us_per_op.peak", v);
            }
            // In-process costs: each batch's CPU per operation over the
            // calibration's CPU per unit beside it, trimmed mean over the
            // run, in µs of a host whose unit takes `cpu::CALIB_REF_US`.
            let calibrated = |f: &dyn Fn(&Round) -> Option<&PhaseReport>| {
                let ratios: Vec<f64> = self
                    .rounds
                    .iter()
                    .filter_map(f)
                    .flat_map(|p| p.outcome.op_cpu_us.iter().zip(&p.outcome.calib_us))
                    .map(|(op, calib)| op / calib)
                    .collect();
                stats::trimmed_mean(&ratios, OP_CPU_TRIM).map(|r| r * cpu::CALIB_REF_US)
            };
            if let Some(v) = calibrated(&|r| r.serve.as_ref()) {
                metrics.insert("request_cpu_us", v);
            }
            if let Some(v) = calibrated(&|r| r.update.as_ref()) {
                metrics.insert("update_cpu_us", v);
            }
            for i in 0..3 {
                let rung = |r: &Round| summary(&r.rungs[i]);
                let p50 = round_latency(self.rounds.iter().map(|r| rung(r).map(|s| s.p50.value)));
                let p99 = round_latency(self.rounds.iter().map(|r| rung(r).map(|s| s.p99.value)));
                if let (Some(p50), Some(p99)) = (p50, p99) {
                    metrics.insert(["p50_ms.r1", "p50_ms.r2", "p50_ms.r3"][i], p50);
                    metrics.insert(["p99_ms.r1", "p99_ms.r2", "p99_ms.r3"][i], p99);
                }
            }
            let rungs: Vec<Rung> = (0..3).map(|i| self.rung(i)).collect();
            metrics.insert("max_ok_rps", stats::max_ok_rps(&rungs, w.p99_limit_ms));
            let peak_rps: Vec<f64> = self
                .rounds
                .iter()
                .map(|r| r.peak.outcome.goodput())
                .collect();
            metrics.insert("peak_rps", stats::median(&peak_rps));
            let peak = |f: fn(stats::Summary) -> f64| {
                round_latency(self.rounds.iter().map(|r| summary(&r.peak).map(f)))
            };
            if let (Some(p50), Some(p99)) = (peak(|s| s.p50.value), peak(|s| s.p99.value)) {
                metrics.insert("p50_ms.peak", p50);
                metrics.insert("p99_ms.peak", p99);
            }
            let updates: Vec<Option<stats::Summary>> = self
                .rounds
                .iter()
                .map(|r| {
                    let mut lat: Vec<f64> = r
                        .phases()
                        .flat_map(|p| p.outcome.update_ms.iter().copied())
                        .collect();
                    summarize(&mut lat)
                })
                .collect();
            let p50 = round_latency(updates.iter().map(|s| s.map(|s| s.p50.value)));
            let p99 = round_latency(updates.iter().map(|s| s.map(|s| s.p99.value)));
            if let (Some(p50), Some(p99)) = (p50, p99) {
                metrics.insert("update_p50_ms", p50);
                metrics.insert("update_p99_ms", p99);
            }
            let (bytes, ops) = self
                .rounds
                .iter()
                .flat_map(|r| r.rungs.iter().chain([&r.peak]))
                .fold((0u64, 0u64), |(b, n), p| {
                    (b + p.outcome.wire_bytes, n + p.outcome.attempted)
                });
            metrics.insert("wire_bytes_per_op", ratio(bytes as f64, ops as f64));
            metrics.insert("peak_rss_mb", peak_rss_mb());
        }
        metrics.extend(self.extra.iter().map(|(k, v)| (*k, *v)));
        let expected: Vec<&'static str> = if args.probe {
            spec::PROBES
                .iter()
                .filter(|p| p.1 == w.name)
                .flat_map(|p| p.2.iter().copied())
                .collect()
        } else if args.trace {
            spec::PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            // The sharded workload has no in-process phase, and only the
            // read-only workloads time adds on their own.
            spec::END_TO_END
                .iter()
                .map(|m| m.0)
                .filter(|m| match *m {
                    "request_cpu_us" => w.kind != Kind::ShardedChurn,
                    "update_cpu_us" => matches!(w.kind, Kind::ZipfHot | Kind::ConjCold),
                    _ => true,
                })
                .collect()
        };
        let mut check_errors = self.check_errors.clone();
        for name in expected {
            if !metrics.contains_key(name) {
                check_errors.push(format!("metric {name} could not be measured"));
            }
        }
        let phases: Vec<String> = self.phases().map(PhaseReport::json).collect();
        let rungs: Vec<String> = (0..3)
            .map(|i| {
                let r = self.rung(i);
                let mut pooled: Vec<f64> = self
                    .rounds
                    .iter()
                    .flat_map(|round| round.rungs[i].outcome.search_ms.iter().copied())
                    .collect();
                let pooled = summarize(&mut pooled).map_or("null".into(), |s| num(s.p99.value));
                format!(
                    "{{\"offered_rps\":{},\"goodput_rps\":{},\"p99_ms\":{},\"failures\":{},\"late\":{},\"backlog_growing\":{},\"passes\":{},\"pooled_p99_ms\":{}}}",
                    num(r.offered_rps),
                    num(r.goodput_rps),
                    r.p99_ms.map_or("null".into(), num),
                    r.failures,
                    r.late,
                    r.backlog_growing,
                    r.passes(w.p99_limit_ms),
                    pooled
                )
            })
            .collect();
        let detail = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\"corpus\":{},\"rates_rps\":[{}],\"p99_limit_ms\":{},\"lateness_bound_ms\":{},\"rounds\":{},\"setup_cpu_s\":[{}],\"setup_wall_s\":[{}],\"ladder\":[{}],\"phases\":[{}],\"deep_checked\":{},\"error_rate\":{},\"check_errors\":[{}]}}",
            w.name,
            args.seed,
            args.seconds,
            args.trace,
            host_json(),
            inputs.corpus_stats(),
            w.rates.iter().map(|r| num(*r)).collect::<Vec<_>>().join(","),
            num(w.p99_limit_ms),
            num(spec::LATENESS_BOUND_MS),
            ROUNDS,
            self.setup.iter().map(|s| num(s.cpu_s)).collect::<Vec<_>>().join(","),
            self.setup.iter().map(|s| num(s.wall_s)).collect::<Vec<_>>().join(","),
            rungs.join(","),
            phases.join(","),
            self.deep_checked,
            num(ratio(failed as f64, attempted as f64)),
            check_errors.iter().map(|e| json_str(e)).collect::<Vec<_>>().join(","),
        );
        RunResult {
            metrics,
            attempted: attempted.max(1),
            failed,
            correct: check_errors.is_empty() && self.phases().all(|p| p.outcome.wrong == 0),
            detail,
        }
    }
}

/// The host the run measured on.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let (aes, sha) = (
        std::is_x86_feature_detected!("aes"),
        std::is_x86_feature_detected!("sha"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (aes, sha) = (false, false);
    format!(
        "{{\"nproc\":{nproc},\"rustc\":{},\"aes_ni\":{aes},\"sha_ni\":{sha},\"arch\":\"{}\"}}",
        json_str(env!("PERFBENCH_RUSTC")),
        std::env::consts::ARCH
    )
}

/// The process's resident-set high-water mark, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every reply the run kept for the deep check.
fn kept_samples<'a>(warmup: &'a PhaseOutcome, rounds: &'a [Round]) -> Vec<&'a Sample> {
    [warmup]
        .into_iter()
        .chain(rounds.iter().flat_map(|r| r.phases().map(|p| &p.outcome)))
        .flat_map(|o| o.samples.iter())
        .collect()
}

/// Deep-checks every kept sample.
fn deep_check(inputs: &Inputs, samples: &[&Sample], errors: &mut Vec<String>) -> usize {
    let user = User::new(MASTER_SEED, RsseParams::default());
    let scheme = Rsse::new(MASTER_SEED, RsseParams::default());
    let opse = scheme
        .updater_for(&inputs.plain)
        .expect("corpus is scorable")
        .opse_params();
    let decryptor = scheme.score_decryptor(opse);
    for s in samples {
        if let Err(e) = inputs.oracle.deep_check(
            &user,
            &decryptor,
            &s.op.terms(),
            &s.ranking,
            &s.files,
            s.visible,
        ) {
            errors.push(format!("deep check of {:?}: {e}", s.op));
        }
    }
    samples.len()
}

fn run_tcp(args: &RunArgs, inputs: &Inputs, work_dir: &Path) -> Result<RunResult, String> {
    let w = args.workload;
    let user = User::new(MASTER_SEED, RsseParams::default());
    let first_op = match w.kind {
        Kind::ConjCold => Op::Conj(0, 1),
        _ => Op::Search(0),
    };
    let planned = plan(args, inputs);
    let warm = inputs.schedule(w, args.seed, "warmup", w.rates[0], spec::WARMUP);
    let reference = inputs.schedule(w, args.seed, "reference", w.rates[0], r1_span(args));
    let all_ops = planned
        .iter()
        .flat_map(|p| {
            p.rungs
                .iter()
                .flat_map(|s| s.iter().map(|x| x.1))
                .chain(p.peak_ops.iter().copied())
        })
        .chain(warm.iter().chain(&reference).map(|x| x.1))
        .chain([first_op]);
    let bodies = bodies(&user, &inputs.oracle, all_ops);

    let reps = if args.trace { 1 } else { spec::SETUP_REPS };
    // A layer probe serves one request at a time: see `spec::PROBES`.
    let workers = if args.probe { 1 } else { spec::TCP_WORKERS };
    let mut setup = Vec::with_capacity(reps);
    let mut deployment = None;
    for rep in 0..reps {
        drop(deployment.take());
        let store = work_dir.join(format!("store-{rep}"));
        let (d, time) = setup_tcp(w, inputs, workers, &bodies[&first_op], &store)?;
        setup.push(time);
        deployment = Some(d);
    }
    let deployment = deployment.expect("at least one setup");

    let mut extra = BTreeMap::new();
    let tracer = Tracer::new();
    if args.trace {
        let conj_queries: Vec<String> = reference
            .iter()
            .filter_map(|(_, op)| match op {
                Op::Conj(a, b) => Some(format!(
                    "{} {}",
                    inputs.oracle.terms[*a as usize], inputs.oracle.terms[*b as usize]
                )),
                _ => None,
            })
            .collect();
        if !args.probe {
            measure_layers(inputs, &conj_queries, work_dir, &tracer, &mut extra);
        }
    }

    let scheme = Rsse::new(MASTER_SEED, RsseParams::default());
    let updater = scheme
        .updater_for(&inputs.plain)
        .map_err(|e| e.to_string())?;
    let mut adder = Adder::new(updater, MASTER_SEED, &inputs.oracle);
    if w.kind == Kind::ChurnDisk {
        adder.compact_every(Arc::clone(&deployment.server), spec::COMPACT_EVERY);
    }
    let plain_target = TcpTarget {
        addr: deployment.addr(),
        oracle: &inputs.oracle,
        bodies: &bodies,
        tracer: None,
    };
    let traced_target = TcpTarget {
        tracer: args.trace.then_some(&tracer),
        ..plain_target
    };

    let warmup = open_loop_tcp(&plain_target, &mut adder, &warm);
    let reference_p50 = if args.trace {
        let mut r = open_loop_tcp(&plain_target, &mut adder, &reference);
        summarize(&mut r.search_ms).map(|s| s.p50.value)
    } else {
        None
    };
    let server = Arc::clone(&deployment.server);
    let counters = |d: &TcpDeployment| Counters {
        cache: server.cache_stats(),
        conj: server.conjunctive_cache_stats(),
        merged: CacheStats::default(),
        tcp: d.stats(),
    };
    let before = counters(&deployment);
    let rounds = drive_rounds(args, &planned, |drive| match drive {
        Drive::Open(schedule) => open_loop_tcp(&traced_target, &mut adder, schedule),
        Drive::Probe(ops) => closed_loop_tcp(&plain_target, &mut adder, ops, 1, PROBE_SPAN),
        Drive::Closed(ops, span) => {
            closed_loop_tcp(&plain_target, &mut adder, ops, spec::CLOSED_WINDOW, span)
        }
        Drive::InProcess(ops, batch, span) => {
            in_process(&server, &plain_target, &mut adder, ops, batch, span)
        }
    });
    let after = counters(&deployment);
    adder.reap(true)?;

    let mut check_errors = Vec::new();
    let samples = kept_samples(&warmup, &rounds);
    let deep_checked = deep_check(inputs, &samples, &mut check_errors);

    if args.trace {
        let measured: Vec<&PhaseReport> = rounds
            .iter()
            .flat_map(|r| r.rungs.iter().chain([&r.peak]))
            .collect();
        let updates: u64 = measured.iter().map(|p| p.outcome.adds).sum();
        let update_bytes: u64 = measured.iter().map(|p| p.outcome.update_bytes).sum();
        let replayed = replay(
            &tracer,
            planned[0].rungs[0]
                .iter()
                .filter(|(_, op)| *op != Op::Add)
                .map(|(_, op)| (&*server, bodies[op].clone())),
        );
        traced_metrics(
            &mut extra,
            &tracer,
            &Window {
                ladder: rounds.iter().flat_map(|r| &r.rungs).collect(),
                samples: &samples,
                reference_p50_ms: reference_p50,
                before,
                after,
                updates,
                update_bytes,
                compactions: &adder.compactions,
                replayed,
                over_tcp: true,
            },
        );
        for metric in [
            "router.legs_per_query",
            "router.pruned_share",
            "router.filter_fetches_per_update",
            "router.replica_skew",
        ] {
            extra.insert(metric, 0.0);
        }
        dump_spans(args, &tracer);
    }
    drop(adder);
    drop(deployment);
    Ok(Collected {
        setup,
        warmup: PhaseReport {
            name: "warmup".into(),
            offered: Some(w.rates[0]),
            outcome: warmup,
        },
        rounds,
        check_errors,
        deep_checked,
        extra,
    }
    .finish(args, inputs))
}

/// The library layer timings of a traced run.
fn measure_layers(
    inputs: &Inputs,
    conj_queries: &[String],
    work_dir: &Path,
    tracer: &Tracer,
    extra: &mut BTreeMap<&'static str, f64>,
) {
    // Time add_document on planned documents the run itself never sends.
    let adds: Vec<Document> = inputs.oracle.added[PLANNED_ADDS - 200..]
        .iter()
        .map(|a| a.doc.clone())
        .collect();
    layers::measure(
        &LayerInput {
            docs: &inputs.docs,
            search_terms: &inputs.oracle.terms[..HOT_TERMS],
            conj_queries,
            adds: &adds,
            work_dir,
        },
        tracer,
        extra,
    );
}

/// What a traced run observed over its measured window.
struct Window<'a> {
    /// Every rung phase of every round.
    ladder: Vec<&'a PhaseReport>,
    /// Replies kept for the deep check.
    samples: &'a [&'a Sample],
    /// Median latency of the untraced reference phase at r1.
    reference_p50_ms: Option<f64>,
    /// Counters before and after the window.
    before: Counters,
    after: Counters,
    /// Adds sent, and their frame bytes.
    updates: u64,
    update_bytes: u64,
    /// Compactions the window ran.
    compactions: &'a [rsse_core::CompactionStats],
    /// Replayed serve times, µs: cache hits, misses.
    replayed: (Vec<f64>, Vec<f64>),
    /// Whether requests crossed TCP (the overhead is 0 otherwise).
    over_tcp: bool,
}

/// Replays request frames in process through `serve_frame`, timing each
/// and splitting the times by whether the server's cache answered.
fn replay<'s>(
    tracer: &Tracer,
    frames: impl Iterator<Item = (&'s CloudServer, Vec<u8>)>,
) -> (Vec<f64>, Vec<f64>) {
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for (server, frame) in frames {
        let hits = server.serving_report().cache_hits;
        let started = Instant::now();
        let reply = tracer.time("server.serve", || serve_frame(server, &frame, None));
        let us = started.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(reply);
        if server.serving_report().cache_hits > hits {
            hit.push(us);
        } else {
            miss.push(us);
        }
    }
    (hit, miss)
}

/// Per-layer metrics a traced run derives from its window.
fn traced_metrics(extra: &mut BTreeMap<&'static str, f64>, tracer: &Tracer, window: &Window<'_>) {
    let Window {
        ladder,
        samples,
        reference_p50_ms,
        before,
        after,
        updates,
        update_bytes,
        compactions,
        replayed: (hit, miss),
        over_tcp,
    } = window;
    let (before, after, reference_p50_ms) = (*before, *after, *reference_p50_ms);
    let (updates, update_bytes) = (*updates as f64, *update_bytes as f64);
    // Codec: encode and decode of the recorded replies.
    let messages: Vec<&Message> = samples.iter().filter_map(|s| s.message.as_ref()).collect();
    let (enc, dec, bytes) = codec_times(&messages);
    extra.insert("codec.encode_us.reply", enc);
    extra.insert("codec.decode_us.reply", dec);
    extra.insert("codec.reply_bytes", bytes);

    // Client-side file decryption of the recorded replies.
    let user = User::new(MASTER_SEED, RsseParams::default());
    let mut decrypt_us = Vec::new();
    for s in samples.iter().filter(|s| !s.files.is_empty()) {
        let t = Instant::now();
        let docs = tracer.time("client.decrypt", || user.decrypt_files(&s.files));
        decrypt_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(docs.ok());
    }
    extra.insert("client.decrypt_us", stats::median(&decrypt_us));

    // Caches over the window.
    extra.insert("cache.hit_ratio", hit_ratio(before.cache, after.cache));
    extra.insert("cache.conj_hit_ratio", hit_ratio(before.conj, after.conj));
    extra.insert(
        "cache.invalidations_per_update",
        ratio(
            (after.cache.invalidations - before.cache.invalidations) as f64,
            updates,
        ),
    );
    extra.insert(
        "router.merged_hit_ratio",
        hit_ratio(before.merged, after.merged),
    );
    extra.insert(
        "tcp.overloaded",
        (after.tcp.overloaded - before.tcp.overloaded) as f64,
    );
    extra.insert(
        "tcp.backpressure_stalls",
        (after.tcp.backpressure_stalls - before.tcp.backpressure_stalls) as f64,
    );

    // Compaction.
    extra.insert("core.compactions", compactions.len() as f64);
    let walls: Vec<f64> = compactions.iter().map(|c| c.wall.as_secs_f64()).collect();
    extra.insert("core.compact_wall_s", stats::median(&walls));
    extra.insert(
        "core.install_pause_max_ms",
        compactions
            .iter()
            .map(|c| ms(c.install_pause))
            .fold(0.0, f64::max),
    );
    let written: u64 = compactions.iter().map(|c| c.bytes_written).sum();
    extra.insert(
        "core.compact_bytes_per_update_byte",
        ratio(written as f64, update_bytes),
    );

    // Server work per request, replayed in process through serve_frame.
    extra.insert("server.serve_us.hit", stats::median(hit));
    extra.insert("server.serve_us.miss", stats::median(miss));
    extra.insert("server.replayed", (hit.len() + miss.len()) as f64);
    let mut all: Vec<f64> = hit.iter().chain(miss).copied().collect();
    let serve_p50 = summarize(&mut all).map(|s| s.p50.value);
    extra.insert(
        "tcp.overhead_us",
        match (reference_p50_ms, serve_p50) {
            (Some(r), Some(s)) if *over_tcp => r * 1e3 - s,
            _ => 0.0,
        },
    );

    // The generator: lateness over the traced ladder, and late phases.
    let mut lateness: Vec<f64> = ladder
        .iter()
        .flat_map(|p| p.outcome.lateness_ms.iter().copied())
        .collect();
    lateness.sort_unstable_by(f64::total_cmp);
    extra.insert(
        "loadgen.lateness_p99_ms",
        percentile(&lateness, 0.99).map_or(0.0, |p| p.value),
    );
    extra.insert(
        "loadgen.late_phases",
        ladder.iter().filter(|p| p.late()).count() as f64,
    );

    // Tracing overhead: traced minus untraced median latency at r1.
    let mut r1 = ladder[0].outcome.search_ms.clone();
    let traced_p50 = summarize(&mut r1).map(|s| s.p50.value);
    let overhead = match (traced_p50, reference_p50_ms) {
        (Some(t), Some(u)) => t - u,
        _ => 0.0,
    };
    extra.insert("trace.overhead_p50_ms", overhead);
    eprintln!(
        "tracing overhead at r1: untraced p50 {} ms, traced p50 {} ms, overhead {} ms",
        reference_p50_ms.map_or("-".into(), |v| format!("{v:.4}")),
        traced_p50.map_or("-".into(), |v| format!("{v:.4}")),
        format_args!("{overhead:.4}")
    );

    // Self time per layer: request spans per traced request; the layer
    // timings and the replay are measurements of their own, in total ms.
    let spans = tracer.spans();
    let roots: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == trace::ROOT)
        .map(|s| s.req)
        .collect();
    let (on_path, measured): (Vec<_>, Vec<_>) =
        spans.into_iter().partition(|s| roots.contains(&s.req));
    let requests = roots.len().max(1) as f64;
    let per_request = trace::self_time_by_layer(&on_path);
    for (metric, layer) in [
        ("self_us.request", "request"),
        ("self_us.loadgen", "loadgen"),
        ("self_us.owner", "owner"),
        ("self_us.codec", "codec"),
        ("self_us.wire", "wire"),
        ("self_us.router", "router"),
        ("self_us.server", "server"),
        ("self_us.check", "check"),
    ] {
        let ns = per_request.get(layer).copied().unwrap_or(0) as f64;
        extra.insert(metric, ns / requests / 1e3);
    }
    eprintln!("self time per layer over {requests} traced requests (us/request):");
    let mut layers: Vec<_> = per_request.into_iter().collect();
    layers.sort_unstable();
    for (layer, ns) in layers {
        eprintln!("  {layer:<10} {:>12.3}", ns as f64 / requests / 1e3);
    }
    eprintln!("self time of the layer timings and the replay (ms total):");
    let mut layers: Vec<_> = trace::self_time_by_layer(&measured).into_iter().collect();
    layers.sort_unstable();
    for (layer, ns) in layers {
        eprintln!("  {layer:<10} {:>12.3}", ns as f64 / 1e6);
    }
}

/// Median encode and decode time (µs) and mean encoded size of `messages`.
fn codec_times(messages: &[&Message]) -> (f64, f64, f64) {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut bytes = 0usize;
    for m in messages {
        let t = Instant::now();
        let frame = m.encode();
        enc.push(t.elapsed().as_secs_f64() * 1e6);
        bytes += frame.len();
        let t = Instant::now();
        let back = Message::decode(frame).expect("recorded reply re-decodes");
        dec.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(back);
    }
    (
        stats::median(&enc),
        stats::median(&dec),
        ratio(bytes as f64, messages.len() as f64),
    )
}

fn dump_spans(args: &RunArgs, tracer: &Tracer) {
    let path = PathBuf::from(".bench_work").join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name, args.seed
    ));
    match trace::dump(&tracer.spans(), &path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn run_sharded(args: &RunArgs, inputs: &Inputs, work_dir: &Path) -> Result<RunResult, String> {
    let w = args.workload;
    let user = User::new(MASTER_SEED, RsseParams::default());
    let legs: HashMap<u16, Vec<Message>> = (0..inputs.oracle.terms.len() as u16)
        .map(|t| {
            let legs = user
                .shard_query(
                    &inputs.oracle.terms[t as usize],
                    Some(TOP_K as u32),
                    spec::SHARDS as u32,
                )
                .expect("query terms have trapdoors");
            (t, legs)
        })
        .collect();
    let planned = plan(args, inputs);
    let reps = if args.trace { 1 } else { spec::SETUP_REPS };
    let mut setup = Vec::with_capacity(reps);
    let mut deployment: Option<ShardedDeployment> = None;
    for _ in 0..reps {
        if let Some(d) = deployment.take() {
            d.shutdown();
        }
        let (d, time) = setup_sharded(inputs, &legs[&0])?;
        setup.push(time);
        deployment = Some(d);
    }
    let deployment = deployment.expect("at least one setup");

    let mut extra = BTreeMap::new();
    let tracer = Tracer::new();
    if args.trace && !args.probe {
        measure_layers(inputs, &[], work_dir, &tracer, &mut extra);
    }
    let scheme = Rsse::new(MASTER_SEED, RsseParams::default());
    let updater = scheme
        .updater_for(&inputs.plain)
        .map_err(|e| e.to_string())?;
    let adder = Mutex::new(Adder::new(updater, MASTER_SEED, &inputs.oracle));
    let plain_target = ShardTarget {
        deployment: &deployment,
        oracle: &inputs.oracle,
        legs: &legs,
        tracer: None,
    };
    let traced_target = ShardTarget {
        tracer: args.trace.then_some(&tracer),
        ..plain_target
    };
    // A layer probe has one caller: see `spec::PROBES`.
    let callers = if args.probe { 1 } else { spec::SHARD_CALLERS };
    let warm = inputs.schedule(w, args.seed, "warmup", w.rates[0], spec::WARMUP);
    let warmup = scheduled_sharded(&plain_target, &adder, &warm, callers);
    let reference_p50 = if args.trace {
        let reference = inputs.schedule(w, args.seed, "reference", w.rates[0], r1_span(args));
        let mut r = scheduled_sharded(&plain_target, &adder, &reference, callers);
        summarize(&mut r.search_ms).map(|s| s.p50.value)
    } else {
        None
    };
    let servers: Vec<Arc<CloudServer>> = (0..spec::SHARDS)
        .map(|s| deployment.shard_server(s).expect("shard exists"))
        .collect();
    let counters = |d: &ShardedDeployment| Counters {
        cache: servers
            .iter()
            .map(|s| s.cache_stats())
            .fold(CacheStats::default(), sum_cache),
        conj: servers
            .iter()
            .map(|s| s.conjunctive_cache_stats())
            .fold(CacheStats::default(), sum_cache),
        merged: d.router().merged_cache_stats(),
        tcp: TcpServerStats::default(),
    };
    let before = counters(&deployment);
    let routing_before = deployment.router().replica_routing();
    let rounds = drive_rounds(args, &planned, |drive| match drive {
        Drive::Open(schedule) => scheduled_sharded(&traced_target, &adder, schedule, callers),
        Drive::Probe(ops) => closed_sharded(&plain_target, &adder, ops, 1, PROBE_SPAN),
        Drive::Closed(ops, span) => closed_sharded(&plain_target, &adder, ops, callers, span),
        Drive::InProcess(..) => unreachable!("the sharded workload has no in-process phase"),
    });
    let after = counters(&deployment);
    let routing_after = deployment.router().replica_routing();

    let mut check_errors = Vec::new();
    let samples = kept_samples(&warmup, &rounds);
    let deep_checked = deep_check(inputs, &samples, &mut check_errors);

    if args.trace {
        let (mut traffic, mut searches, mut updates) = (rsse_cloud::TrafficReport::default(), 0, 0);
        for r in &rounds {
            for p in r.phases() {
                traffic.absorb(&p.outcome.traffic);
                searches += p.outcome.searches;
                updates += p.outcome.adds;
            }
        }
        extra.insert(
            "router.legs_per_query",
            ratio(traffic.shard_legs as f64, searches as f64),
        );
        extra.insert(
            "router.pruned_share",
            ratio(
                traffic.pruned_legs as f64,
                (traffic.shard_legs + traffic.pruned_legs) as f64,
            ),
        );
        extra.insert(
            "router.filter_fetches_per_update",
            ratio(traffic.filter_fetches as f64, updates as f64),
        );
        let skew = routing_after
            .iter()
            .zip(&routing_before)
            .map(|(a, b)| {
                let counts: Vec<f64> = a.iter().zip(b).map(|(x, y)| (x - y) as f64).collect();
                let mean = counts.iter().sum::<f64>() / counts.len().max(1) as f64;
                ratio(counts.iter().copied().fold(0.0, f64::max), mean)
            })
            .fold(0.0, f64::max);
        extra.insert("router.replica_skew", skew);
        // Server work per scatter leg: the first round's r1 searches,
        // each leg replayed on its shard.
        let replayed = replay(
            &tracer,
            planned[0].rungs[0]
                .iter()
                .filter_map(|(_, op)| match op {
                    Op::Search(t) => Some(&legs[t]),
                    _ => None,
                })
                .flat_map(|legs| {
                    legs.iter()
                        .enumerate()
                        .map(|(shard, leg)| (&*servers[shard], leg.encode().to_vec()))
                }),
        );
        traced_metrics(
            &mut extra,
            &tracer,
            &Window {
                ladder: rounds.iter().flat_map(|r| &r.rungs).collect(),
                samples: &samples,
                reference_p50_ms: reference_p50,
                before,
                after,
                updates,
                update_bytes: 0,
                compactions: &[],
                replayed,
                over_tcp: false,
            },
        );
        dump_spans(args, &tracer);
    }
    drop(adder);
    deployment.shutdown();
    Ok(Collected {
        setup,
        warmup: PhaseReport {
            name: "warmup".into(),
            offered: Some(w.rates[0]),
            outcome: warmup,
        },
        rounds,
        check_errors,
        deep_checked,
        extra,
    }
    .finish(args, inputs))
}
