//! The load generator: open-loop (seeded schedule, latency from each
//! request's due time) and closed-loop (fixed requests in flight) loops
//! over loopback TCP, and their scatter-gather counterparts over the
//! in-process shard router.
//!
//! The TCP client speaks the wire format directly (`frame_message` up,
//! `FrameAssembler` down) over one socket split into a send half and a
//! receive half, so sends keep to the schedule however slowly replies
//! come back. Request bodies are encoded before the window; only document
//! adds are built at send time, because the owner's work is part of an
//! update's latency.

use crate::check::{Oracle, ADDED_ID_BASE};
use crate::cpu;
use crate::trace::Tracer;
use bytes::BytesMut;
use rsse_cloud::{
    frame_message, serve_frame, CloudError, CloudServer, EncryptedFile, FileCrypter,
    FrameAssembler, Message, ShardedDeployment,
};
use rsse_core::{CompactionStats, IndexUpdate, IndexUpdater};
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Results asked of every search.
pub const TOP_K: usize = 10;
/// How long a phase waits for its last replies before they count as
/// timed out.
const DRAIN: Duration = Duration::from_secs(5);
/// Calibration units run before and after each in-process batch.
const CALIB_UNITS: usize = 16;
/// One reply in this many is kept for the deep check.
const DEEP_EVERY: usize = 64;

/// One operation of a workload's mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Single-keyword top-k search for a query term.
    Search(u16),
    /// Two-keyword conjunctive top-k search.
    Conj(u16, u16),
    /// The next document add.
    Add,
}

impl Op {
    /// The query terms, empty for an add.
    pub fn terms(&self) -> Vec<u16> {
        match *self {
            Op::Search(t) => vec![t],
            Op::Conj(a, b) => vec![a, b],
            Op::Add => Vec::new(),
        }
    }
}

/// A reply kept for the deep check.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The query it answered.
    pub op: Op,
    /// `(file id, mapped scores)` in rank order.
    pub ranking: Vec<(u64, Vec<u64>)>,
    /// The encrypted files, in rank order.
    pub files: Vec<EncryptedFile>,
    /// Adds sent when the reply was read.
    pub visible: usize,
    /// The decoded reply, for the codec timings (TCP replies only).
    pub message: Option<Message>,
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseOutcome {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed: error frames, sheds, timeouts, failed checks.
    pub failed: u64,
    /// Replies that arrived but were wrong: undecodable, of the wrong
    /// kind, or failing the output check.
    pub wrong: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Search latencies in ms, in due-time order (failures excluded).
    pub search_ms: Vec<f64>,
    /// Update latencies in ms.
    pub update_ms: Vec<f64>,
    /// How late the generator sent each request, ms.
    pub lateness_ms: Vec<f64>,
    /// Framed bytes up plus down.
    pub wire_bytes: u64,
    /// Update-frame bytes sent.
    pub update_bytes: u64,
    /// Successful replies.
    pub ok: u64,
    /// From the phase's start to its last reply.
    pub elapsed: Duration,
    /// Replies kept for the deep check.
    pub samples: Vec<Sample>,
    /// Searches sent.
    pub searches: u64,
    /// Adds sent.
    pub adds: u64,
    /// Sum of the router's per-search traffic (sharded phases only).
    pub traffic: rsse_cloud::TrafficReport,
    /// Process CPU time over the phase, in cores (CPU seconds per second).
    pub cpu_cores: f64,
    /// Process CPU seconds over the phase, every thread.
    pub cpu_s: f64,
    /// CPU seconds of the generator's own threads (TCP phases): what is
    /// left of `cpu_s` is the program's, the owner's adds aside.
    pub gen_cpu_s: f64,
    /// In-process phases: the thread's CPU µs per operation, one value
    /// per batch.
    pub op_cpu_us: Vec<f64>,
    /// In-process phases: the calibration's CPU µs per unit, measured
    /// beside each batch.
    pub calib_us: Vec<f64>,
}

impl PhaseOutcome {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    fn reject(&mut self, verdict: Rejected) {
        if verdict.wrong {
            self.wrong += 1;
        }
        self.failed += 1;
        let why = verdict.why;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    /// Successful replies per second over the phase.
    pub fn goodput(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// The owner side of document adds: encrypts the next planned document's
/// postings (`IndexUpdater::add_document`) and file, and optionally starts
/// a live background compaction every `every` adds.
pub struct Adder<'a> {
    updater: IndexUpdater<'a>,
    crypter: FileCrypter,
    oracle: &'a Oracle,
    /// Adds handed out so far; replies may show documents below it.
    sent: Arc<AtomicUsize>,
    compactor: Option<(Arc<CloudServer>, usize)>,
    running: Vec<JoinHandle<Result<CompactionStats, CloudError>>>,
    /// Finished compactions.
    pub compactions: Vec<CompactionStats>,
}

impl<'a> Adder<'a> {
    /// An adder over the oracle's planned documents.
    pub fn new(updater: IndexUpdater<'a>, master_seed: &[u8], oracle: &'a Oracle) -> Self {
        Adder {
            updater,
            crypter: FileCrypter::new(master_seed),
            oracle,
            sent: Arc::new(AtomicUsize::new(0)),
            compactor: None,
            running: Vec::new(),
            compactions: Vec::new(),
        }
    }

    /// Starts a background compaction of `server` every `every` adds.
    pub fn compact_every(&mut self, server: Arc<CloudServer>, every: usize) {
        self.compactor = Some((server, every));
    }

    /// The shared count of adds handed out.
    pub fn visibility(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.sent)
    }

    /// Adds handed out so far.
    fn visible(&self) -> usize {
        self.sent.load(Ordering::Acquire)
    }

    /// The next document's update, encrypted file and file id.
    pub fn next(&mut self) -> Result<(IndexUpdate, EncryptedFile, u64), String> {
        let j = self.sent.load(Ordering::Relaxed);
        let added = self
            .oracle
            .added
            .get(j)
            .ok_or("the run added more documents than it planned")?;
        let update = self
            .updater
            .add_document(&added.doc)
            .map_err(|e| format!("add_document failed: {e}"))?;
        let file = self.crypter.encrypt(&added.doc);
        // Published before the update leaves, so no reply can show the
        // document while it still counts as unsent.
        self.sent.store(j + 1, Ordering::Release);
        Ok((update, file, ADDED_ID_BASE + j as u64))
    }

    /// The next add as an encoded `Update` frame body.
    pub fn next_frame(&mut self) -> Result<Vec<u8>, String> {
        let (update, file, _) = self.next()?;
        let body = Message::Update {
            rsse_lists: update.into_parts(),
            files: vec![file],
        }
        .encode()
        .to_vec();
        self.maybe_compact()?;
        Ok(body)
    }

    fn maybe_compact(&mut self) -> Result<(), String> {
        let Some((server, every)) = &self.compactor else {
            return Ok(());
        };
        if !self.visible().is_multiple_of(*every) {
            return Ok(());
        }
        let server = Arc::clone(server);
        self.reap(false)?;
        if !self.running.is_empty() {
            // The previous pass is still merging; the next trigger retries.
            return Ok(());
        }
        if let Some(handle) = server
            .compact_index_background()
            .map_err(|e| format!("compaction failed to start: {e}"))?
        {
            self.running.push(handle);
        }
        Ok(())
    }

    /// Collects finished compactions; with `wait`, waits for all of them.
    pub fn reap(&mut self, wait: bool) -> Result<(), String> {
        let mut still = Vec::new();
        for handle in self.running.drain(..) {
            if wait || handle.is_finished() {
                let stats = handle
                    .join()
                    .map_err(|_| "compaction thread panicked".to_string())?
                    .map_err(|e| format!("compaction failed: {e}"))?;
                self.compactions.push(stats);
            } else {
                still.push(handle);
            }
        }
        self.running = still;
        Ok(())
    }
}

/// A decoded, checked search reply.
type Checked = (Vec<(u64, Vec<u64>)>, Vec<EncryptedFile>, Message);

/// Why a reply failed: `wrong` when the server answered but the answer
/// is wrong, rather than refused (error frames, sheds).
#[derive(Debug)]
struct Rejected {
    wrong: bool,
    why: String,
}

fn wrong(why: String) -> Rejected {
    Rejected { wrong: true, why }
}

/// Decodes one reply body and checks it against the oracle. Returns the
/// decoded reply of a search, `None` for an update acknowledgement.
fn judge(
    oracle: &Oracle,
    op: Op,
    body: &[u8],
    visible: usize,
) -> Result<Option<Checked>, Rejected> {
    let msg = Message::decode(BytesMut::from(body))
        .map_err(|e| wrong(format!("reply does not decode: {e}")))?;
    let (ranking, files) = match (op, &msg) {
        (Op::Add, Message::UpdateAck { files_added: 1, .. }) => return Ok(None),
        (Op::Search(_), Message::RsseResponse { ranking, files }) => (
            ranking.iter().map(|&(id, s)| (id, vec![s])).collect(),
            files.clone(),
        ),
        (Op::Conj(..), Message::ConjunctiveResponse { ranking, files }) => {
            (ranking.clone(), files.clone())
        }
        (_, Message::Error { kind, detail }) => {
            return Err(Rejected {
                wrong: false,
                why: format!("error frame {kind:?}: {detail}"),
            })
        }
        (_, _) => return Err(wrong(format!("unexpected reply to {op:?}"))),
    };
    let ids: Vec<u64> = files.iter().map(|f| f.id().as_u64()).collect();
    oracle
        .check_reply(&op.terms(), TOP_K, &ranking, &ids, visible)
        .map_err(wrong)?;
    Ok(Some((ranking, files, msg)))
}

/// Opens one connection and splits it into send and receive halves.
fn connect(addr: SocketAddr) -> Result<(TcpStream, TcpStream), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let rx = stream.try_clone().map_err(|e| e.to_string())?;
    rx.set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(|e| e.to_string())?;
    Ok((stream, rx))
}

/// One read from the socket; complete frames are appended to `out`.
/// Returns the bytes read (0 on a read timeout).
fn read_frames(
    rx: &mut TcpStream,
    asm: &mut FrameAssembler,
    buf: &mut [u8],
    out: &mut Vec<(u64, Vec<u8>)>,
) -> Result<usize, String> {
    match rx.read(buf) {
        Ok(0) => Err("server closed the connection".into()),
        Ok(n) => {
            asm.feed(&buf[..n]);
            while let Some(frame) = asm
                .next_frame()
                .map_err(|e| format!("garbled stream: {e}"))?
            {
                out.push(frame);
            }
            Ok(n)
        }
        Err(e)
            if matches!(
                e.kind(),
                ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
            ) =>
        {
            Ok(0)
        }
        Err(e) => Err(format!("read failed: {e}")),
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Everything a TCP phase needs besides its schedule.
pub struct TcpTarget<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// Ground truth.
    pub oracle: &'a Oracle,
    /// Encoded request bodies per query.
    pub bodies: &'a HashMap<Op, Vec<u8>>,
    /// Spans, on a traced run.
    pub tracer: Option<&'a Tracer>,
}

/// What the sender half reports.
struct SendLog {
    cpu_s: f64,
    lateness_ms: Vec<f64>,
    up: u64,
    update_bytes: u64,
    error: Option<String>,
}

/// Shared between the two halves of an open-loop phase.
struct Progress {
    sent: AtomicUsize,
    done: AtomicBool,
    /// Per request: ns after `start` at which its frame was written.
    written_ns: Vec<AtomicU64>,
}

/// Runs one open-loop phase: request `i` is due at `start + at[i]` and is
/// sent then, whatever happened to earlier ones; its latency runs from
/// the due time to its reply decoded at the client.
pub fn open_loop_tcp(
    target: &TcpTarget<'_>,
    adder: &mut Adder<'_>,
    schedule: &[(Duration, Op)],
) -> PhaseOutcome {
    let n = schedule.len();
    let mut out = PhaseOutcome {
        attempted: n as u64,
        searches: schedule.iter().filter(|s| s.1 != Op::Add).count() as u64,
        adds: schedule.iter().filter(|s| s.1 == Op::Add).count() as u64,
        ..Default::default()
    };
    let (mut tx, mut rx) = match connect(target.addr) {
        Ok(pair) => pair,
        Err(e) => {
            out.failed = n as u64;
            out.errors.push(e);
            return out;
        }
    };
    let visible = adder.visibility();
    let progress = Progress {
        sent: AtomicUsize::new(0),
        done: AtomicBool::new(false),
        written_ns: (0..if target.tracer.is_some() { n } else { 0 })
            .map(|_| AtomicU64::new(0))
            .collect(),
    };
    let trace_base = target.tracer.map_or(0, |t| t.reserve(n as u64));
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + schedule[i].0;

    let gen_cpu = cpu::thread_s();
    let log = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let cpu_at_start = cpu::thread_s();
            let mut log = SendLog {
                cpu_s: 0.0,
                lateness_ms: Vec::with_capacity(n),
                up: 0,
                update_bytes: 0,
                error: None,
            };
            for (i, (_, op)) in schedule.iter().enumerate() {
                let due_i = due(i);
                sleep_until(due_i);
                let send_at = Instant::now();
                log.lateness_ms.push(ms(send_at - due_i));
                let body = match op {
                    Op::Add => match adder.next_frame() {
                        Ok(body) => {
                            log.update_bytes += body.len() as u64;
                            Cow::Owned(body)
                        }
                        Err(e) => {
                            log.error = Some(e);
                            break;
                        }
                    },
                    _ => Cow::Borrowed(&target.bodies[op][..]),
                };
                let built = Instant::now();
                let frame = frame_message(i as u64, &body);
                if let Err(e) = tx.write_all(&frame) {
                    log.error = Some(format!("write failed: {e}"));
                    break;
                }
                log.up += frame.len() as u64;
                progress.sent.store(i + 1, Ordering::Release);
                if let Some(t) = target.tracer {
                    let written = Instant::now();
                    progress.written_ns[i].store(
                        written.saturating_duration_since(start).as_nanos() as u64,
                        Ordering::Release,
                    );
                    let req = trace_base + i as u64;
                    t.span(req, "loadgen.wait", due_i, send_at);
                    if *op == Op::Add {
                        t.span(req, "owner.add", send_at, built);
                    }
                    t.span(req, "codec.frame_write", built, written);
                }
            }
            progress.done.store(true, Ordering::Release);
            log.cpu_s = cpu::thread_s() - cpu_at_start;
            log
        });

        let mut asm = FrameAssembler::new();
        let mut buf = vec![0u8; 64 << 10];
        let mut done = vec![false; n];
        let mut lat = vec![f64::NAN; n];
        let mut received = 0usize;
        let mut down = 0u64;
        let mut frames = Vec::new();
        let mut kept = 0usize;
        let mut last_done = start;
        let hard_deadline = start + schedule.last().map_or(Duration::ZERO, |s| s.0) + DRAIN;
        loop {
            let sender_done = progress.done.load(Ordering::Acquire);
            if received >= progress.sent.load(Ordering::Acquire) && (sender_done || received >= n) {
                break;
            }
            if Instant::now() > hard_deadline {
                break;
            }
            match read_frames(&mut rx, &mut asm, &mut buf, &mut frames) {
                Ok(bytes) => down += bytes as u64,
                Err(e) => {
                    out.fail(e);
                    break;
                }
            }
            let read_at = Instant::now();
            for (seq, body) in frames.drain(..) {
                let i = seq as usize;
                if i >= n || done[i] {
                    out.fail(format!("reply for unknown request {seq}"));
                    continue;
                }
                done[i] = true;
                received += 1;
                let op = schedule[i].1;
                let vis = visible.load(Ordering::Acquire);
                let verdict = judge(target.oracle, op, &body, vis);
                let decoded = Instant::now();
                last_done = decoded;
                match verdict {
                    Ok(reply) => {
                        out.ok += 1;
                        lat[i] = ms(decoded - due(i));
                        if let Some((ranking, files, message)) = reply {
                            if kept.is_multiple_of(DEEP_EVERY) {
                                out.samples.push(Sample {
                                    op,
                                    ranking,
                                    files,
                                    visible: vis,
                                    message: Some(message),
                                });
                            }
                            kept += 1;
                        }
                    }
                    Err(e) => out.reject(e),
                }
                if let Some(t) = target.tracer {
                    let req = trace_base + i as u64;
                    let written = start
                        + Duration::from_nanos(progress.written_ns[i].load(Ordering::Acquire));
                    t.span(req, "wire.rtt_server", written.min(read_at), read_at);
                    t.span(req, "codec.decode_check", read_at, decoded);
                    t.root(req, "request", due(i), decoded);
                }
            }
        }
        let _ = rx.shutdown(Shutdown::Both);
        let log = sender.join().expect("sender thread panicked");
        let sent = progress.sent.load(Ordering::Acquire);
        if let Some(e) = &log.error {
            out.fail(e.clone());
        }
        // Never sent: the sender's error above covers the first; the
        // rest fail silently with it.
        out.failed += (n - sent).saturating_sub(1) as u64;
        for i in (0..sent).filter(|&i| !done[i]) {
            out.fail(format!("request {i} timed out"));
        }
        out.wire_bytes = log.up + down;
        out.elapsed = last_done.saturating_duration_since(start);
        for (i, l) in lat.iter().enumerate().filter(|(_, l)| l.is_finite()) {
            match schedule[i].1 {
                Op::Add => out.update_ms.push(*l),
                _ => out.search_ms.push(*l),
            }
        }
        log
    });
    out.lateness_ms = log.lateness_ms;
    out.update_bytes = log.update_bytes;
    out.gen_cpu_s = cpu::thread_s() - gen_cpu + log.cpu_s;
    out
}

/// Runs one closed-loop phase over one connection: `window` requests are
/// kept in flight until `span` has passed or `ops` run out; each latency
/// runs from its send to its reply decoded.
pub fn closed_loop_tcp(
    target: &TcpTarget<'_>,
    adder: &mut Adder<'_>,
    ops: &[Op],
    window: usize,
    span: Duration,
) -> PhaseOutcome {
    let gen_cpu = cpu::thread_s();
    let mut out = PhaseOutcome::default();
    let (mut tx, mut rx) = match connect(target.addr) {
        Ok(pair) => pair,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.errors.push(e);
            return out;
        }
    };
    let start = Instant::now();
    let end = start + span;
    let mut inflight: HashMap<u64, (Instant, Op)> = HashMap::new();
    let mut next = 0usize;
    let mut asm = FrameAssembler::new();
    let mut buf = vec![0u8; 64 << 10];
    let mut frames = Vec::new();
    let mut kept = 0usize;
    let mut last_done = start;
    let visible = adder.visibility();
    let mut send = |out: &mut PhaseOutcome, inflight: &mut HashMap<u64, (Instant, Op)>| {
        let Some(&op) = ops.get(next) else {
            return Ok(());
        };
        let seq = next as u64;
        next += 1;
        let sent_at = Instant::now();
        let body = match op {
            Op::Add => match adder.next_frame() {
                Ok(body) => {
                    out.update_bytes += body.len() as u64;
                    Cow::Owned(body)
                }
                Err(e) => return Err(e),
            },
            _ => Cow::Borrowed(&target.bodies[&op][..]),
        };
        let frame = frame_message(seq, &body);
        tx.write_all(&frame)
            .map_err(|e| format!("write failed: {e}"))?;
        out.wire_bytes += frame.len() as u64;
        out.attempted += 1;
        match op {
            Op::Add => out.adds += 1,
            _ => out.searches += 1,
        }
        inflight.insert(seq, (sent_at, op));
        Ok(())
    };
    for _ in 0..window {
        if let Err(e) = send(&mut out, &mut inflight) {
            out.attempted += 1;
            out.fail(e);
            break;
        }
    }
    let hard_deadline = end + DRAIN;
    while !inflight.is_empty() && Instant::now() < hard_deadline {
        match read_frames(&mut rx, &mut asm, &mut buf, &mut frames) {
            Ok(bytes) => out.wire_bytes += bytes as u64,
            Err(e) => {
                out.fail(e);
                break;
            }
        }
        for (seq, body) in std::mem::take(&mut frames) {
            let Some((sent_at, op)) = inflight.remove(&seq) else {
                out.fail(format!("reply for unknown request {seq}"));
                continue;
            };
            let vis = visible.load(Ordering::Acquire);
            let verdict = judge(target.oracle, op, &body, vis);
            let decoded = Instant::now();
            last_done = decoded;
            match verdict {
                Ok(reply) => {
                    out.ok += 1;
                    let l = ms(decoded - sent_at);
                    match op {
                        Op::Add => out.update_ms.push(l),
                        _ => out.search_ms.push(l),
                    }
                    if let Some((ranking, files, message)) = reply {
                        if kept.is_multiple_of(DEEP_EVERY) {
                            out.samples.push(Sample {
                                op,
                                ranking,
                                files,
                                visible: vis,
                                message: Some(message),
                            });
                        }
                        kept += 1;
                    }
                }
                Err(e) => out.reject(e),
            }
            if Instant::now() < end {
                if let Err(e) = send(&mut out, &mut inflight) {
                    out.attempted += 1;
                    out.fail(e);
                }
            }
        }
    }
    for _ in 0..inflight.len() {
        out.fail("request timed out".into());
    }
    let _ = rx.shutdown(Shutdown::Both);
    out.elapsed = last_done.saturating_duration_since(start);
    out.gen_cpu_s = cpu::thread_s() - gen_cpu;
    out
}

/// Runs `ops` in process on the calling thread, `batch` at a time, until
/// they run out or `span` has passed. Each operation is what a TCP worker
/// and its client do for it, without the sockets: the owner builds an add's
/// frame, `serve_frame` answers the request frame, and the client decodes
/// the reply. The thread's CPU time over each batch, per operation, goes
/// to `op_cpu_us`; the replies are checked after their batch, untimed.
pub fn in_process(
    server: &CloudServer,
    target: &TcpTarget<'_>,
    adder: &mut Adder<'_>,
    ops: &[Op],
    batch: usize,
    span: Duration,
) -> PhaseOutcome {
    let mut out = PhaseOutcome::default();
    let start = Instant::now();
    let visible = adder.visibility();
    let mut kept = 0usize;
    let mut replies = Vec::with_capacity(batch);
    let mut calibrator = cpu::Calibrator::new();
    for chunk in ops.chunks(batch) {
        if start.elapsed() >= span {
            break;
        }
        let calib = calibrator.run(CALIB_UNITS);
        let cpu_at_start = cpu::thread_s();
        for &op in chunk {
            let body = match op {
                Op::Add => match adder.next_frame() {
                    Ok(body) => Cow::Owned(body),
                    Err(e) => {
                        out.attempted += 1;
                        out.fail(e);
                        break;
                    }
                },
                _ => Cow::Borrowed(&target.bodies[&op][..]),
            };
            let reply = serve_frame(server, &body, None);
            std::hint::black_box(Message::decode(BytesMut::from(&reply[..])).is_ok());
            replies.push((op, reply));
        }
        if replies.len() == chunk.len() {
            out.op_cpu_us
                .push((cpu::thread_s() - cpu_at_start) * 1e6 / chunk.len() as f64);
            out.calib_us
                .push((calib + calibrator.run(CALIB_UNITS)) / 2.0);
        }
        let vis = visible.load(Ordering::Acquire);
        for (op, reply) in replies.drain(..) {
            out.attempted += 1;
            match op {
                Op::Add => out.adds += 1,
                _ => out.searches += 1,
            }
            match judge(target.oracle, op, &reply, vis) {
                Ok(checked) => {
                    out.ok += 1;
                    if let Some((ranking, files, message)) = checked {
                        if kept.is_multiple_of(DEEP_EVERY) {
                            out.samples.push(Sample {
                                op,
                                ranking,
                                files,
                                visible: vis,
                                message: Some(message),
                            });
                        }
                        kept += 1;
                    }
                }
                Err(e) => out.reject(e),
            }
        }
        if !out.errors.is_empty() {
            break;
        }
    }
    out.elapsed = start.elapsed();
    out
}

/// Everything a sharded phase needs besides its schedule.
pub struct ShardTarget<'a> {
    /// The deployment: owner-built shards behind the tuned router.
    pub deployment: &'a ShardedDeployment,
    /// Ground truth.
    pub oracle: &'a Oracle,
    /// Scatter legs per query term, built before the window.
    pub legs: &'a HashMap<u16, Vec<Message>>,
    /// Spans, on a traced run.
    pub tracer: Option<&'a Tracer>,
}

/// One caller's share of a sharded phase.
#[derive(Default)]
struct CallerLog {
    out: PhaseOutcome,
    /// `(schedule index, latency ms)` of successful searches.
    search: Vec<(usize, f64)>,
}

/// Runs one sharded operation on the calling thread: a scatter-gather
/// search through the router, or an owner-side add applied to the shard
/// owning the new file. Returns the router traffic of a search.
fn shard_op(
    target: &ShardTarget<'_>,
    adder: &Mutex<Adder<'_>>,
    visible: &AtomicUsize,
    op: Op,
    req: u64,
    log: &mut CallerLog,
) -> Result<(), Rejected> {
    let refused = |why: String| Rejected { wrong: false, why };
    let tracer = target.tracer;
    match op {
        Op::Add => {
            let began = Instant::now();
            let (update, file, id) = adder
                .lock()
                .expect("adder lock poisoned")
                .next()
                .map_err(refused)?;
            let built = Instant::now();
            let shard = target
                .deployment
                .partitioner()
                .shard_of(rsse_ir::FileId::new(id));
            target
                .deployment
                .shard_server(shard)
                .ok_or_else(|| refused("no server for the owning shard".into()))?
                .apply_update(update, vec![file]);
            if let Some(t) = tracer {
                t.span(req, "owner.add", began, built);
                t.span(req, "server.apply_update", built, Instant::now());
            }
            Ok(())
        }
        Op::Search(term) => {
            let began = Instant::now();
            let outcome = target
                .deployment
                .router()
                .scatter(target.legs[&term].clone(), Some(TOP_K))
                .map_err(|e| refused(format!("scatter failed: {e}")))?;
            let merged = Instant::now();
            log.out.traffic.absorb(&outcome.traffic);
            log.out.wire_bytes += outcome.traffic.total_bytes() as u64;
            if !outcome.is_complete() {
                return Err(refused(format!(
                    "{} scatter legs degraded",
                    outcome.degraded.len()
                )));
            }
            let ranking: Vec<(u64, Vec<u64>)> = outcome
                .ranking
                .iter()
                .map(|r| (r.file.as_u64(), vec![r.encrypted_score]))
                .collect();
            let ids: Vec<u64> = outcome.files.iter().map(|f| f.id().as_u64()).collect();
            let vis = visible.load(Ordering::Acquire);
            target
                .oracle
                .check_reply(&op.terms(), TOP_K, &ranking, &ids, vis)
                .map_err(wrong)?;
            if let Some(t) = tracer {
                t.span(req, "router.scatter", began, merged);
                t.span(req, "check.reply", merged, Instant::now());
            }
            if (log.out.ok as usize).is_multiple_of(DEEP_EVERY) {
                log.out.samples.push(Sample {
                    op,
                    ranking,
                    files: outcome.files,
                    visible: vis,
                    message: None,
                });
            }
            Ok(())
        }
        Op::Conj(..) => Err(refused("the sharded workload sends no conjunctions".into())),
    }
}

fn merge_callers(logs: Vec<CallerLog>, start: Instant, ends: Vec<Instant>) -> PhaseOutcome {
    let mut out = PhaseOutcome::default();
    let mut search = Vec::new();
    for log in logs {
        let o = log.out;
        out.attempted += o.attempted;
        out.failed += o.failed;
        out.wrong += o.wrong;
        out.ok += o.ok;
        out.searches += o.searches;
        out.adds += o.adds;
        out.wire_bytes += o.wire_bytes;
        out.traffic.absorb(&o.traffic);
        out.update_ms.extend(o.update_ms);
        out.lateness_ms.extend(o.lateness_ms);
        out.samples.extend(o.samples);
        for e in o.errors {
            if out.errors.len() < 5 {
                out.errors.push(e);
            }
        }
        search.extend(log.search);
    }
    search.sort_unstable_by_key(|&(i, _)| i);
    out.search_ms = search.into_iter().map(|(_, l)| l).collect();
    let last = ends.into_iter().max().unwrap_or(start);
    out.elapsed = last.saturating_duration_since(start);
    out
}

/// Runs one scheduled sharded phase with `callers` blocking caller
/// threads: each takes the next due operation, waits for its due time if
/// it is early, and calls the router. Latency runs from the due time, so
/// an operation that waited for a free caller counts that wait; lateness
/// is only the wake-up delay of a caller that was idle at the due time.
pub fn scheduled_sharded(
    target: &ShardTarget<'_>,
    adder: &Mutex<Adder<'_>>,
    schedule: &[(Duration, Op)],
    callers: usize,
) -> PhaseOutcome {
    let n = schedule.len();
    let visible = adder.lock().expect("adder lock poisoned").visibility();
    let next = AtomicUsize::new(0);
    let trace_base = target.tracer.map_or(0, |t| t.reserve(n as u64));
    let start = Instant::now() + Duration::from_millis(2);
    let (logs, ends): (Vec<CallerLog>, Vec<Instant>) = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..callers)
            .map(|_| {
                scope.spawn(|| {
                    let mut log = CallerLog::default();
                    let mut last = start;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let (at, op) = schedule[i];
                        let due = start + at;
                        if Instant::now() < due {
                            sleep_until(due);
                            log.out.lateness_ms.push(ms(Instant::now() - due));
                        }
                        let began = Instant::now();
                        log.out.attempted += 1;
                        match op {
                            Op::Add => log.out.adds += 1,
                            _ => log.out.searches += 1,
                        }
                        let req = trace_base + i as u64;
                        let result = shard_op(target, adder, &visible, op, req, &mut log);
                        let done = Instant::now();
                        last = done;
                        if let Some(t) = target.tracer {
                            t.span(req, "loadgen.wait", due, began);
                            t.root(req, "request", due, done);
                        }
                        match result {
                            Ok(()) => {
                                log.out.ok += 1;
                                match op {
                                    Op::Add => log.out.update_ms.push(ms(done - due)),
                                    _ => log.search.push((i, ms(done - due))),
                                }
                            }
                            Err(e) => log.out.reject(e),
                        }
                    }
                    (log, last)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("caller thread panicked"))
            .unzip()
    });
    merge_callers(logs, start, ends)
}

/// Runs one closed-loop sharded phase: each of `callers` threads sends
/// its share of `ops` (every `callers`-th) back to back until `span` has
/// passed or its share runs out.
pub fn closed_sharded(
    target: &ShardTarget<'_>,
    adder: &Mutex<Adder<'_>>,
    ops: &[Op],
    callers: usize,
    span: Duration,
) -> PhaseOutcome {
    let visible = adder.lock().expect("adder lock poisoned").visibility();
    let start = Instant::now();
    let end = start + span;
    let (logs, ends): (Vec<CallerLog>, Vec<Instant>) = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..callers)
            .map(|c| {
                let visible = &visible;
                scope.spawn(move || {
                    let mut log = CallerLog::default();
                    let mut last = start;
                    let mut k = c;
                    while Instant::now() < end && k < ops.len() {
                        let op = ops[k];
                        k += callers;
                        log.out.attempted += 1;
                        match op {
                            Op::Add => log.out.adds += 1,
                            _ => log.out.searches += 1,
                        }
                        let began = Instant::now();
                        let result = shard_op(target, adder, visible, op, 0, &mut log);
                        let done = Instant::now();
                        last = done;
                        match result {
                            Ok(()) => {
                                log.out.ok += 1;
                                match op {
                                    Op::Add => log.out.update_ms.push(ms(done - began)),
                                    _ => log.search.push((k, ms(done - began))),
                                }
                            }
                            Err(e) => log.out.reject(e),
                        }
                    }
                    (log, last)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("caller thread panicked"))
            .unzip()
    });
    merge_callers(logs, start, ends)
}
