//! One benchmark run: generate → ingest through switch + PrintQueue with a
//! `.pqa` spill → replicate to two pq-serve backends behind a pq-router →
//! diagnose victims through the router, checking every answer.
//!
//! An untraced run reports the end-to-end metrics. A traced run repeats the
//! same workload with timing wrappers around each layer's public calls and
//! reports the per-layer metrics instead.

use crate::check::{same_monitor, same_result, undegraded, Tally};
use crate::spec::{Spec, ACCURACY_FLOOR, MIN_VICTIM_DEPTH};
use crate::traced::{Clock, SinkClock, SpanLog, TimedHooks, TimedSink};
use pq_core::coefficient::Coefficients;
use pq_core::control::AnalysisProgram;
use pq_core::culprits::GroundTruth;
use pq_core::metrics::{precision_recall, to_float_counts, FlowCounts};
use pq_core::printqueue::{PrintQueue, PrintQueueConfig};
use pq_core::snapshot::QueryInterval;
use pq_packet::{FlowId, PacketMeta};
use pq_router::{epochs, merge_results, BackendSpec, Router, RouterConfig, RouterHandle};
use pq_serve::cache::ArchiveView;
use pq_serve::{
    Client, DecodeCache, RemoteMonitor, RemoteResult, Request, ServeConfig, Server, ServerHandle,
    Sources,
};
use pq_store::{ship_archive, Recovery, SegmentCache, SharedStoreWriter, StoreReader, StoreWriter};
use pq_switch::TelemetrySink;
use pq_switch::{PortConfig, PortStats, QueueHooks, Switch, SwitchConfig, TelemetryRecord};
use pq_telemetry::{names, Telemetry};
use pq_trace::workload::GeneratedTrace;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufReader};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up (generation, replication, bind) is repeated this many times and
/// its median reported, so one slow pass does not set the figure.
const SETUP_ROUNDS: usize = 3;
/// Ingest rounds: at least this many, each over the whole trace.
const MIN_INGEST_ROUNDS: usize = 3;
const MAX_INGEST_ROUNDS: usize = 24;
/// Share of `--seconds` given to ingest rounds; diagnosis gets the rest.
const INGEST_SHARE: f64 = 0.3;
/// Diagnoses per timed round: ten lie beyond each round's 99th percentile.
pub const ROUND_DIAGNOSES: usize = 1_000;
/// Untimed diagnoses before the first round (connections, caches).
const WARMUP_DIAGNOSES: usize = 64;
/// Timed diagnosis rounds per run, at least.
const MIN_ROUNDS: usize = 3;
/// Victims graded against ground truth (accuracy, unbiased recovery); the
/// ground-truth scans are linear in the trace, so not every victim is.
const GRADED_VICTIMS: usize = 64;
/// Victims whose archive queries a traced run also prices uncached.
const COLD_SAMPLE: usize = 16;
/// Buffer cell size of the simulated switch.
const CELL_BYTES: u32 = 80;

/// How a run is driven.
pub struct Options {
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory for archives and replicas (removed afterwards).
    pub work_dir: PathBuf,
    /// Where a traced run writes its spans.
    pub spans_out: PathBuf,
    /// Diagnoses per timed round (the self-tests lower it).
    pub round_diagnoses: usize,
}

/// A run's outcome: checked operations plus named metrics.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// One ingest pass over the whole trace.
struct Ingested {
    analysis: AnalysisProgram,
    archive: Vec<u8>,
    wall: Duration,
    stats: Vec<PortStats>,
    timing: Option<IngestTiming>,
}

/// Per-layer clocks of a traced ingest pass.
#[derive(Default, Clone, Copy)]
struct IngestTiming {
    switch_run_ns: u64,
    enqueue: Clock,
    dequeue: Clock,
    tick: Clock,
    sink: Clock,
}

impl IngestTiming {
    fn add(&mut self, o: &IngestTiming) {
        self.switch_run_ns += o.switch_run_ns;
        for (a, b) in [
            (&mut self.enqueue, o.enqueue),
            (&mut self.dequeue, o.dequeue),
            (&mut self.tick, o.tick),
            (&mut self.sink, o.sink),
        ] {
            a.calls += b.calls;
            a.ns += b.ns;
        }
    }
}

/// A victim packet and the intervals of its three culprit queries.
#[derive(Debug, Clone, Copy)]
struct Victim {
    id: u32,
    port: u16,
    seqno: u64,
    enq: u64,
    deq: u64,
    indirect_from: u64,
    indirect_to: u64,
}

impl Victim {
    fn direct(&self, d: u64) -> Request {
        Request::Replay {
            port: self.port,
            from: self.enq,
            to: self.deq,
            d,
        }
    }

    fn indirect(&self, d: u64) -> Request {
        Request::Replay {
            port: self.port,
            from: self.indirect_from,
            to: self.indirect_to,
            d,
        }
    }
}

/// The in-process answers a routed diagnosis must reproduce.
struct Expected {
    direct: RemoteResult,
    indirect: RemoteResult,
    monitor: RemoteMonitor,
}

/// The serving fleet: two backends sharing one live analysis program,
/// each with its own archive replica, behind one router.
struct Fleet {
    backends: Vec<ServerHandle>,
    planes: Vec<Telemetry>,
    router: RouterHandle,
    router_plane: Telemetry,
}

impl Fleet {
    fn shutdown(self) -> io::Result<()> {
        self.router.shutdown()?;
        for b in self.backends {
            b.shutdown()?;
        }
        Ok(())
    }
}

fn switch_config(spec: &Spec) -> SwitchConfig {
    SwitchConfig {
        ports: vec![PortConfig::default(); usize::from(spec.ports)],
        cell_bytes: CELL_BYTES,
    }
}

fn printqueue_config(spec: &Spec) -> PrintQueueConfig {
    let mut config = PrintQueueConfig::single_port(spec.tw, spec.d);
    config.ports = (0..spec.ports).collect();
    config
}

/// Ingest the trace once: switch + PrintQueue hooks + periodic polling +
/// `.pqa` spill, timed from the first packet to the sealed archive.
fn ingest(spec: &Spec, trace: &GeneratedTrace, timed: bool) -> io::Result<Ingested> {
    let config = printqueue_config(spec);
    let poll = config.control.poll_period;
    let mut pq = PrintQueue::new(config);
    let writer = SharedStoreWriter::new(StoreWriter::new(Vec::new(), spec.tw, spec.segment)?);
    let sink_clock = Arc::new(SinkClock::default());
    if timed {
        pq.analysis_mut().set_spill(Box::new(TimedSink {
            inner: writer.clone(),
            clock: Arc::clone(&sink_clock),
        }));
    } else {
        pq.analysis_mut().set_spill(Box::new(writer.clone()));
    }
    let mut sw = Switch::new(switch_config(spec));
    let arrivals = trace.arrivals.iter().copied();
    let start = Instant::now();
    let mut timing = None;
    if timed {
        let mut hooks = TimedHooks::new(&mut pq);
        {
            let mut list: [&mut dyn QueueHooks; 1] = [&mut hooks];
            sw.run(arrivals, &mut list, poll);
        }
        timing = Some(IngestTiming {
            switch_run_ns: start.elapsed().as_nanos() as u64,
            enqueue: hooks.enqueue,
            dequeue: hooks.dequeue,
            tick: hooks.tick,
            sink: Clock::default(),
        });
    } else {
        let mut list: [&mut dyn QueueHooks; 1] = [&mut pq];
        sw.run(arrivals, &mut list, poll);
    }
    drop(pq.analysis_mut().take_spill());
    let archive = writer.finish()?;
    let wall = start.elapsed();
    if let Some(t) = timing.as_mut() {
        t.sink = sink_clock.read();
    }
    Ok(Ingested {
        analysis: pq.into_analysis(),
        archive,
        wall,
        stats: (0..spec.ports).map(|p| *sw.port_stats(p)).collect(),
        timing,
    })
}

/// Untimed replay of the same trace through the same (deterministic)
/// switch, collecting every transmitted packet's telemetry record.
fn ground_truth_pass(spec: &Spec, trace: &GeneratedTrace) -> (Vec<GroundTruth>, Vec<PortStats>) {
    let mut sink = TelemetrySink::new();
    let mut sw = Switch::new(switch_config(spec));
    {
        let mut list: [&mut dyn QueueHooks; 1] = [&mut sink];
        sw.run(trace.arrivals.iter().copied(), &mut list, 0);
    }
    let mut per_port: Vec<Vec<TelemetryRecord>> = vec![Vec::new(); usize::from(spec.ports)];
    for r in sink.records {
        per_port[usize::from(r.port)].push(r);
    }
    let truths = per_port
        .iter()
        .map(|recs| GroundTruth::new(recs, CELL_BYTES))
        .collect();
    let stats = (0..spec.ports).map(|p| *sw.port_stats(p)).collect();
    (truths, stats)
}

fn bind_fleet(spec: &Spec, replicas: &[PathBuf], live: &Arc<AnalysisProgram>) -> io::Result<Fleet> {
    let mut backends = Vec::new();
    let mut specs = Vec::new();
    let mut planes = Vec::new();
    for (i, replica) in replicas.iter().enumerate() {
        let plane = Telemetry::new();
        let server = Server::bind(
            ("127.0.0.1", 0),
            Sources {
                live: Some(Arc::clone(live)),
                archive: Some(replica.clone()),
                rtt: Vec::new(),
            },
            ServeConfig {
                workers: 1,
                shard: format!("shard-{i}"),
                ..ServeConfig::default()
            },
            &plane,
        )?;
        let handle = server.spawn()?;
        specs.push(BackendSpec {
            name: format!("shard-{i}"),
            addr: handle.addr().to_string(),
        });
        backends.push(handle);
        planes.push(plane);
    }
    let router_plane = Telemetry::new();
    let router = Router::bind(
        ("127.0.0.1", 0),
        specs,
        RouterConfig {
            replication: 2,
            epoch_ns: spec.epoch_ns,
            ..RouterConfig::default()
        },
        &router_plane,
    )?
    .spawn()?;
    Ok(Fleet {
        backends,
        planes,
        router,
        router_plane,
    })
}

fn as_remote(r: pq_core::control::QueryResult, checkpoints: u64) -> RemoteResult {
    RemoteResult {
        estimates: r.estimates,
        gaps: r.gaps,
        degraded: r.degraded,
        checkpoints,
        trace: None,
    }
}

/// The archive reader the benchmark queries in-process.
type Archive = StoreReader<BufReader<File>>;

/// The in-process archive answer to a replay request, sliced and merged
/// exactly as the router slices time-sharded requests, plus the number of
/// segments decoded for it.
fn store_answer(
    reader: &mut Archive,
    mut cache: Option<&mut ArchiveView>,
    req: Request,
    coeffs: &Coefficients,
    epoch_ns: u64,
) -> io::Result<(RemoteResult, u64)> {
    let Request::Replay { port, from, to, .. } = req else {
        unreachable!("store answers replay requests only");
    };
    let mut parts = Vec::new();
    let mut decoded = 0;
    for s in epochs(from, to, epoch_ns) {
        let interval = QueryInterval::new(s.from, s.to);
        let r = reader.query_cached(
            port,
            interval,
            coeffs,
            cache.as_mut().map(|c| &mut **c as &mut dyn SegmentCache),
        )?;
        decoded += reader.last_query_stats().decoded;
        parts.push(as_remote(r, reader.checkpoint_count(port)));
    }
    let merged = merge_results(parts).expect("epochs() is never empty");
    Ok((merged, decoded))
}

/// The live analysis program's answer to the same request.
fn live_answer(live: &AnalysisProgram, req: Request, epoch_ns: u64) -> RemoteResult {
    let Request::Replay { port, from, to, .. } = req else {
        unreachable!("live answers mirror replay requests only");
    };
    let checkpoints = live.checkpoints(port).len() as u64;
    let parts = epochs(from, to, epoch_ns)
        .into_iter()
        .map(|s| {
            as_remote(
                live.query_time_windows(port, QueryInterval::new(s.from, s.to)),
                checkpoints,
            )
        })
        .collect();
    merge_results(parts).expect("epochs() is never empty")
}

/// The live queue-monitor answer, shaped as the server sends it.
fn monitor_answer(live: &AnalysisProgram, port: u16, at: u64) -> Option<RemoteMonitor> {
    let ans = live.query_queue_monitor(port, at)?;
    let mut counts: Vec<(FlowId, u64)> = ans.culprit_counts().into_iter().collect();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Some(RemoteMonitor {
        frozen_at: ans.frozen_at,
        staleness: ans.staleness,
        degraded: ans.degraded,
        gaps: ans.gaps.clone(),
        counts,
        trace: None,
    })
}

/// FNV-1a over every arrival, to compare regenerated traces without
/// holding two in memory.
fn fingerprint(trace: &GeneratedTrace) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for a in &trace.arrivals {
        for word in [
            a.pkt.arrival,
            u64::from(a.pkt.flow.0),
            u64::from(a.pkt.len),
            u64::from(a.port),
        ] {
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// splitmix64: the benchmark's own seeded sampler.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Sample victims: packets that met a queue of at least `MIN_VICTIM_DEPTH`
/// cells, drawn uniformly per port, then interleaved across ports in a
/// seeded random order. Each victim's indirect interval runs from the
/// start of its congestion regime, capped at the look-back, to just before
/// its enqueue.
fn select_victims(
    spec: &Spec,
    truths: &[GroundTruth],
    live: &AnalysisProgram,
    seed: u64,
) -> Vec<Victim> {
    let mut rng = Rng(seed ^ 0x5EED);
    let mut victims = Vec::new();
    for (p, truth) in truths.iter().enumerate() {
        let port = p as u16;
        let last = live.checkpoints(port).last().map_or(0, |c| c.frozen_at);
        let mut pool: Vec<&TelemetryRecord> = truth
            .records()
            .iter()
            .filter(|r| r.meta.enq_qdepth >= MIN_VICTIM_DEPTH && r.deq_timestamp() <= last)
            .collect();
        // Queue depth every `d` ns (one minimum-size packet time): the
        // regime before a victim starts at the last sample that saw an
        // empty queue. One pass here instead of a scan per victim.
        let depth = truth.depth_series(0, last, spec.d);
        let regime_start = |at: u64| {
            let floor = at.saturating_sub(spec.lookback);
            let mut i = (at / spec.d) as usize;
            while i > 0 && depth[i].0 > floor && depth[i].1 > 0 {
                i -= 1;
            }
            depth[i].0.max(floor)
        };
        let take = spec.victims_per_port.min(pool.len());
        for i in 0..take {
            let j = i + rng.below(pool.len() - i);
            pool.swap(i, j);
            let r = pool[i];
            let enq = r.meta.enq_timestamp;
            let to = enq.saturating_sub(1);
            let from = regime_start(enq).min(to);
            victims.push(Victim {
                id: 0,
                port,
                seqno: r.seqno,
                enq,
                deq: r.deq_timestamp(),
                indirect_from: from,
                indirect_to: to,
            });
        }
    }
    for i in (1..victims.len()).rev() {
        let j = rng.below(i + 1);
        victims.swap(i, j);
    }
    for (i, v) in victims.iter_mut().enumerate() {
        v.id = i as u32 + 1;
    }
    victims
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process, in MiB.
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

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Issue one diagnosis (three requests) on `client`; returns the answers
/// or the first error.
fn diagnose(
    client: &mut Client,
    v: &Victim,
    d: u64,
) -> Result<(RemoteResult, RemoteResult, RemoteMonitor), String> {
    let direct = client
        .query(v.direct(d))
        .map_err(|e| format!("direct: {e}"))?;
    let indirect = client
        .query(v.indirect(d))
        .map_err(|e| format!("indirect: {e}"))?;
    let monitor = client
        .queue_monitor(v.port, v.deq)
        .map_err(|e| format!("monitor: {e}"))?;
    Ok((direct, indirect, monitor))
}

/// Check one diagnosis's three answers against the in-process ones:
/// three operations.
fn check_diagnosis(
    tally: &mut Tally,
    v: &Victim,
    got: Result<(RemoteResult, RemoteResult, RemoteMonitor), String>,
    want: &Expected,
    via: &str,
) {
    match got {
        Err(e) => {
            for _ in 0..3 {
                tally.check(false, || format!("{via} victim {}: {e}", v.id));
            }
        }
        Ok((direct, indirect, monitor)) => {
            let r = same_result(&direct, &want.direct)
                .and_then(|_| undegraded(direct.degraded, direct.gaps.len()));
            tally.check(r.is_ok(), || format!("{via} victim {} direct: {r:?}", v.id));
            let r = same_result(&indirect, &want.indirect)
                .and_then(|_| undegraded(indirect.degraded, indirect.gaps.len()));
            tally.check(r.is_ok(), || {
                format!("{via} victim {} indirect: {r:?}", v.id)
            });
            let r = same_monitor(&monitor, &want.monitor)
                .and_then(|_| undegraded(monitor.degraded, monitor.gaps.len()));
            tally.check(r.is_ok(), || {
                format!("{via} victim {} original: {r:?}", v.id)
            });
        }
    }
}

/// A ground-truth record standing for "the queue at instant `at`": the
/// original-culprit chain GroundTruth reports for it is the chain a
/// queue-monitor snapshot frozen at `at` should hold.
fn instant_probe(port: u16, at: u64) -> TelemetryRecord {
    TelemetryRecord {
        flow: FlowId(u32::MAX),
        port,
        len: 0,
        seqno: u64::MAX,
        meta: PacketMeta {
            egress_port: port,
            enq_timestamp: at,
            deq_timedelta: 0,
            enq_qdepth: 0,
            queue: 0,
        },
    }
}

/// Trace generation, repeated: every pass must give the same trace.
/// Returns the last pass's trace and each pass's time.
fn generate(
    spec: &Spec,
    seed: u64,
    spans: &mut SpanLog,
    tally: &mut Tally,
) -> (GeneratedTrace, Vec<f64>) {
    let mut gen_s = Vec::with_capacity(SETUP_ROUNDS);
    let mut trace = None;
    let mut first_print = None;
    for _ in 0..SETUP_ROUNDS {
        drop(trace.take());
        let t = Instant::now();
        let next = spec.generate(seed);
        gen_s.push(secs(t.elapsed()));
        spans.span("trace.generate", t, 0);
        let print = fingerprint(&next);
        if let Some(first) = first_print {
            tally.check(print == first, || {
                "trace generation is not deterministic".into()
            });
        }
        first_print = Some(print);
        trace = Some(next);
    }
    (trace.expect("at least one set-up round"), gen_s)
}

/// What the ingest rounds leave behind.
struct IngestPhase {
    /// The last round: its analysis program and archive are served.
    kept: Ingested,
    plain_walls: Vec<f64>,
    traced_walls: Vec<f64>,
    /// Per-layer clocks summed over the traced rounds.
    timing: IngestTiming,
    round_stats: Vec<Vec<PortStats>>,
}

/// Ingest the whole trace in rounds until the ingest share of the run is
/// spent. A traced run alternates plain and wrapped rounds, so the
/// wrappers' own cost shows as the ratio of the two medians.
fn ingest_phase(
    spec: &Spec,
    trace: &GeneratedTrace,
    opts: &Options,
    spans: &mut SpanLog,
) -> io::Result<IngestPhase> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds * INGEST_SHARE);
    let min_rounds = if opts.traced {
        2 * MIN_INGEST_ROUNDS
    } else {
        MIN_INGEST_ROUNDS
    };
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut round_stats = Vec::new();
    let mut timing = IngestTiming::default();
    let mut kept = None;
    let mut round = 0;
    while round < min_rounds || (start.elapsed() < budget && round < MAX_INGEST_ROUNDS) {
        let timed = opts.traced && round % 2 == 1;
        drop(kept.take());
        let t = Instant::now();
        let out = ingest(spec, trace, timed)?;
        spans.span(
            if timed {
                "ingest.round_traced"
            } else {
                "ingest.round"
            },
            t,
            0,
        );
        match &out.timing {
            Some(tm) => {
                timing.add(tm);
                traced_walls.push(secs(out.wall));
            }
            None => plain_walls.push(secs(out.wall)),
        }
        round_stats.push(out.stats.clone());
        kept = Some(out);
        round += 1;
    }
    Ok(IngestPhase {
        kept: kept.expect("at least one ingest round"),
        plain_walls,
        traced_walls,
        timing,
        round_stats,
    })
}

/// Conservation per port: transmitted + tail-dropped = generated
/// arrivals, in the ground-truth pass and in every ingest round alike.
fn check_conservation(
    spec: &Spec,
    trace: &GeneratedTrace,
    truths: &[GroundTruth],
    gt_stats: &[PortStats],
    round_stats: &[Vec<PortStats>],
    tally: &mut Tally,
) {
    let mut arrivals = vec![0u64; usize::from(spec.ports)];
    for a in &trace.arrivals {
        arrivals[usize::from(a.port)] += 1;
    }
    for (p, s) in gt_stats.iter().enumerate() {
        let conserved = s.dequeued + s.dropped == arrivals[p]
            && truths[p].records().len() as u64 == s.dequeued
            && round_stats
                .iter()
                .all(|r| r[p].dequeued == s.dequeued && r[p].dropped == s.dropped);
        tally.check(conserved, || {
            format!(
                "port {p}: {} sent + {} dropped != {} arrivals",
                s.dequeued, s.dropped, arrivals[p]
            )
        });
    }
}

/// Archive integrity: the file opens from its trailer index and holds
/// exactly the checkpoints the analysis program stored, port by port.
fn check_archive(
    spec: &Spec,
    source: &Path,
    live: &AnalysisProgram,
    tally: &mut Tally,
) -> io::Result<()> {
    let reader = StoreReader::open(BufReader::new(File::open(source)?))?;
    let stored = live.health().checkpoints_stored;
    let indexed = reader.recovery() == Recovery::Index && !reader.tail_torn();
    let total: u64 = (0..spec.ports).map(|p| reader.checkpoint_count(p)).sum();
    tally.check(indexed && total == stored, || {
        format!("archive holds {total} checkpoints, {stored} polls stored")
    });
    for p in 0..spec.ports {
        let (a, b) = (reader.checkpoint_count(p), live.checkpoints(p).len() as u64);
        tally.check(a == b, || {
            format!("port {p}: archive {a} vs live {b} checkpoints")
        });
    }
    Ok(())
}

/// Replicate the archive to both backends and bind the fleet, repeated;
/// the last fleet serves. Returns it with each pass's replicate and bind
/// times.
fn setup_fleet(
    spec: &Spec,
    source: &Path,
    work_dir: &Path,
    live: &Arc<AnalysisProgram>,
    spans: &mut SpanLog,
) -> io::Result<(Fleet, Vec<f64>, Vec<f64>)> {
    let replicas: Vec<PathBuf> = (0..2)
        .map(|i| work_dir.join(format!("replica-{i}.pqa")))
        .collect();
    let mut replicate_s = Vec::new();
    let mut bind_s = Vec::new();
    let mut fleet = None;
    for _ in 0..SETUP_ROUNDS {
        if let Some(f) = fleet.take() {
            Fleet::shutdown(f)?;
        }
        let t = Instant::now();
        for dst in &replicas {
            ship_archive(source, dst)?;
        }
        replicate_s.push(secs(t.elapsed()));
        spans.span("store.replicate", t, 0);
        let t = Instant::now();
        fleet = Some(bind_fleet(spec, &replicas, live)?);
        bind_s.push(secs(t.elapsed()));
        spans.span("fleet.bind", t, 0);
    }
    Ok((
        fleet.expect("at least one set-up round"),
        replicate_s,
        bind_s,
    ))
}

/// In-process answers for every victim, with the clocks around them.
struct InProcess {
    expected: Vec<(Victim, Expected)>,
    /// Uncached archive queries (traced runs, first `COLD_SAMPLE`
    /// victims), and the segments they decoded.
    cold: Clock,
    cold_segments: u64,
    windows: Clock,
    monitor: Clock,
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Answer every victim's three queries in-process (archive, live windows,
/// live monitor) and run the offline checks: store == live bit
/// for bit, unbiased recovery, and the accuracy floor against ground truth.
#[allow(clippy::too_many_arguments)]
fn answer_in_process(
    spec: &Spec,
    victims: &[Victim],
    truths: &[GroundTruth],
    live: &AnalysisProgram,
    reader: &mut Archive,
    coeffs: &Coefficients,
    price_cold: bool,
    spans: &mut SpanLog,
    tally: &mut Tally,
) -> io::Result<InProcess> {
    let mut out = InProcess {
        expected: Vec::with_capacity(victims.len()),
        cold: Clock::default(),
        cold_segments: 0,
        windows: Clock::default(),
        monitor: Clock::default(),
    };
    let (mut dp, mut dr, mut op, mut or) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut chains: HashMap<(u16, u64), FlowCounts> = HashMap::new();
    let cache = DecodeCache::new(ServeConfig::default().cache_bytes, &Telemetry::new());
    let mut view = cache.for_archive(0);
    // Answer in archive order, so the decode cache holds each segment
    // while its victims are answered.
    let mut in_order: Vec<&Victim> = victims.iter().collect();
    in_order.sort_by_key(|v| (v.port, v.enq));
    for v in in_order {
        let truth = &truths[usize::from(v.port)];
        let graded = v.id as usize <= GRADED_VICTIMS;
        // Some victims also price an uncached query (every segment
        // decoded); the answers themselves come through a decode cache.
        if price_cold && v.id as usize <= COLD_SAMPLE {
            let t = Instant::now();
            let (_, n1) = store_answer(reader, None, v.direct(spec.d), coeffs, spec.epoch_ns)?;
            let (_, n2) = store_answer(reader, None, v.indirect(spec.d), coeffs, spec.epoch_ns)?;
            out.cold.add_since(t);
            out.cold_segments += n1 + n2;
            spans.span("store.query_cold", t, v.id);
        }
        let (direct, _) = store_answer(
            reader,
            Some(&mut view),
            v.direct(spec.d),
            coeffs,
            spec.epoch_ns,
        )?;
        let (indirect, _) = store_answer(
            reader,
            Some(&mut view),
            v.indirect(spec.d),
            coeffs,
            spec.epoch_ns,
        )?;

        let t = Instant::now();
        let live_direct = live_answer(live, v.direct(spec.d), spec.epoch_ns);
        let live_indirect = live_answer(live, v.indirect(spec.d), spec.epoch_ns);
        out.windows.add_since(t);
        spans.span("core.query_time_windows", t, v.id);
        let t = Instant::now();
        let monitor = monitor_answer(live, v.port, v.deq);
        out.monitor.add_since(t);
        spans.span("core.query_queue_monitor", t, v.id);

        // Bit-identity: archive replay == live registers, undegraded.
        for (what, store, from_live) in [
            ("direct", &direct, &live_direct),
            ("indirect", &indirect, &live_indirect),
        ] {
            let r = same_result(store, from_live)
                .and_then(|_| undegraded(store.degraded, store.gaps.len()));
            tally.check(r.is_ok(), || {
                format!("victim {} {what} store vs live: {r:?}", v.id)
            });
        }
        let Some(monitor) = monitor else {
            tally.check(false, || {
                format!("victim {}: no queue-monitor checkpoint", v.id)
            });
            continue;
        };
        // Unbiased recovery over the indirect interval. Intervals reaching
        // into the first set period after start are left out: there the
        // windows under-count by up to 5x on some seeds (CHANGES.md,
        // FOUND), so no tolerance would hold on every seed.
        let first_poll = live.checkpoints(v.port).first().map_or(0, |c| c.frozen_at);
        if let Some(tol) = spec.unbiased_tolerance.filter(|_| graded) {
            if v.indirect_from >= first_poll {
                let true_count: u64 = truth
                    .direct_culprits(v.indirect_from, v.indirect_to, u64::MAX)
                    .values()
                    .sum();
                let est = indirect.estimates.total();
                let slack = tol * true_count as f64 + 1.0;
                tally.check((est - true_count as f64).abs() <= slack, || {
                    format!(
                        "victim {} indirect estimate {est:.1} vs {true_count} dequeued",
                        v.id
                    )
                });
            }
        }
        // Accuracy against ground truth: direct culprits over [enq, deq];
        // original culprits against the chain at the snapshot's instant.
        if graded {
            let direct_truth = to_float_counts(&truth.direct_culprits(v.enq, v.deq, v.seqno));
            let pr = precision_recall(&direct.estimates.counts, &direct_truth);
            dp.push(pr.precision);
            dr.push(pr.recall);
            let chain = chains
                .entry((v.port, monitor.frozen_at))
                .or_insert_with(|| {
                    to_float_counts(
                        &truth
                            .report(&instant_probe(v.port, monitor.frozen_at))
                            .original,
                    )
                });
            let est: FlowCounts = monitor
                .counts
                .iter()
                .map(|(f, n)| (*f, *n as f64))
                .collect();
            let pr = precision_recall(&est, chain);
            op.push(pr.precision);
            or.push(pr.recall);
        }
        out.expected.push((
            *v,
            Expected {
                direct,
                indirect,
                monitor,
            },
        ));
    }
    out.expected.sort_by_key(|(v, _)| v.id);
    for (what, got) in [
        ("direct precision", mean(&dp)),
        ("direct recall", mean(&dr)),
        ("original precision", mean(&op)),
        ("original recall", mean(&or)),
    ] {
        tally.check(got >= ACCURACY_FLOOR, || {
            format!("mean {what} {got:.3} below floor {ACCURACY_FLOOR}")
        });
    }
    eprintln!(
        "[ledger] {} victims; mean direct P/R {:.3}/{:.3}, original P/R {:.3}/{:.3}",
        out.expected.len(),
        mean(&dp),
        mean(&dr),
        mean(&op),
        mean(&or)
    );
    Ok(out)
}

/// Routed diagnoses in a closed loop from one client: an untimed warm-up,
/// then rounds of `round_diagnoses` diagnoses until
/// the diagnosis share of the run is spent (at least `MIN_ROUNDS`). qps,
/// p50 and p99 are each the median over rounds, so a burst of interference
/// skews one round rather than the figure. With 1000 diagnoses a round,
/// ten lie beyond each round's p99.
fn routed_phase(
    spec: &Spec,
    fleet: &Fleet,
    expected: &[(Victim, Expected)],
    opts: &Options,
    tally: &mut Tally,
) -> io::Result<[(&'static str, f64, &'static str); 3]> {
    let mut client = Client::connect(fleet.router.addr()).map_err(io::Error::other)?;
    for (v, want) in expected.iter().take(WARMUP_DIAGNOSES) {
        check_diagnosis(tally, v, diagnose(&mut client, v, spec.d), want, "router");
    }
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds * (1.0 - INGEST_SHARE));
    let (mut qps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut i = 0usize;
    while !expected.is_empty() && (qps.len() < MIN_ROUNDS || Instant::now() < deadline) {
        let mut lat_ms = Vec::with_capacity(opts.round_diagnoses);
        let start = Instant::now();
        while lat_ms.len() < opts.round_diagnoses {
            let (v, want) = &expected[i % expected.len()];
            let t = Instant::now();
            let got = diagnose(&mut client, v, spec.d);
            lat_ms.push(secs(t.elapsed()) * 1e3);
            check_diagnosis(tally, v, got, want, "router");
            i += 1;
        }
        qps.push(lat_ms.len() as f64 / secs(start.elapsed()));
        lat_ms.sort_by(f64::total_cmp);
        p50.push(percentile(&lat_ms, 0.50));
        p99.push(percentile(&lat_ms, 0.99));
    }
    Ok([
        ("diagnose_qps", median(&qps), "1/s"),
        ("diagnose_p50_ms", median(&p50), "ms"),
        ("diagnose_p99_ms", median(&p99), "ms"),
    ])
}

/// Per-layer clocks of the traced diagnosis loop.
struct TracedServing {
    warm: Clock,
    serve: Clock,
    routed: Clock,
}

/// Traced diagnoses, one victim at a time, three ways: in-process through
/// a warm decode cache, straight to one backend, and through the router.
/// Every answer is checked; a backend's answers are unsliced.
#[allow(clippy::too_many_arguments)]
fn traced_phase(
    spec: &Spec,
    fleet: &Fleet,
    expected: &[(Victim, Expected)],
    reader: &mut Archive,
    coeffs: &Coefficients,
    opts: &Options,
    spans: &mut SpanLog,
    tally: &mut Tally,
) -> io::Result<TracedServing> {
    let cache = DecodeCache::new(ServeConfig::default().cache_bytes, &Telemetry::new());
    let mut view = cache.for_archive(0);
    // A backend answers unsliced; that differs from the routed answer only
    // when the router slices time.
    let mut unsliced: HashMap<u32, Expected> = HashMap::new();
    if spec.epoch_ns != 0 {
        for (v, want) in expected {
            let (direct, _) = store_answer(reader, Some(&mut view), v.direct(spec.d), coeffs, 0)?;
            let (indirect, _) =
                store_answer(reader, Some(&mut view), v.indirect(spec.d), coeffs, 0)?;
            let monitor = want.monitor.clone();
            unsliced.insert(
                v.id,
                Expected {
                    direct,
                    indirect,
                    monitor,
                },
            );
        }
    }
    let mut clocks = TracedServing {
        warm: Clock::default(),
        serve: Clock::default(),
        routed: Clock::default(),
    };
    let mut to_backend = Client::connect(fleet.backends[0].addr()).map_err(io::Error::other)?;
    let mut to_router = Client::connect(fleet.router.addr()).map_err(io::Error::other)?;
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds * (1.0 - INGEST_SHARE));
    let mut i = 0usize;
    while !expected.is_empty() && (i < expected.len() || Instant::now() < deadline) {
        let (v, want) = &expected[i % expected.len()];
        let t = Instant::now();
        for req in [v.direct(spec.d), v.indirect(spec.d)] {
            store_answer(reader, Some(&mut view), req, coeffs, spec.epoch_ns)?;
        }
        clocks.warm.add_since(t);
        spans.span("store.query_warm", t, v.id);
        let t = Instant::now();
        let got = diagnose(&mut to_backend, v, spec.d);
        clocks.serve.add_since(t);
        spans.span("serve.diagnose", t, v.id);
        check_diagnosis(
            tally,
            v,
            got,
            unsliced.get(&v.id).unwrap_or(want),
            "backend",
        );
        let t = Instant::now();
        let got = diagnose(&mut to_router, v, spec.d);
        clocks.routed.add_since(t);
        spans.span("router.diagnose", t, v.id);
        check_diagnosis(tally, v, got, want, "router");
        i += 1;
    }
    Ok(clocks)
}

/// Pin every thread of this process, and every thread it starts later, to
/// the last CPU it may run on, with `taskset` (when installed).
///
/// The serving phase is a closed loop of cross-thread hand-offs (client →
/// router → backend reader → worker and back). On the two-vCPU reference
/// VM a wake-up across vCPUs cost so much, and so variably, that routed
/// qps moved 3x and p99 ranged 2–27 ms between runs of one seed; on one
/// CPU the loop held steady. Generation and ingest run before this and
/// keep every CPU.
fn pin_to_one_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu: u32 = allowed.trim().rsplit([',', '-']).next()?.parse().ok()?;
    let ok = std::process::Command::new("taskset")
        .args([
            "-a",
            "-c",
            "-p",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .status()
        .ok()?
        .success();
    ok.then_some(cpu)
}

/// Run `spec` once.
pub fn run(spec: &Spec, seed: u64, opts: &Options) -> io::Result<Outcome> {
    let mut spans = SpanLog::new(Instant::now());
    let mut tally = Tally::default();
    std::fs::create_dir_all(&opts.work_dir)?;

    let t0 = Instant::now();
    let (trace, gen_s) = generate(spec, seed, &mut spans, &mut tally);
    let t1 = Instant::now();
    let ingest = ingest_phase(spec, &trace, opts, &mut spans)?;
    let t2 = Instant::now();
    let IngestPhase {
        kept,
        plain_walls,
        traced_walls,
        timing,
        round_stats,
    } = ingest;
    let checkpoints_stored = kept.analysis.health().checkpoints_stored;
    let bytes_read = kept.analysis.bytes_read;
    let archive_len = kept.archive.len() as u64;
    // Per-packet figures count transmitted packets: the ones that went
    // through PrintQueue's hooks. Tail drops only show in conservation.
    let packets: u64 = kept.stats.iter().map(|s| s.dequeued).sum();

    let t = Instant::now();
    let (truths, gt_stats) = ground_truth_pass(spec, &trace);
    spans.span("truth.replay", t, 0);
    check_conservation(spec, &trace, &truths, &gt_stats, &round_stats, &mut tally);
    drop(trace);

    let source = opts.work_dir.join("source.pqa");
    std::fs::write(&source, &kept.archive)?;
    let live = Arc::new(kept.analysis);
    check_archive(spec, &source, &live, &mut tally)?;

    let cpu = pin_to_one_cpu();
    eprintln!("[ledger] serving phase pinned to CPU {cpu:?}");
    let t3 = Instant::now();
    let (fleet, replicate_s, bind_s) =
        setup_fleet(spec, &source, &opts.work_dir, &live, &mut spans)?;
    let t4 = Instant::now();
    let setup_s: Vec<f64> = (0..SETUP_ROUNDS)
        .map(|r| gen_s[r] + replicate_s[r] + bind_s[r])
        .collect();

    let victims = select_victims(spec, &truths, &live, seed);
    tally.check(!victims.is_empty(), || {
        "no victim met the depth threshold".into()
    });
    let mut reader = StoreReader::open(BufReader::new(File::open(&source)?))?;
    let coeffs = Coefficients::compute(reader.tw_config(), spec.d);
    let local = answer_in_process(
        spec,
        &victims,
        &truths,
        &live,
        &mut reader,
        &coeffs,
        opts.traced,
        &mut spans,
        &mut tally,
    )?;
    drop(truths);
    let t5 = Instant::now();

    let per = |c: Clock| c.ns as f64 / c.calls.max(1) as f64;
    let per_poll = |v: u64| v as f64 / checkpoints_stored.max(1) as f64;
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if !opts.traced {
        let served = routed_phase(spec, &fleet, &local.expected, opts, &mut tally)?;
        metrics.extend([
            ("setup_s", median(&setup_s), "s"),
            (
                "ingest_mpps",
                packets as f64 / median(&plain_walls) / 1e6,
                "Mpkt/s",
            ),
            (
                "archive_bytes_per_pkt",
                archive_len as f64 / packets as f64,
                "B/pkt",
            ),
            (
                "poll_bytes_per_pkt",
                bytes_read as f64 / packets as f64,
                "B/pkt",
            ),
        ]);
        metrics.extend(served);
        metrics.push(("peak_rss_mb", peak_rss_mb(), "MiB"));
    } else {
        let s = traced_phase(
            spec,
            &fleet,
            &local.expected,
            &mut reader,
            &coeffs,
            opts,
            &mut spans,
            &mut tally,
        )?;
        let (mut hits, mut misses) = (0u64, 0u64);
        for plane in &fleet.planes {
            let snap = plane.snapshot();
            hits += snap.counter(names::SERVE_CACHE_HIT, &[]).unwrap_or(0);
            misses += snap.counter(names::SERVE_CACHE_MISS, &[]).unwrap_or(0);
        }
        let fanout = fleet
            .router_plane
            .snapshot()
            .histogram(names::ROUTER_FANOUT, &[])
            .map_or(0.0, |h| h.mean());
        let tm = timing;
        let traced_packets = (packets * traced_walls.len() as u64).max(1) as f64;
        let in_hooks = tm.enqueue.ns + tm.dequeue.ns + tm.tick.ns;
        metrics.extend([
            ("trace.gen_s", median(&gen_s), "s"),
            ("store.replicate_s", median(&replicate_s), "s"),
            ("fleet.bind_s", median(&bind_s), "s"),
            (
                "switch.ns_per_pkt",
                (tm.switch_run_ns - in_hooks) as f64 / traced_packets,
                "ns",
            ),
            ("core.enqueue_ns_per_pkt", per(tm.enqueue), "ns"),
            ("core.dequeue_ns_per_pkt", per(tm.dequeue), "ns"),
            (
                "control.poll_us",
                (tm.tick.ns - tm.sink.ns) as f64 / tm.sink.calls.max(1) as f64 / 1e3,
                "us/poll",
            ),
            ("control.polls", checkpoints_stored as f64, "count"),
            ("control.read_bytes_per_poll", per_poll(bytes_read), "B"),
            ("store.encode_us_per_checkpoint", per(tm.sink) / 1e3, "us"),
            ("store.bytes_per_checkpoint", per_poll(archive_len), "B"),
            (
                "store.decode_ms_per_segment",
                local.cold.ns as f64 / local.cold_segments.max(1) as f64 / 1e6,
                "ms",
            ),
            ("store.query_us", per(s.warm) / 1e3, "us"),
            ("core.windows_query_us", per(local.windows) / 1e3, "us"),
            ("core.monitor_query_us", per(local.monitor) / 1e3, "us"),
            ("serve.diagnose_us", per(s.serve) / 1e3, "us"),
            (
                "serve.cache_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
                "ratio",
            ),
            ("router.diagnose_us", per(s.routed) / 1e3, "us"),
            ("router.fanout", fanout, "backends/req"),
            (
                "trace.ingest_slowdown",
                median(&traced_walls) / median(&plain_walls),
                "ratio",
            ),
        ]);
        spans.write(&opts.spans_out)?;
        eprintln!(
            "[ledger] {} spans written to {}",
            spans.len(),
            opts.spans_out.display()
        );
    }
    let t6 = Instant::now();
    eprintln!(
        "[ledger] phases: generate {:.1} s, ingest {:.1} s, truth and checks {:.1} s, \
         fleet {:.1} s, in-process answers {:.1} s, diagnosis {:.1} s",
        secs(t1 - t0),
        secs(t2 - t1),
        secs(t3 - t2),
        secs(t4 - t3),
        secs(t5 - t4),
        secs(t6 - t5)
    );
    fleet.shutdown()?;
    drop(reader);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    Ok(Outcome { tally, metrics })
}
