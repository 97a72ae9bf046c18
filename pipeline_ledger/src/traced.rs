//! Timing from outside the program: wrappers around PrintQueue's hook
//! calls and the archive sink, and an in-memory span log written at the
//! end with pq-telemetry's Chrome exporter.
//!
//! Per-packet layers are aggregated as a call count plus total
//! nanoseconds; only phases and diagnoses become spans.

use pq_core::control::{Checkpoint, CheckpointSink, CoverageGap};
use pq_core::printqueue::PrintQueue;
use pq_packet::{Nanos, SimPacket};
use pq_store::SharedStoreWriter;
use pq_switch::QueueHooks;
use pq_telemetry::{to_chrome_trace, SpanEvent};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls and total nanoseconds spent in one boundary.
#[derive(Debug, Default, Clone, Copy)]
pub struct Clock {
    pub calls: u64,
    pub ns: u64,
}

impl Clock {
    /// Count one call that started at `since` and ends now.
    pub fn add_since(&mut self, since: Instant) {
        self.calls += 1;
        self.ns += since.elapsed().as_nanos() as u64;
    }
}

/// `QueueHooks` wrapper timing each call into PrintQueue.
pub struct TimedHooks<'a> {
    pub inner: &'a mut PrintQueue,
    pub enqueue: Clock,
    pub dequeue: Clock,
    pub tick: Clock,
}

impl<'a> TimedHooks<'a> {
    pub fn new(inner: &'a mut PrintQueue) -> TimedHooks<'a> {
        TimedHooks {
            inner,
            enqueue: Clock::default(),
            dequeue: Clock::default(),
            tick: Clock::default(),
        }
    }
}

impl QueueHooks for TimedHooks<'_> {
    fn on_enqueue(&mut self, pkt: &SimPacket, port: u16, depth_after: u32, now: Nanos) {
        let t = Instant::now();
        self.inner.on_enqueue(pkt, port, depth_after, now);
        self.enqueue.add_since(t);
    }

    fn on_dequeue(&mut self, pkt: &SimPacket, port: u16, depth_after: u32, now: Nanos) {
        let t = Instant::now();
        self.inner.on_dequeue(pkt, port, depth_after, now);
        self.dequeue.add_since(t);
    }

    fn on_drop(&mut self, pkt: &SimPacket, port: u16, now: Nanos) {
        self.inner.on_drop(pkt, port, now);
    }

    fn on_tick(&mut self, now: Nanos) {
        let t = Instant::now();
        self.inner.on_tick(now);
        self.tick.add_since(t);
    }
}

/// Shared counters of a [`TimedSink`] (the sink itself is moved into the
/// analysis program).
#[derive(Debug, Default)]
pub struct SinkClock {
    pub calls: AtomicU64,
    pub ns: AtomicU64,
}

impl SinkClock {
    pub fn read(&self) -> Clock {
        Clock {
            calls: self.calls.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }
}

/// `CheckpointSink` wrapper timing every checkpoint encode into the
/// shared `.pqa` writer.
pub struct TimedSink {
    pub inner: SharedStoreWriter<Vec<u8>>,
    pub clock: Arc<SinkClock>,
}

impl CheckpointSink for TimedSink {
    fn on_checkpoint(&mut self, port: u16, cp: &Checkpoint) -> io::Result<()> {
        let t = Instant::now();
        let out = self.inner.on_checkpoint(port, cp);
        self.clock.calls.fetch_add(1, Ordering::Relaxed);
        self.clock
            .ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn on_gap(&mut self, port: u16, gap: CoverageGap) -> io::Result<()> {
        self.inner.on_gap(port, gap)
    }
}

/// Spans recorded by the benchmark around its calls into each layer.
/// Times are nanoseconds since the run started; a span's `track` is the
/// victim id for per-diagnosis spans and 0 for phases.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<SpanEvent>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// Record `name` from `start` until now.
    pub fn span(&mut self, name: &'static str, start: Instant, track: u32) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(SpanEvent {
            name,
            start: ns(start),
            end: ns(Instant::now()),
            track,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as a Chrome trace-event JSON array.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, to_chrome_trace(&self.spans))
    }
}
