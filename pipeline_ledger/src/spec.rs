//! The three benchmark workloads: trace make-up, PrintQueue parameters,
//! archive layout, fleet sharding, victim selection and accuracy floor.

use pq_core::params::TimeWindowConfig;
use pq_packet::Nanos;
use pq_store::SegmentPolicy;
use pq_trace::workload::{GeneratedTrace, Workload, WorkloadKind};

/// Floor on the mean precision and on the mean recall of direct and of
/// original culprits over a run's graded victims, on every workload.
pub const ACCURACY_FLOOR: f64 = 0.5;

/// A victim met at least this queue depth (cells) at enqueue.
pub const MIN_VICTIM_DEPTH: u32 = 1_000;

/// Flows pace at a log-uniform rate in this range (Gb/s). A narrow, low
/// range keeps many flows active at once, which steadies the load a trace
/// realises.
const FLOW_RATE_GBPS: (f64, f64) = (0.1, 1.0);

/// One named workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub kind: WorkloadKind,
    /// Egress ports 0..ports, each fed by its own seeded generator.
    pub ports: u16,
    /// Simulated trace length.
    pub duration: Nanos,
    /// Mean offered load per port relative to its 10 Gb/s drain rate.
    /// Every workload overloads its ports: the heavy-tailed flow sizes
    /// make the load a short trace realises vary several-fold between
    /// seeds, and only a port that stays saturated transmits at the same
    /// rate, with the same queue, whatever the seed.
    pub load: f64,
    pub tw: TimeWindowConfig,
    /// Minimum packet transmission delay (Theorem 3's `d`); also the
    /// replay requests' coefficient delay, so replayed answers match the
    /// live analysis program bit for bit.
    pub d: Nanos,
    /// Router time-axis shard width (0 = shard by port only).
    pub epoch_ns: u64,
    /// `.pqa` segment rotation.
    pub segment: SegmentPolicy,
    /// Distinct victims sampled per port. A timed round of 1000
    /// diagnoses visits about as many distinct victims, so its tail is the
    /// tail of the victims' costs rather than one slow victim repeated.
    pub victims_per_port: usize,
    /// Cap on how far before the victim's enqueue the indirect query
    /// reaches back into the congestion regime.
    pub lookback: Nanos,
    /// Allowed relative error (plus one packet) of each indirect
    /// interval's summed estimate against the true number of packets
    /// dequeued in it. `None` where the estimates are biased on this
    /// workload (CHANGES.md, FOUND), so no tolerance would hold on every
    /// seed.
    pub unbiased_tolerance: Option<f64>,
}

const MS: Nanos = 1_000_000;
const US: Nanos = 1_000;

/// Every workload, in `BENCHMARK.json` order.
pub fn all() -> Vec<Spec> {
    vec![uw_4port(), ws_fine_windows(), dm_incident_fleet()]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

fn uw_4port() -> Spec {
    Spec {
        name: "uw_4port",
        kind: WorkloadKind::Uw,
        ports: 4,
        duration: 40 * MS,
        load: 2.0,
        tw: TimeWindowConfig::UW,
        d: 110,
        epoch_ns: 0,
        segment: SegmentPolicy::default(),
        victims_per_port: 256,
        lookback: 2 * MS,
        unbiased_tolerance: None,
    }
}

fn ws_fine_windows() -> Spec {
    Spec {
        name: "ws_fine_windows",
        kind: WorkloadKind::Ws,
        ports: 1,
        duration: 100 * MS,
        load: 4.0,
        tw: TimeWindowConfig::new(6, 1, 10, 3),
        d: 1200,
        epoch_ns: 0,
        segment: SegmentPolicy {
            checkpoints_per_segment: 8,
            ..SegmentPolicy::default()
        },
        victims_per_port: 1024,
        lookback: 200 * US,
        unbiased_tolerance: None,
    }
}

fn dm_incident_fleet() -> Spec {
    Spec {
        name: "dm_incident_fleet",
        kind: WorkloadKind::Dm,
        ports: 1,
        duration: 1200 * MS,
        load: 2.5,
        tw: TimeWindowConfig::WS_DM,
        d: 1200,
        epoch_ns: 8 * MS,
        segment: SegmentPolicy::default(),
        victims_per_port: 1024,
        lookback: 16 * MS,
        unbiased_tolerance: Some(0.25),
    }
}

impl Spec {
    /// A much smaller variant of the same workload, for the self-tests.
    #[cfg(test)]
    pub fn tiny(mut self) -> Spec {
        self.duration /= 4;
        self.victims_per_port = (self.victims_per_port / 32).max(2);
        self
    }

    /// Generate the seeded trace: one generator per port, merged into one
    /// time-sorted arrival stream.
    pub fn generate(&self, seed: u64) -> GeneratedTrace {
        let mut merged: Option<GeneratedTrace> = None;
        for port in 0..self.ports {
            let trace = Workload {
                kind: self.kind,
                duration: self.duration,
                load: self.load,
                port,
                port_rate_gbps: 10.0,
                sender_rate_gbps: FLOW_RATE_GBPS.1,
                min_flow_rate_gbps: FLOW_RATE_GBPS.0,
                warmup: self.duration / 2,
                seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(port),
            }
            .generate();
            merged = Some(match merged {
                None => trace,
                Some(m) => m.merge(trace),
            });
        }
        merged.expect("every workload has at least one port")
    }
}
