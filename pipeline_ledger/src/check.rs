//! Answer comparison and the run's tally of checked operations.
//!
//! Every check is one operation: it is counted in `attempted`, and a check
//! that does not hold is counted in `failed`, with its first few reasons
//! kept for the log.

use pq_serve::{RemoteMonitor, RemoteResult};

/// Operations attempted and failed, with a sample of failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Record one checked operation; `why` is only evaluated on failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why());
            }
        }
    }
}

/// Bit-identity of two time-window answers: the same flows with the same
/// estimate bits, the same gaps and the same degraded flag.
pub fn same_result(got: &RemoteResult, want: &RemoteResult) -> Result<(), String> {
    if got.degraded != want.degraded {
        return Err(format!(
            "degraded {} (want {})",
            got.degraded, want.degraded
        ));
    }
    if got.gaps != want.gaps {
        return Err(format!("gaps {:?} (want {:?})", got.gaps, want.gaps));
    }
    let (g, w) = (&got.estimates.counts, &want.estimates.counts);
    if g.len() != w.len() {
        return Err(format!("{} flows (want {})", g.len(), w.len()));
    }
    for (flow, est) in w {
        match g.get(flow) {
            Some(v) if v.to_bits() == est.to_bits() => {}
            Some(v) => return Err(format!("flow {} estimate {v:e} (want {est:e})", flow.0)),
            None => return Err(format!("flow {} missing", flow.0)),
        }
    }
    Ok(())
}

/// Equality of two queue-monitor answers, field by field.
pub fn same_monitor(got: &RemoteMonitor, want: &RemoteMonitor) -> Result<(), String> {
    if got.frozen_at != want.frozen_at || got.staleness != want.staleness {
        return Err(format!(
            "frozen_at {} staleness {} (want {} / {})",
            got.frozen_at, got.staleness, want.frozen_at, want.staleness
        ));
    }
    if got.degraded != want.degraded || got.gaps != want.gaps {
        return Err(format!(
            "degraded {} gaps {:?} (want {} / {:?})",
            got.degraded, got.gaps, want.degraded, want.gaps
        ));
    }
    if got.counts != want.counts {
        return Err(format!(
            "{} culprit flows (want {})",
            got.counts.len(),
            want.counts.len()
        ));
    }
    Ok(())
}

/// A healthy answer: not degraded and free of coverage gaps, since the
/// benchmark injects no faults.
pub fn undegraded(degraded: bool, gaps: usize) -> Result<(), String> {
    if degraded || gaps > 0 {
        Err(format!("degraded={degraded} with {gaps} coverage gaps"))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_core::snapshot::FlowEstimates;
    use pq_packet::FlowId;

    fn result() -> RemoteResult {
        let mut estimates = FlowEstimates::default();
        estimates.counts.insert(FlowId(1), 12.5);
        estimates.counts.insert(FlowId(2), 0.75);
        RemoteResult {
            estimates,
            gaps: Vec::new(),
            degraded: false,
            checkpoints: 3,
            trace: None,
        }
    }

    fn monitor() -> RemoteMonitor {
        RemoteMonitor {
            frozen_at: 1_000,
            staleness: 10,
            degraded: false,
            gaps: Vec::new(),
            counts: vec![(FlowId(4), 9), (FlowId(1), 2)],
            trace: None,
        }
    }

    #[test]
    fn identical_answers_pass() {
        assert!(same_result(&result(), &result()).is_ok());
        assert!(same_monitor(&monitor(), &monitor()).is_ok());
    }

    #[test]
    fn one_ulp_off_fails_and_counts() {
        let mut got = result();
        let v = got.estimates.counts.get_mut(&FlowId(2)).unwrap();
        *v = f64::from_bits(v.to_bits() + 1);
        let mut tally = Tally::default();
        let verdict = same_result(&got, &result());
        tally.check(verdict.is_ok(), || verdict.clone().unwrap_err());
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert!(tally.reasons[0].contains("flow 2"), "{:?}", tally.reasons);
    }

    #[test]
    fn dropped_monitor_flow_fails() {
        let mut got = monitor();
        got.counts.pop();
        assert!(same_monitor(&got, &monitor()).is_err());
    }

    #[test]
    fn missing_or_extra_flow_fails() {
        let mut got = result();
        got.estimates.counts.remove(&FlowId(1));
        assert!(same_result(&got, &result()).is_err());
        let mut got = result();
        got.estimates.counts.insert(FlowId(9), 1.0);
        assert!(same_result(&got, &result()).is_err());
    }

    #[test]
    fn degraded_or_gapped_answers_fail() {
        assert!(undegraded(false, 0).is_ok());
        assert!(undegraded(true, 0).is_err());
        assert!(undegraded(false, 1).is_err());
        let mut got = result();
        got.degraded = true;
        assert!(same_result(&got, &result()).is_err());
    }
}
