//! Per-stage timing reports.
//!
//! [`AutoComm`](crate::AutoComm) runs its stages as plain function calls in
//! the paper's fixed order. Each call goes through [`timed`], which appends
//! one [`PassReport`] per stage, so every compile explains where its time
//! went.

use std::time::{Duration, Instant};

use crate::ScheduleSummary;

/// Timing and headline metric of one executed pass.
#[derive(Clone, Debug)]
pub struct PassReport {
    /// The pass name.
    pub pass: &'static str,
    /// Wall-clock time the pass took.
    pub duration: Duration,
    /// The pass's headline metric, if it reports one.
    pub metric: Option<String>,
}

/// Runs `stage` and appends its report under `name` to `reports`. The
/// clock covers `stage` alone, including dropping whatever it captured by
/// value; `metric` reads the stage's output after the clock stops.
pub(crate) fn timed<T>(
    reports: &mut Vec<PassReport>,
    name: &'static str,
    stage: impl FnOnce() -> T,
    metric: impl FnOnce(&T) -> Option<String>,
) -> T {
    let start = Instant::now();
    let out = stage();
    let duration = start.elapsed();
    reports.push(PassReport { pass: name, duration, metric: metric(&out) });
    out
}

/// The schedule stage's headline metric line.
pub(crate) fn schedule_metric(s: &ScheduleSummary) -> String {
    if s.buffering.policy.is_buffered() {
        format!(
            "makespan {:.1}, {} epr, {} buffering ({}/{} hits{})",
            s.makespan,
            s.epr_pairs,
            s.buffering.policy.name(),
            s.buffering.prefetch_hits,
            s.buffering.requests,
            if s.buffering.fell_back { ", fell back" } else { "" }
        )
    } else {
        format!("makespan {:.1}, {} epr", s.makespan, s.epr_pairs)
    }
}
