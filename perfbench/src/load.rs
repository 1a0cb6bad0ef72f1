//! The load phases: a closed loop with one batch outstanding, and an open
//! loop offering batches on a seeded Poisson schedule. One load thread
//! issues every batch through `ClientApi::submit_batch`.

use std::time::{Duration, Instant};

use homeo_cluster::ClientApi;
use homeo_runtime::SiteOp;
use homeo_sim::DetRng;

use crate::ledger::Tracer;
use crate::workload::{OpGen, Tally};

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Committed operations.
    pub committed: u64,
    /// Batches submitted.
    pub batches: u64,
    /// Wall-clock length of the phase in seconds.
    pub secs: f64,
    /// Per-batch latency in milliseconds (open loop: from the scheduled
    /// arrival).
    pub latency_ms: Vec<f64>,
    /// Open loop only: how late the generator sent each batch, in
    /// milliseconds, after the later of its scheduled arrival and the
    /// previous batch's completion. This is the delay the generator itself
    /// added; waiting behind the cluster is not counted.
    pub late_ms: Vec<f64>,
}

impl Phase {
    /// Committed operations per second.
    pub fn throughput(&self) -> f64 {
        self.committed as f64 / self.secs
    }
}

/// The batches a traced phase keeps for replay through the layers.
pub type Kept = Vec<(usize, Vec<SiteOp>)>;

/// Committed operations among `outcomes`.
pub fn committed(outcomes: &[homeo_runtime::OpOutcome]) -> u64 {
    outcomes.iter().filter(|o| o.committed).count() as u64
}

/// A closed loop of `batches` batches: the next batch goes out as soon as
/// the previous one returns. A fixed amount of work, so memory growth does
/// not depend on how fast the cluster is. With a tracer, every batch is an
/// `e2e.batch` span whose request id is its index, and the first `keep`
/// batches are returned for replay.
pub fn closed_loop(
    api: &mut dyn ClientApi,
    gen: &mut OpGen,
    tally: &mut Tally,
    batches: u64,
    mut tracer: Option<&mut Tracer>,
    keep: usize,
) -> (Phase, Kept) {
    let mut phase = Phase::default();
    let mut kept = Kept::new();
    let mut ops = Vec::new();
    let started = Instant::now();
    while phase.batches < batches {
        let site = gen.next_batch(&mut ops);
        let t0 = Instant::now();
        let span = tracer
            .as_deref_mut()
            .map(|t| t.open("e2e.batch", None, phase.batches));
        let outcomes = api.submit_batch(site, &ops);
        if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
            t.close(span);
        }
        phase.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        phase.committed += committed(&outcomes);
        tally.record(&ops, &outcomes);
        if kept.len() < keep {
            kept.push((site, ops.clone()));
        }
        phase.batches += 1;
    }
    phase.secs = started.elapsed().as_secs_f64();
    (phase, kept)
}

/// Sleeps until shortly before `due`, then spins: a plain sleep overshoots
/// by tens of microseconds, which at the fast-path rate would be the
/// generator setting the latency. The spin yields, so a site thread still
/// finishing a round on this core is not held off by the generator.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Open loop for `secs`: batch arrivals follow a Poisson process of
/// `rate_ops / batch` batches per second drawn from `schedule`. A batch
/// that arrives while the previous one is outstanding waits for it, and
/// that wait is part of its latency.
pub fn open_loop(
    api: &mut dyn ClientApi,
    gen: &mut OpGen,
    schedule: &mut DetRng,
    tally: &mut Tally,
    rate_ops: f64,
    batch: usize,
    secs: f64,
) -> Phase {
    let mut phase = Phase::default();
    let mut ops = Vec::new();
    let batch_rate = rate_ops / batch as f64;
    // Arrival times are offsets from `start`, so a stall delays the sends
    // but never the schedule.
    let start = Instant::now() + Duration::from_millis(1);
    let mut offset = 0.0;
    let mut previous_done = start;
    loop {
        offset += -(1.0 - schedule.unit()).ln() / batch_rate;
        if offset >= secs {
            break;
        }
        let due = start + Duration::from_secs_f64(offset);
        let site = gen.next_batch(&mut ops);
        wait_until(due);
        let sent = Instant::now();
        let outcomes = api.submit_batch(site, &ops);
        let done = Instant::now();
        phase
            .latency_ms
            .push(done.duration_since(due).as_secs_f64() * 1e3);
        phase
            .late_ms
            .push(sent.duration_since(due.max(previous_done)).as_secs_f64() * 1e3);
        previous_done = done;
        phase.committed += committed(&outcomes);
        tally.record(&ops, &outcomes);
        phase.batches += 1;
    }
    phase.secs = start.elapsed().as_secs_f64();
    phase
}

/// Samples per latency window.
pub const WINDOW: usize = 1000;

/// Each window's `p` quantile, over consecutive windows of at least
/// [`WINDOW`] samples, or `None` with fewer than [`WINDOW`] samples. A
/// stall then moves only the windows it falls in.
pub fn window_percentiles(values: &[f64], p: f64) -> Option<Vec<f64>> {
    let windows = values.len() / WINDOW;
    let per_window: Option<Vec<f64>> = (0..windows)
        .map(|i| {
            let end = if i + 1 == windows {
                values.len()
            } else {
                (i + 1) * WINDOW
            };
            percentile(&values[i * WINDOW..end], p)
        })
        .collect();
    per_window.filter(|v| !v.is_empty())
}

/// The mean of `values` (which must be non-empty) without its highest and
/// lowest twentieth.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 20;
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The `p` quantile (nearest rank) of `values`, or `None` when fewer than
/// ten samples lie beyond it: such a percentile is not reported.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank < 10 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of `values` (which must be non-empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), Some(990.0));
        assert_eq!(percentile(&values, 0.5), Some(500.0));
        assert_eq!(percentile(&values[..999], 0.99), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn a_stall_moves_only_its_own_window() {
        let mut values: Vec<f64> = (0..3500).map(|i| f64::from(i % 100)).collect();
        // A stall: the first window's tail is all slow.
        values[..50].iter_mut().for_each(|v| *v = 1e6);
        let p99 = window_percentiles(&values, 0.99).unwrap();
        assert_eq!(p99.len(), 3);
        assert_eq!(median(&p99), 98.0);
        assert_eq!(window_percentiles(&values[..999], 0.5), None);
    }

    #[test]
    fn a_trimmed_mean_drops_a_twentieth_at_each_end() {
        // Windows in two modes, and two stalled windows: the stalls and as
        // many of the fastest windows are cut, the rest are averaged.
        let mut values = vec![0.0; 20];
        values.extend([1.0; 18]);
        values.extend([1e6; 2]);
        assert_eq!(trimmed_mean(&values), 0.5);
        assert_eq!(trimmed_mean(&[2.0]), 2.0);
    }
}
