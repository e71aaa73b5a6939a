//! The benchmark's own arithmetic: percentiles, the tail-percentile rule,
//! self-time subtraction, trace coverage and the sustained-rate rule. Kept
//! free of timing and I/O so the unit tests below pin it exactly.

/// The 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps float error (`0.999 * 10_000 = 9990.000000000002`) from
/// pushing the rank one sample up.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Percentiles a timing may be summarised by, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest candidate percentile that has at least ten samples beyond
/// it, or `None` when even the median has fewer (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// A layer's self time: its span total minus the part its child spans
/// cover. Negative results are kept, not clamped: they expose a child
/// that was timed outside its parent.
pub fn self_time(total_s: f64, children_s: &[f64]) -> f64 {
    total_s - children_s.iter().sum::<f64>()
}

/// Share of `wall_s` covered by the layers' self times.
pub fn coverage(self_times_s: &[f64], wall_s: f64) -> f64 {
    if wall_s <= 0.0 {
        return 0.0;
    }
    self_times_s.iter().sum::<f64>() / wall_s
}

/// The traced run must attribute at least this share of wall time to layers.
pub const MIN_COVERAGE: f64 = 0.90;

/// One measured rate of the serving ladder, as the sustained-rate rule
/// sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelOutcome {
    /// Nominal arrival rate in requests per second.
    pub rate_per_s: f64,
    /// Predict p99 measured from each request's due time, microseconds.
    pub p99_from_due_us: f64,
    /// Observe submissions refused by admission control.
    pub refused: u64,
    /// Whether the generator finished the level within the latency limit of
    /// its schedule (no growing backlog).
    pub generator_kept_up: bool,
}

/// The highest ladder rate up to which every level held the latency limit,
/// refused nothing and kept the generator on schedule. Levels are judged in
/// ascending rate order and the first failure ends the search, so one lucky
/// level above a failing one does not count. Zero when the lowest fails.
pub fn sustained_rate(levels: &[LevelOutcome], limit_us: f64) -> f64 {
    let mut sorted = levels.to_vec();
    sorted.sort_by(|a, b| a.rate_per_s.total_cmp(&b.rate_per_s));
    sorted
        .iter()
        .take_while(|l| l.p99_from_due_us <= limit_us && l.refused == 0 && l.generator_kept_up)
        .last()
        .map_or(0.0, |l| l.rate_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_time(10.0, &[2.5, 3.5]), 4.0);
        assert_eq!(self_time(1.0, &[]), 1.0);
        assert!(self_time(1.0, &[0.75, 0.5]) < 0.0);
    }

    #[test]
    fn coverage_is_share_of_wall() {
        assert_eq!(coverage(&[4.5, 4.0], 10.0), 0.85);
        assert!(coverage(&[4.5, 4.0], 10.0) < MIN_COVERAGE);
        assert!(coverage(&[6.0, 3.5], 10.0) >= MIN_COVERAGE);
        assert_eq!(coverage(&[1.0], 0.0), 0.0);
    }

    fn level(rate: f64, p99: f64, refused: u64, kept_up: bool) -> LevelOutcome {
        LevelOutcome {
            rate_per_s: rate,
            p99_from_due_us: p99,
            refused,
            generator_kept_up: kept_up,
        }
    }

    #[test]
    fn sustained_rate_is_highest_level_meeting_every_condition() {
        let limit = 10_000.0;
        let ladder = [
            level(5_000.0, 900.0, 0, true),
            level(10_000.0, 2_000.0, 0, true),
            level(20_000.0, 4_000.0, 0, true),
            level(40_000.0, 8_000.0, 120, true),
        ];
        assert_eq!(sustained_rate(&ladder, limit), 20_000.0);
        // Latency over the limit stops the ladder.
        let slow = [
            level(5_000.0, 900.0, 0, true),
            level(10_000.0, 10_001.0, 0, true),
        ];
        assert_eq!(sustained_rate(&slow, limit), 5_000.0);
        // A generator behind schedule stops it too.
        let late = [
            level(5_000.0, 900.0, 0, true),
            level(10_000.0, 900.0, 0, false),
        ];
        assert_eq!(sustained_rate(&late, limit), 5_000.0);
        // A passing level above a failing one does not count; order of the
        // input does not matter.
        let gap = [
            level(20_000.0, 900.0, 0, true),
            level(5_000.0, 900.0, 0, true),
            level(10_000.0, 900.0, 3, true),
        ];
        assert_eq!(sustained_rate(&gap, limit), 5_000.0);
        assert_eq!(
            sustained_rate(&[level(5_000.0, 20_000.0, 0, true)], limit),
            0.0
        );
        assert_eq!(sustained_rate(&[], limit), 0.0);
    }
}
