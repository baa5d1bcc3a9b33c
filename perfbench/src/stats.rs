//! Order statistics over timing samples, and the digest of simulated
//! results.

use dgraph::Matching;
use simnet::NetStats;

/// Nearest-rank quantile (`q` in (0, 1]) of unsorted samples; 0 when
/// there are none.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Smallest sample; +inf when there are none.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest sample; -inf when there are none.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Median (nearest rank).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest whole percentile, at most the 99th, with at least ten
/// samples beyond it, as `(percentile, value)`. With fewer than 20
/// samples no tail can be estimated and the median is returned.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    let n = xs.len();
    let p = (50..=99)
        .rev()
        .find(|&p| n >= 10 + (p as usize * n).div_ceil(100))
        .unwrap_or(50);
    (p, quantile(xs, p as f64 / 100.0))
}

/// FNV-1a over a stream of words: the digest of everything a run
/// simulates, so a change that only speeds up the program can show
/// every simulated result unchanged.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a matching in (its mate array).
    pub fn matching(&mut self, m: &Matching) {
        self.word(m.mates().len() as u64);
        for &v in m.mates() {
            self.word(v as u64);
        }
    }

    /// Fold every field of `NetStats` in except the wall-clock
    /// `timings` registry.
    pub fn stats(&mut self, s: &NetStats) {
        for w in [
            s.rounds,
            s.messages,
            s.bits,
            s.max_msg_bits,
            s.peak_inbox,
            s.plane_allocs,
            s.node_steps,
            s.sched_overhead,
            s.dropped,
            s.delayed,
            s.deferred_bits,
            s.crashed,
            s.per_round.len() as u64,
        ] {
            self.word(w);
        }
        for r in &s.per_round {
            for w in [
                r.messages,
                r.peak_inbox,
                r.plane_allocs,
                r.active,
                r.sched_overhead,
            ] {
                self.word(w);
            }
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), 5.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&xs), (99, 1980.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90, 90.0));
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&xs), (50, 3.0));
    }
}
