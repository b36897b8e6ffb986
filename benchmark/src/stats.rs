//! Estimators for the gated numbers, and the closed-form cache-counter
//! model `serve-mix` is checked against.
//!
//! Interference on the 2-core VM this was designed on only ever adds time,
//! arrives in multi-second bursts and is one-sided (README, "Noise"), so
//! the gated timings are *lower* quantiles: the lower decile of at least
//! 100 units has ten samples below it, the mirror image of reporting the
//! highest percentile that has ten samples beyond it.

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between order
/// statistics (the "inclusive" method: `q = 0` is the minimum, `q = 1` the
/// maximum).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// One-sided trimmed throughput: the jobs of the fastest quarter of the
/// units divided by their summed latency, in jobs per second. `units`
/// holds `(latency in seconds, jobs)`; the quarter is rounded up.
pub fn trimmed_jobs_per_s(units: &[(f64, u64)]) -> f64 {
    assert!(!units.is_empty(), "throughput of no units");
    let mut v = units.to_vec();
    v.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN latency"));
    let fast = &v[..v.len().div_ceil(4)];
    let jobs: u64 = fast.iter().map(|u| u.1).sum();
    let secs: f64 = fast.iter().map(|u| u.0).sum();
    jobs as f64 / secs
}

/// Per-host result-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that forced a computation.
    pub misses: u64,
    /// Entries dropped for capacity or by an epoch purge.
    pub evictions: u64,
}

/// What one host's cache counters must read after `serve-mix` units
/// `first..=last`, given the cache already holds `resident` entries.
///
/// Every unit submits `fresh` never-seen queries plus the previous unit's
/// `fresh` queries again. The repeats were inserted (or refreshed) one
/// unit ago, so with `capacity >= 2 * fresh` LRU order can never evict
/// them before they are hit: a unit is `fresh` hits and `fresh` misses.
/// A unit whose index is a multiple of `bump_every` runs right after an
/// epoch bump: the purge evicts every resident entry and the repeats miss
/// too. Inserts beyond `capacity` evict one entry each.
pub fn serve_mix_counts(
    first: u64,
    last: u64,
    resident: u64,
    fresh: u64,
    capacity: u64,
    bump_every: u64,
) -> CacheCounts {
    assert!(capacity >= 2 * fresh, "repeats could be evicted before use");
    let mut c = CacheCounts::default();
    let mut len = resident;
    for u in first..=last {
        let misses = if u.is_multiple_of(bump_every) {
            c.evictions += len;
            len = 0;
            2 * fresh
        } else {
            c.hits += fresh;
            fresh
        };
        c.misses += misses;
        len += misses;
        if len > capacity {
            c.evictions += len - capacity;
            len = capacity;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(median(&xs), 3.0);
        assert!((quantile(&xs, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
    }

    #[test]
    fn p10_of_a_hundred_has_ten_samples_below_it() {
        let xs: Vec<f64> = (0..101).map(f64::from).collect();
        let p10 = quantile(&xs, 0.1);
        assert_eq!(p10, 10.0);
        assert_eq!(xs.iter().filter(|&&x| x < p10).count(), 10);
    }

    #[test]
    fn trimmed_throughput_keeps_the_fastest_quarter() {
        // Fastest quarter of eight: 1 s and 2 s, one job each; neither the
        // 3 s units nor the 100 s stragglers may move the number.
        let units = [
            (100.0, 1),
            (1.0, 1),
            (3.0, 1),
            (2.0, 1),
            (3.0, 1),
            (100.0, 1),
            (3.0, 1),
            (3.0, 1),
        ];
        assert!((trimmed_jobs_per_s(&units) - 2.0 / 3.0).abs() < 1e-12);
        // The quarter is rounded up: two of five.
        let units = [(3.0, 8), (1.0, 8), (2.0, 8), (9.0, 8), (9.0, 8)];
        assert!((trimmed_jobs_per_s(&units) - 16.0 / 3.0).abs() < 1e-12);
    }

    /// A literal LRU over query ids, replaying the unit mix job by job.
    fn lru_counts(first: u64, last: u64, cap: usize, bump_every: u64) -> CacheCounts {
        let fresh = 4u64;
        let mut c = CacheCounts::default();
        // (epoch, query id), most recent last. The warm-up unit 0 ran
        // queries 0..8 (the "previous" batch of unit 0 is 0..4).
        let mut lru: Vec<(u64, u64)> = Vec::new();
        let mut epoch = 0;
        let mut purged_for = 0;
        for u in 0..=last {
            if u > 0 && u.is_multiple_of(bump_every) {
                epoch += 1;
            }
            let counted = u >= first;
            if purged_for != epoch {
                purged_for = epoch;
                if counted {
                    c.evictions += lru.len() as u64;
                }
                lru.clear();
            }
            let prev = u * fresh..(u + 1) * fresh;
            let new = (u + 1) * fresh..(u + 2) * fresh;
            // Worst case for the repeats: all fresh queries run first.
            for q in new.chain(prev) {
                let key = (epoch, q);
                if let Some(i) = lru.iter().position(|k| *k == key) {
                    let k = lru.remove(i);
                    lru.push(k);
                    c.hits += u64::from(counted);
                } else {
                    c.misses += u64::from(counted);
                    lru.push(key);
                    if lru.len() > cap {
                        lru.remove(0);
                        c.evictions += u64::from(counted);
                    }
                }
            }
        }
        c
    }

    #[test]
    fn closed_form_counters_match_a_literal_lru() {
        for (last, bump) in [(5, 25), (60, 25), (151, 25), (30, 7)] {
            let resident = 8; // the warm-up unit's eight misses
            assert_eq!(
                serve_mix_counts(1, last, resident, 4, 16, bump),
                lru_counts(1, last, 16, bump),
                "units 1..={last}, bump every {bump}"
            );
        }
    }

    #[test]
    fn steady_state_is_four_hits_four_misses_four_evictions() {
        let a = serve_mix_counts(1, 10, 8, 4, 16, 25);
        let b = serve_mix_counts(1, 11, 8, 4, 16, 25);
        assert_eq!(b.hits - a.hits, 4);
        assert_eq!(b.misses - a.misses, 4);
        assert_eq!(b.evictions - a.evictions, 4);
    }
}
