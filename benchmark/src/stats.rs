//! Order statistics the benchmark reports: medians, the tail-percentile
//! rule, equal-work slice rates and their spread, quartile spreads over
//! repeated runs, and open-loop due-time accounting.

/// Median of `v` (mean of the two middle values for an even count);
/// `0.0` for an empty slice. Sorts in place.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of integer samples (µs latencies), as `f64`.
pub fn median_u64(v: &[u64]) -> f64 {
    let mut f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
    median(&mut f)
}

/// The highest percentile that still has at least ten samples beyond it,
/// and its value: with `n` sorted samples that is the sample at index
/// `n - 11`, i.e. percentile `100 * (n - 10) / n`. `None` below 20
/// samples, where that would not even be the median's upper half.
pub fn tail_percentile(sorted: &[u64]) -> Option<(f64, u64)> {
    let n = sorted.len();
    if n < 20 {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    let idx = n - 11;
    Some((100.0 * (n - 10) as f64 / n as f64, sorted[idx]))
}

/// The 99th percentile by nearest rank, capped at [`tail_percentile`]:
/// a p99 is only reported where ten samples lie beyond it.
pub fn p99_or_tail(sorted: &[u64]) -> u64 {
    let Some((pct, tail)) = tail_percentile(sorted) else {
        return sorted.last().copied().unwrap_or(0);
    };
    if pct < 99.0 {
        return tail;
    }
    let rank = (0.99 * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// One equal-work slice of a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// When the previous slice's last item completed (the phase's start
    /// for the first slice), µs.
    pub from_us: u64,
    /// When this slice's last item completed, µs.
    pub to_us: u64,
    /// Items per second between the two.
    pub rate: f64,
}

/// Cuts a phase into `n` equal-work slices, from the node-stamped
/// completion times (µs, any order) of its work items. Slice `k` holds
/// items `[k*w, (k+1)*w)` of the time-sorted sequence (`w = len / n`; the
/// remainder is dropped from the tail).
pub fn slices(mut done_at: Vec<u64>, phase_start: u64, n: usize) -> Vec<Slice> {
    done_at.sort_unstable();
    let w = done_at.len() / n.max(1);
    if w == 0 {
        return Vec::new();
    }
    let mut from_us = phase_start;
    done_at
        .chunks_exact(w)
        .take(n)
        .map(|chunk| {
            let to_us = chunk[w - 1];
            let rate = w as f64 * 1e6 / to_us.saturating_sub(from_us).max(1) as f64;
            let s = Slice {
                from_us,
                to_us,
                rate,
            };
            from_us = to_us;
            s
        })
        .collect()
}

/// Harmonic mean of slice rates: equal work per slice, so this is the
/// phase's work over the sum of its slices' times. `0.0` when empty.
pub fn harmonic_mean(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        return 0.0;
    }
    rates.len() as f64
        / rates
            .iter()
            .map(|r| 1.0 / r.max(f64::MIN_POSITIVE))
            .sum::<f64>()
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` gives them (the
/// default *exclusive* method): `(q1, q2, q3)`.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let q = |i: i64| {
        // CPython: j = i*m // 4 clamped to 1..n-1, delta = i*m - 4*j
        // (computed after the clamp, so the ends extrapolate).
        let m = n as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = i * m - 4 * j;
        let (lo, hi) = (s[j as usize - 1], s[j as usize]);
        (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0
    };
    (q(1), q(2), q(3))
}

/// `(q3 - q1) / median`: the spread the driver holds a metric to.
pub fn iqr_share(v: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// `(max - min) / median`: the range the issue's rule 6 derives a bound
/// from.
pub fn range_share(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    let med = median(&mut s);
    if med == 0.0 || s.is_empty() {
        return 0.0;
    }
    (s[s.len() - 1] - s[0]) / med
}

/// An open-loop timetable: action `k` is due at `start + k * period`.
/// The generator asks what is due, sends it, and records how late it was;
/// requests are timed from their due time, never from the send.
#[derive(Debug, Clone)]
pub struct Timetable {
    start_us: u64,
    period_us: f64,
    total: u64,
    next: u64,
}

impl Timetable {
    /// `total` actions, one every `period_us` µs from `start_us`.
    pub fn new(start_us: u64, period_us: f64, total: u64) -> Self {
        Timetable {
            start_us,
            period_us,
            total,
            next: 0,
        }
    }

    /// Due time of action `k`.
    pub fn due_at(&self, k: u64) -> u64 {
        self.start_us + (k as f64 * self.period_us) as u64
    }

    /// The next action due at or before `now_us`: `(index, due time,
    /// lateness)`. `None` when nothing is due yet or the table is spent.
    pub fn pop_due(&mut self, now_us: u64) -> Option<(u64, u64, u64)> {
        if self.next >= self.total {
            return None;
        }
        let due = self.due_at(self.next);
        if due > now_us {
            return None;
        }
        let k = self.next;
        self.next += 1;
        Some((k, due, now_us - due))
    }

    /// When the next action is due, or `None` when the table is spent.
    pub fn next_due(&self) -> Option<u64> {
        (self.next < self.total).then(|| self.due_at(self.next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median_u64(&[10, 30, 20]), 20.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 1000 samples 1..=1000: ten samples (991..=1000) lie beyond 990.
        let v: Vec<u64> = (1..=1000).collect();
        let (pct, val) = tail_percentile(&v).unwrap();
        assert_eq!(val, 990);
        assert!((pct - 99.0).abs() < 1e-9);
        assert_eq!(v.iter().filter(|&&x| x > val).count(), 10);
        // Too few samples: no tail at all.
        assert!(tail_percentile(&[1; 19]).is_none());
        // 100 samples: the rule caps "p99" at p90.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(p99_or_tail(&v), 90);
        // 100k samples: a true p99 has 1000 beyond it and is reported.
        let v: Vec<u64> = (1..=100_000).collect();
        assert_eq!(p99_or_tail(&v), 99_000);
    }

    #[test]
    fn slices_see_a_stall_the_median_does_not() {
        // 40 items: 20 at one per 1000 µs, one stall of 1 s, 20 more.
        let mut t = Vec::new();
        for i in 1..=20u64 {
            t.push(i * 1000);
        }
        for i in 1..=20u64 {
            t.push(1_020_000 + i * 1000);
        }
        let rates: Vec<f64> = slices(t, 0, 4).iter().map(|s| s.rate).collect();
        assert_eq!(rates.len(), 4);
        // Three slices run at 1000 items/s; the one holding the stall is slow.
        let mut sorted = rates.clone();
        assert!((median(&mut sorted) - 1000.0).abs() < 1.0);
        assert!(rates.iter().any(|&r| r < 20.0));
        // The harmonic mean of equal-work slices is work over time: the
        // stall is in it, as it is in total / elapsed (~38 items/s).
        let total_over_elapsed = 40.0 * 1e6 / 1_040_000.0;
        assert!((harmonic_mean(&rates) - total_over_elapsed).abs() < 0.5);
        assert_eq!(harmonic_mean(&[]), 0.0);
    }

    #[test]
    fn slice_rates_drop_remainder_and_handle_small_inputs() {
        assert!(slices(vec![1, 2, 3], 0, 20).is_empty());
        let sl = slices((1..=10).rev().map(|i| i * 100).collect(), 0, 3);
        assert_eq!(sl.len(), 3);
        for s in &sl {
            assert!((s.rate - 10_000.0).abs() < 1.0);
        }
        assert_eq!((sl[0].from_us, sl[0].to_us, sl[2].to_us), (0, 300, 900));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert!((range_share(&v) - 9.0 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn timetable_times_from_due_not_from_send() {
        let mut tt = Timetable::new(1_000, 250.0, 4);
        assert_eq!(tt.next_due(), Some(1_000));
        assert!(tt.pop_due(999).is_none());
        // The generator stalls until t=1600: three actions are due, each
        // charged its own lateness against its own due time.
        assert_eq!(tt.pop_due(1_600), Some((0, 1_000, 600)));
        assert_eq!(tt.pop_due(1_600), Some((1, 1_250, 350)));
        assert_eq!(tt.pop_due(1_600), Some((2, 1_500, 100)));
        assert!(tt.pop_due(1_600).is_none());
        assert_eq!(tt.pop_due(1_750), Some((3, 1_750, 0)));
        assert_eq!(tt.next_due(), None);
        assert!(tt.pop_due(10_000).is_none());
    }
}
