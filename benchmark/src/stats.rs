//! Order statistics used by every metric: medians, quartiles, and the tail
//! percentile rule.

/// Median of `xs` (mean of the middle pair for an even count); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method), so spreads printed here match the ones
/// an acceptance script computes. A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => return None,
        1 => return Some((v[0], v[0])),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `xs`, plus how many
/// samples lie strictly beyond that rank.
pub fn percentile(xs: &[f64], p: f64) -> Option<(f64, usize)> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(v.len());
    Some((v[rank - 1], v.len() - rank))
}

/// The tail of a latency distribution, reported as the highest percentile
/// that still has at least [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen: 99, or lower when fewer than
    /// [`TAIL_MIN_BEYOND`] samples lie beyond p99.
    pub pct: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Total samples.
    pub n: usize,
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Applies the tail rule: p99 (nearest rank) when at least
/// [`TAIL_MIN_BEYOND`] samples lie beyond it, else the highest rank that
/// leaves that many beyond it, but never below the median (`beyond` then
/// says how few there are).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = (99 * n)
        .div_ceil(100)
        .min(n.saturating_sub(TAIL_MIN_BEYOND))
        .max(n.div_ceil(2));
    Some(Tail {
        pct: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        beyond: n - rank,
        n,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), Some(5.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, so p99 is reported.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.n), (99.0, 990.0, 10, 1000));

        // 999 samples leave only 9 beyond p99: step down to the rank with
        // 10 beyond it.
        let t = tail(&xs[..999]).unwrap();
        assert_eq!((t.value, t.beyond, t.n), (989.0, 10, 999));
        assert!(t.pct < 99.0 && t.pct > 98.9, "{}", t.pct);

        // 360 samples (one per paper-grid cell): p97.2, 10 beyond.
        let t = tail(&xs[..360]).unwrap();
        assert_eq!((t.value, t.beyond), (350.0, 10));

        // Too few for anything but the median, and the count says so.
        let t = tail(&xs[..12]).unwrap();
        assert_eq!((t.pct, t.beyond), (50.0, 6));
        assert_eq!(tail(&[4.0]).map(|t| (t.value, t.beyond)), Some((4.0, 0)));
        assert!(tail(&[]).is_none());
    }
}
