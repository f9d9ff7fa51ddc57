//! Small order statistics over raw samples.

/// The `q`-quantile (nearest rank) of nanosecond samples, in µs; 0 when
/// there are none. Sorts `ns` in place.
pub fn percentile_us(ns: &mut [u64], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    let rank = ((q * ns.len() as f64).ceil() as usize).clamp(1, ns.len());
    ns[rank - 1] as f64 / 1e3
}

/// Arithmetic mean; 0 when there are no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median; 0 when there are no samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
