//! Order statistics over latency samples.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`); NaN when
/// empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `values` (nearest rank); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Mean of `values`; 0 when empty (a layer that did no work).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of p99 / p90 / p50 that has at least ten samples beyond
/// it, as `(label, quantile)`.
pub fn supported_tail(n: usize) -> (&'static str, f64) {
    if n >= 1000 {
        ("p99", 0.99)
    } else if n >= 100 {
        ("p90", 0.90)
    } else {
        ("p50", 0.50)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
