//! Order statistics shared by the timed window, the trace and `repeat`.

/// Median of `v` (mean of the middle two when the count is even); `None`
/// when empty.
pub fn median(mut v: Vec<f64>) -> Option<f64> {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile of at least two sorted values, as Python's
/// `statistics.quantiles(v, n=4)` gives them (the exclusive method) — the
/// figures the driver computes a spread from.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let at = |p: f64| {
        let pos = p * (sorted.len() + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, sorted.len() - 1);
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * (pos - j as f64)
    };
    (at(0.25), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(vec![]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), (1.25, 7.0));
    }
}
