//! Order statistics for the benchmark report.

use dml_obs::json::{obj, Json};

/// Linear-interpolation quantile of an unsorted sample (`q` in `0..=1`);
/// NaN for an empty sample (a run whose every request failed still
/// reports).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Samples strictly above `threshold`: a tail percentile is reported only
/// when at least ten samples lie beyond it.
pub fn beyond(samples: &[f64], threshold: f64) -> usize {
    samples.iter().filter(|&&x| x > threshold).count()
}

/// A number for the detail line; `null` when it is not finite.
pub fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

/// Median, quartiles and sample count of one metric, for the detail line.
pub fn spread(samples: &[f64], unit: &str) -> Json {
    obj(vec![
        ("unit", Json::Str(unit.to_string())),
        ("median", num(quantile(samples, 0.5))),
        ("q1", num(quantile(samples, 0.25))),
        ("q3", num(quantile(samples, 0.75))),
        ("n", Json::Int(samples.len() as i64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(beyond(&xs, 2.5), 2);
    }

    #[test]
    fn empty_samples_report_null() {
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(
            spread(&[], "ms").render(),
            r#"{"unit":"ms","median":null,"q1":null,"q3":null,"n":0}"#
        );
    }
}
