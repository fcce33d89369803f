//! Order statistics for the report.

/// Quantile `q` in `[0, 1]` of `v` by linear interpolation between
/// closest ranks; `NaN` for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Mean of the middle half of `v`: a quarter of the values (rounded
/// down) dropped from each end; `NaN` for an empty sample.
pub fn iq_mean(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = &s[s.len() / 4..s.len() - s.len() / 4];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Median, quartiles and sample count of one metric's samples.
pub struct Summary {
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub n: usize,
}

pub fn summary(v: &[f64]) -> Summary {
    Summary {
        p25: quantile(v, 0.25),
        p50: quantile(v, 0.5),
        p75: quantile(v, 0.75),
        n: v.len(),
    }
}

/// Geometric mean of positive values (`NaN` if any is not positive).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() || v.iter().any(|&x| x <= 0.0) {
        return f64::NAN;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}
