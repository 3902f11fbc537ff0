//! Latency summaries and the metric list a run prints.

/// Median of unsorted samples; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// The tail: the highest percentile with at least ten samples beyond
/// it. Returns the value, its percentile and the sample count; `None`
/// below eleven samples, where no such percentile exists.
pub fn tail(xs: &[f64]) -> Option<(f64, f64, usize)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let i = n - 11;
    Some((v[i], 100.0 * (i + 1) as f64 / n as f64, n))
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Printed after the value on the human-readable line.
    pub note: String,
}

#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        self.put_noted(name, value, unit, String::new());
    }

    /// Record a metric; an absent or non-finite value is left out, so a
    /// metric that does not apply is missing rather than zero.
    pub fn put_noted(
        &mut self,
        name: &'static str,
        value: Option<f64>,
        unit: &'static str,
        note: String,
    ) {
        if let Some(value) = value.filter(|v| v.is_finite()) {
            self.0.push(Metric {
                name,
                value,
                unit,
                note,
            });
        }
    }

    /// `<prefix>_p50_ms` and `<prefix>_tail_ms` of latency samples.
    pub fn latency(&mut self, p50: &'static str, tail_name: &'static str, xs: &[f64]) {
        self.put_noted(p50, median(xs), "ms", format!("({} samples)", xs.len()));
        self.put_tail(tail_name, xs);
    }

    /// The [`tail`] of latency samples, noted with its percentile.
    pub fn put_tail(&mut self, name: &'static str, xs: &[f64]) {
        if let Some((v, pct, n)) = tail(xs) {
            self.put_noted(name, Some(v), "ms", format!("(p{pct:.1} of {n} samples)"));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The JSON object `{"name": {"value": v, "unit": "u"}, ...}` of the
    /// named metrics that were measured.
    pub fn json_of(&self, names: &[&str]) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .filter(|m| names.contains(&m.name))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, pct, n) = tail(&xs).unwrap();
        assert_eq!((v, n), (90.0, 100));
        assert!((pct - 90.0).abs() < 1e-9);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!(tail(&xs[..10]).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn absent_and_unlisted_metrics_stay_out_of_the_json() {
        let mut m = Metrics::default();
        m.put("a_ms", Some(1.5), "ms");
        m.put("b_ms", None, "ms");
        m.put("c_ms", Some(f64::NAN), "ms");
        m.put("d_ms", Some(2.0), "ms");
        assert_eq!(
            m.json_of(&["a_ms", "b_ms", "c_ms"]),
            "{\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}"
        );
    }
}
