//! Percentiles, and a field scanner for the server's `STAT` document.

/// Nearest-rank percentile of `samples` (sorted in place); `None` unless
/// at least ten samples lie beyond it.
pub fn percentile(samples: &mut [u64], q: f64) -> Option<u64> {
    samples.sort_unstable();
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
    (samples.len() >= rank + 10).then(|| samples[rank - 1])
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[allow(clippy::cast_precision_loss)]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every number written as `"name":<number>` in `doc`, in order of
/// appearance. The server's `STAT` document has a fixed layout with no
/// whitespace, so a scan for the field name is enough to read it.
pub fn fields(doc: &str, name: &str) -> Vec<f64> {
    let key = format!("\"{name}\":");
    doc.match_indices(&key)
        .filter_map(|(i, _)| {
            let rest = &doc[i + key.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

/// The first number of field `name` in `doc`, or an error naming it.
pub fn field(doc: &str, name: &str) -> Result<f64, String> {
    fields(doc, name)
        .first()
        .copied()
        .ok_or_else(|| format!("STAT has no numeric \"{name}\""))
}

/// The rest of `doc` after the first `"name":`.
pub fn after<'a>(doc: &'a str, name: &str) -> Result<&'a str, String> {
    let key = format!("\"{name}\":");
    doc.find(&key)
        .map(|i| &doc[i + key.len()..])
        .ok_or_else(|| format!("STAT has no \"{name}\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let mut s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&mut s, 0.99), Some(990));
        let mut few: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&mut few, 0.99), None);
        assert_eq!(percentile(&mut few, 0.5), Some(500));
    }

    #[test]
    fn scans_a_stat_shaped_document() {
        let doc = r#"{"shards":2,"ops":{"puts":9,"busy":3},"latency_us":{"put":{"count":4,"mean_us":250,"p50_us":255},"get":{"count":7,"mean_us":31}},"per_shard":[{"element_writes":5,"failed_slots":[1]},{"element_writes":6,"failed_slots":[]}]}"#;
        let latency = after(doc, "latency_us").unwrap();
        let put = after(latency, "put").unwrap();
        let get = after(latency, "get").unwrap();
        assert_eq!(field(put, "count").unwrap(), 4.0);
        assert_eq!(field(put, "mean_us").unwrap(), 250.0);
        assert_eq!(field(get, "count").unwrap(), 7.0);
        assert_eq!(field(get, "mean_us").unwrap(), 31.0);
        assert_eq!(fields(doc, "element_writes"), [5.0, 6.0]);
        assert_eq!(fields(doc, "failed_slots"), Vec::<f64>::new());
        assert!(field(doc, "missing").is_err());
        assert!(after(doc, "missing").is_err());
    }
}
