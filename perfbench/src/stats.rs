//! Small numeric and output helpers: quantiles, hashing, timing, and
//! the hand-written JSON the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

/// Linear-interpolated quantile (`q` in [0, 1]) of unsorted samples;
/// 0.0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// FNV-1a over a string — the benchmark's output fingerprint.
pub fn fnv(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number: finite values print with every digit Rust keeps,
/// anything else as 0 (JSON has no NaN).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Named metrics with units, in name order.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Metrics {
    /// Set `name` to `value` in `unit`.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.insert(name, (value, unit));
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    string(name),
                    num(*value),
                    string(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}
