//! Sample sets, percentiles, process CPU time and the result line.

use std::fmt::Write as _;

/// Latency samples of one command class, in nanoseconds (saturating at
/// `u32::MAX`, 4.3 s: a drain walk takes millions of samples per run).
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u32>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Nearest-rank percentile (`p` in `0..=100`), in nanoseconds; 0
    /// when there are no samples.
    pub fn pct(&self, p: f64) -> f64 {
        percentile(&self.0, p).map_or(0.0, f64::from)
    }
}

/// Nearest-rank percentile of unsorted values.
pub fn percentile<T: Copy + Ord>(values: &[T], p: f64) -> Option<T> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    let at = rank.clamp(1, v.len()) - 1;
    Some(*v.select_nth_unstable(at).1)
}

/// Median of floats (mean of the two middle values for even counts).
pub fn median_f(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Process CPU time (user + system, every thread) in microseconds, from
/// `/proc/self/stat`.
pub fn process_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields[11].parse().expect("utime is a number");
    let stime: f64 = fields[12].parse().expect("stime is a number");
    // SAFETY: sysconf only reads a process-wide constant; any name is
    // allowed and an unknown one returns -1.
    let tck = unsafe { sysconf(SC_CLK_TCK) };
    let tck = if tck > 0 { tck as f64 } else { 100.0 };
    (utime + stime) * 1e6 / tck
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 for counts and ratios of counts).
    pub samples: usize,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Human-readable table: one line per metric with its sample count.
    pub fn print_table(&self) {
        for m in &self.metrics {
            println!(
                "  {:<28} {:>16.4} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(v),
                m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with all its digits (never exponent-free truncation
/// to an integer look-alike for fractional values).
fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}
