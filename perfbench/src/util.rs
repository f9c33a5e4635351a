//! Shared plumbing: the seeded generator, order statistics, peak-RSS
//! readings, and the result line the benchmark prints.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// splitmix64 step: the benchmark's only source of randomness, so every
/// input is a pure function of `--seed`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`: distinct streams of one seed are
    /// independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Canonical key of the undirected edge `{u, v}`.
pub fn edge_key(u: u32, v: u32) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    (u64::from(a) << 32) | u64::from(b)
}

/// Nearest-rank `q`-quantile of `values` (sorted in place). `0.0` when
/// empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Peak resident set (`VmHWM`) of process `pid` (this process when
/// `None`), in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// CPU time (user + system, all threads) process `pid` has used so far
/// (this process when `None`), in seconds, from `/proc/<pid>/stat` in
/// Linux's fixed 100 Hz `USER_HZ` ticks.
pub fn cpu_s(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/stat"),
        None => "/proc/self/stat".to_string(),
    };
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) as f64 / 100.0),
        _ => Err(format!("{path}: no utime/stime fields")),
    }
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Progress line on stderr, stamped with seconds since the first call.
pub fn log(msg: &str) {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let t = START.get_or_init(Instant::now).elapsed().as_secs_f64();
    eprintln!("perfbench: [{t:6.1}s] {msg}");
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports: the result line's four keys, plus the
/// check failures that made `correct` false.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Output checks that did not hold (empty = correct).
    pub wrong: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest representation that round-trips,
            // so every measured digit survives.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Mean gap, in percent of the untraced value, between an untraced and
/// a traced measurement of the same metrics; positive means the traced
/// run was worse. Entries are `(untraced, traced, higher_is_better)`.
pub fn overhead_pct(pairs: &[(f64, f64, bool)]) -> f64 {
    let gaps: Vec<f64> = pairs
        .iter()
        .filter(|(a, _, _)| *a > 0.0)
        .map(|&(a, b, higher)| {
            let worse = if higher { a - b } else { b - a };
            worse / a * 100.0
        })
        .collect();
    gaps.iter().sum::<f64>() / gaps.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(median(&mut v), 500.0);
        assert_eq!(quantile(&mut v, 0.999), 999.0);
        assert_eq!(quantile(&mut v, 1.0), 1000.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn rng_is_seeded_and_bounded() {
        let a: Vec<usize> = {
            let mut r = Rng::new(7, 1);
            (0..100).map(|_| r.below(10)).collect()
        };
        let b: Vec<usize> = {
            let mut r = Rng::new(7, 1);
            (0..100).map(|_| r.below(10)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 10));
        let mut c = Rng::new(7, 2);
        assert_ne!(a, (0..100).map(|_| c.below(10)).collect::<Vec<_>>());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("latency_ms", 1.25, "ms");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_s(None).unwrap();
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(200) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let used = cpu_s(None).unwrap() - before;
        assert!((0.1..1.0).contains(&used), "{used}");
    }

    #[test]
    fn overhead_is_signed_by_direction() {
        // Latency 10 → 11 (10% worse), throughput 100 → 95 (5% worse).
        let pct = overhead_pct(&[(10.0, 11.0, false), (100.0, 95.0, true), (4.0, 4.0, false)]);
        assert!((pct - 5.0).abs() < 1e-9);
    }
}
