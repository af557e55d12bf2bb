//! Small helpers shared by the harness subcommands: argument lookup,
//! a flat JSON object writer, the median, timing and process memory.

use std::fmt::Write as _;
use std::time::Instant;

/// Command-line flags as `--name value` pairs.
pub struct Args(Vec<String>);

impl Args {
    pub fn new(args: Vec<String>) -> Self {
        Args(args)
    }

    /// The value after `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        self.0.iter().position(|a| *a == flag).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    /// The value after `--name`, parsed; an error names the flag.
    pub fn parse<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.get(name).ok_or_else(|| format!("missing --{name}"))?;
        v.parse().map_err(|_| format!("--{name}: cannot parse `{v}`"))
    }
}

/// A flat JSON object built field by field, printed as one line.
#[derive(Default)]
pub struct JsonObject(String);

impl JsonObject {
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        // JSON has no NaN or infinity; a non-finite value is a bug in the
        // measurement and must not pass as a number.
        assert!(value.is_finite(), "{key} is not finite: {value}");
        self.raw(key, &format!("{value}"))
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, &value.to_string())
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, &format!("\"{}\"", value.replace('\\', "\\\\").replace('"', "\\\"")))
    }

    pub fn nums(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
        self.raw(key, &format!("[{}]", items.join(",")))
    }

    fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        let _ = write!(self.0, "\"{key}\":{value}");
        self
    }

    pub fn line(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Seconds taken by `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
