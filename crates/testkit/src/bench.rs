//! A wall-clock micro-bench harness with a `criterion`-compatible macro
//! surface.
//!
//! The six bench targets under `crates/bench/benches/` were written
//! against `criterion_group!`/`criterion_main!`/`Criterion`; this module
//! provides those names so the targets port mechanically, while the
//! measurement core stays small enough to audit: per benchmark it runs a
//! fixed warmup, then `sample_size` timed samples, and reports the
//! median (the statistic least disturbed by scheduler noise).
//!
//! Every result is printed and appended as one JSON line to
//! `target/seceda-bench.json` (`CARGO_TARGET_DIR` respected), giving
//! future performance PRs a machine-readable trajectory to compare
//! against:
//!
//! ```json
//! {"name":"fig1/secure_flow","median_ns":123456,"samples":10,"iters_per_sample":1}
//! ```

use crate::json::Json;
use std::io::Write as _;
use std::time::Instant;

/// Default number of timed samples per benchmark.
pub const DEFAULT_SAMPLE_SIZE: usize = 20;

/// Number of untimed warmup executions per benchmark.
pub const WARMUP_ITERS: usize = 3;

/// The harness handle passed to bench functions (shim of
/// `criterion::Criterion`).
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: DEFAULT_SAMPLE_SIZE,
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples (builder style, like criterion).
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs one named benchmark. `f` receives a [`Bencher`] and is
    /// expected to call [`Bencher::iter`].
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            sample_size: self.sample_size,
            samples_ns: Vec::new(),
        };
        f(&mut b);
        let result = b.finish(id);
        result.report();
        self
    }
}

/// Collects timing samples for one benchmark.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    samples_ns: Vec<u128>,
}

impl Bencher {
    /// Times `f`: [`WARMUP_ITERS`] untimed calls, then one timed call per
    /// sample. The closure's output is passed through `std::hint::black_box`
    /// so the computation cannot be optimized away.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        for _ in 0..WARMUP_ITERS {
            std::hint::black_box(f());
        }
        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            std::hint::black_box(f());
            self.samples_ns.push(start.elapsed().as_nanos());
        }
    }

    fn finish(mut self, id: &str) -> BenchResult {
        self.samples_ns.sort_unstable();
        let median_ns = if self.samples_ns.is_empty() {
            0
        } else {
            self.samples_ns[self.samples_ns.len() / 2]
        };
        BenchResult {
            name: id.to_string(),
            median_ns,
            samples: self.samples_ns.len(),
        }
    }
}

/// One benchmark's measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchResult {
    /// Benchmark id as passed to `bench_function`.
    pub name: String,
    /// Median wall-clock time of one iteration, in nanoseconds.
    pub median_ns: u128,
    /// Number of timed samples behind the median.
    pub samples: usize,
}

impl BenchResult {
    /// Renders the measurement as one JSON line, the format appended to
    /// `target/seceda-bench.json`.
    pub fn json_line(&self) -> String {
        Json::obj()
            .field("name", self.name.as_str())
            .field("median_ns", self.median_ns as i64)
            .field("samples", self.samples)
            .field("iters_per_sample", 1i64)
            .build()
            .render()
    }

    fn report(&self) {
        println!(
            "bench {:<48} median {:>12} ns over {} samples",
            self.name, self.median_ns, self.samples
        );
        append_json_line(&self.json_line());
    }
}

/// Median wall-clock time of `samples` runs of `f`, in nanoseconds,
/// with the result of the last run (no warmup; for bench targets that
/// time whole engine runs and write their own report files).
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn time_median<R>(samples: usize, mut f: impl FnMut() -> R) -> (u128, R) {
    let mut times = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let start = Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(start.elapsed().as_nanos());
    }
    times.sort_unstable();
    (times[times.len() / 2], last.expect("at least one sample"))
}

/// [`time_median`] after `warmups` untimed runs of `f`, so the timed
/// samples see warm caches and a settled allocator.
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn time_median_warm<R>(warmups: usize, samples: usize, mut f: impl FnMut() -> R) -> (u128, R) {
    for _ in 0..warmups {
        std::hint::black_box(f());
    }
    time_median(samples, f)
}

/// Resolves the build's `target` directory. Cargo runs test and bench
/// binaries with the *package* root as cwd, so a relative `target/`
/// would scatter files across crate dirs; instead walk up from the
/// running executable (`target/<profile>/deps/...`) to the real one.
///
/// Public so bench targets can drop their own report files (e.g.
/// `BENCH_fault_sim.json`) next to `seceda-bench.json`.
pub fn target_dir() -> std::path::PathBuf {
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        return std::path::PathBuf::from(dir);
    }
    if let Ok(exe) = std::env::current_exe() {
        if let Some(target) = exe
            .ancestors()
            .find(|p| p.file_name().is_some_and(|n| n == "target"))
        {
            return target.to_path_buf();
        }
    }
    std::path::PathBuf::from("target")
}

/// Appends one line to `target/seceda-bench.json`, best effort: bench
/// timing must never fail a run over an unwritable disk.
fn append_json_line(line: &str) {
    let target = target_dir();
    let path = target.join("seceda-bench.json");
    let _ = std::fs::create_dir_all(&target);
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = writeln!(f, "{line}");
    }
}

/// Declares a bench group (shim of `criterion_group!`). Both the
/// positional form and the `name =` / `config =` / `targets =` form are
/// supported.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $cfg;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::bench::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main` (shim of `criterion_main!`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // Cargo passes harness flags (`--bench`, filters) that this
            // minimal harness does not interpret.
            $( $group(); )+
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_sorted_samples() {
        let b = Bencher {
            sample_size: 5,
            samples_ns: vec![50, 10, 30, 20, 40],
        };
        let r = b.finish("m");
        assert_eq!(r.median_ns, 30);
        assert_eq!(r.samples, 5);
    }

    #[test]
    fn bencher_iter_collects_requested_samples() {
        let mut c = Criterion::default().sample_size(4);
        // Goes through the whole path including the JSON line append.
        c.bench_function("testkit/self", |b| b.iter(|| 2u64 + 2));
    }

    #[test]
    fn json_line_shape() {
        let r = BenchResult {
            name: "x".into(),
            median_ns: 7,
            samples: 3,
        };
        assert_eq!(
            r.json_line(),
            r#"{"name":"x","median_ns":7,"samples":3,"iters_per_sample":1}"#
        );
    }
}
