//! Small shared helpers: timing, order statistics, digests, peak memory,
//! and the run outcome every workload fills in.

use std::collections::BTreeMap;
use std::time::Instant;

/// Runs `f` and returns its result with the elapsed wall time in
/// milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms_since(t))
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The median of `values` (mean of the two middle values for an even
/// count); `NaN` when empty, which the outcome reports as a failure.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// 64-bit FNV-1a digest of `bytes`, as `0x`-prefixed hex.
pub fn digest(bytes: &[u8]) -> String {
    let mut h = atlas_ir::hash::Fnv::new(0);
    h.write(bytes);
    format!("0x{:016x}", h.finish())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Flushes every dirty page to disk and waits for it (`sync(2)`).
pub fn sync_disks() {
    extern "C" {
        fn sync();
    }
    // SAFETY: `sync` takes no arguments, touches no memory of ours and
    // cannot fail.
    unsafe { sync() }
}

/// A seed for sub-stream `parts` of the run seed: distinct parts give
/// unrelated streams, the same parts always the same one.
pub fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut h = atlas_ir::hash::Fnv::new(0x9e37_79b9_7f4a_7c15);
    h.write_u64(seed);
    for &p in parts {
        h.write_u64(p);
    }
    // Keep seeds well clear of overflow in `seed + i` stream arithmetic.
    h.finish() >> 8
}

/// What one benchmark run reports: operation and check counts, the
/// failures behind them, and the metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one operation or check; a `false` result is a failure,
    /// described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let message = what();
            eprintln!("perfbench: FAILED: {message}");
            self.errors.push(message);
        }
    }

    /// Counts one operation that returned an error.
    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// One lap of a time-bounded loop (a batch round, a serve or edit
/// episode): its operation and read latencies and the wall time of the
/// replay that issued them.
#[derive(Debug, Default)]
pub struct Lap {
    pub op_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    pub wall_ms: f64,
}

/// Sets the latency and throughput metrics of a run from its laps.
/// Percentiles pool every sample of the run (a run long enough for the
/// 99th percentile to have ten samples beyond it); throughput is taken
/// per lap and reported as its median over laps, so one lap disturbed by
/// the host cannot move it.
pub fn report_laps(laps: &[Lap], out: &mut Outcome) {
    let ops: Vec<f64> = laps.iter().flat_map(|l| l.op_ms.iter().copied()).collect();
    let reads: Vec<f64> = laps
        .iter()
        .flat_map(|l| l.read_ms.iter().copied())
        .collect();
    let rates: Vec<f64> = laps
        .iter()
        .map(|l| l.op_ms.len() as f64 / (l.wall_ms / 1e3))
        .collect();
    out.set("op_p50_ms", percentile(&ops, 50.0));
    out.set("op_p99_ms", percentile(&ops, 99.0));
    out.set("ops_per_s", median(&rates));
    out.set("read_p50_ms", percentile(&reads, 50.0));
    eprintln!(
        "perfbench: {} laps, {} operations, {} reads",
        laps.len(),
        ops.len(),
        reads.len()
    );
}
