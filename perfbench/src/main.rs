//! `spmv-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro-tiny|label-small|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload drives the system only
//! through public functions of its crates, checks its outputs (a failed
//! check fails the run), and prints as its last stdout line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reruns the workload with
//! spans around every call into a layer and reports per-layer metrics.
//! Progress and sample counts go to stderr. Nothing is written outside
//! the build directory; the committed `results/` tree is only read.

mod label;
mod openloop;
mod pins;
mod repro;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Metric name → (value, unit), printed in sorted order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Operations attempted (cells, requests, exhibits).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    pub metrics: Metrics,
    /// Why a gate failed, one line each.
    pub gate_failures: Vec<String>,
}

impl Outcome {
    /// Record a gate: a false `ok` fails the run with `what`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.0.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Time a set-up of a second or more `n` times; returns the last
/// product and each time in seconds. Such a set-up is timed `n` times
/// before the timed work and `n` times after it, and reports the median:
/// on a shared host whose speed changes over tens of seconds, set-ups at
/// both ends of the run see more of it than back-to-back ones would.
pub fn setup_runs<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    while times.len() < n.max(1) {
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let last = last.ok_or("set-up did not run")?;
    Ok((last, times))
}

/// Time a set-up of microseconds: 0.2 s untimed so it runs warm, then
/// [`SETUP_BATCHES`] batches of at least 20 ms, each under a heap shifted
/// by a differently sized spacer allocation. Returns the last product and
/// each batch's median in seconds.
///
/// A workload calls this once before its timed work and once after, and
/// reports the mean of all batch medians. At microseconds a set-up's speed
/// depends on where its allocations land, which differs from process to
/// process, and on the moment: on a shared host it ran at one of two
/// speeds, 1.7x apart, switching every 0.1 s to tens of seconds. Spreading
/// batches over heap layouts and over the run, and taking their mean,
/// makes the figure follow the share of time at each speed where a median
/// would jump from one to the other.
pub fn setup_batches<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut last = setup()?;
    let warm = Instant::now();
    while warm.elapsed() < Duration::from_millis(200) {
        last = setup()?;
    }
    let mut batch_medians = Vec::with_capacity(SETUP_BATCHES);
    for k in 0..SETUP_BATCHES {
        let spacer: Vec<Vec<u8>> = (0..(k * 7) % 23)
            .map(|j| vec![1u8; 1 + (j * 977 + k * 4099) % 20_000])
            .collect();
        let start = Instant::now();
        let mut times = Vec::new();
        while times.len() < 3 || start.elapsed() < Duration::from_millis(20) {
            let t = Instant::now();
            last = setup()?;
            times.push(t.elapsed().as_secs_f64());
        }
        batch_medians.push(stats::median(&times).unwrap_or(0.0));
        drop(std::hint::black_box(spacer));
    }
    Ok((last, batch_medians))
}

/// Batches per [`setup_batches`] call.
pub const SETUP_BATCHES: usize = 20;

/// Mean of `values`; 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Run `pass` at least once and again while another pass is expected to
/// end within `budget`; returns each pass's wall time in seconds.
pub fn timed_passes(
    budget: Duration,
    mut pass: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut walls: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        pass(walls.len())?;
        walls.push(t.elapsed().as_secs_f64());
        let typical = stats::median(&walls).unwrap_or(0.0);
        if start.elapsed().as_secs_f64() + typical > budget.as_secs_f64() {
            return Ok(walls);
        }
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
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

/// Where the traced run writes its span file: inside the build directory
/// (`CARGO_TARGET_DIR`, else `.bench_build`), never under `results/`.
pub fn trace_path(args: &Args) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    root.join("perfbench")
        .join(format!("trace-{}-{}.json", args.workload, args.seed))
}

/// Every per-layer metric a traced run prints, with its unit. A traced
/// run prints all of them; a layer its workload does not reach reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| v.push((name, unit));
    for id in repro::EXPERIMENT_IDS {
        add(format!("core.experiment_ms.{id}"), "ms");
    }
    for family in ["cart", "gbt", "svm", "mlp", "mlp_ensemble", "svr"] {
        add(format!("ml.fit_ms.{family}"), "ms");
    }
    add("ml.predict_us".into(), "us");
    add("ml.advisor_accuracy_pct".into(), "%");
    add("ml.advisor_oracle_pct".into(), "%");
    add("ml.advisor_time_rme_pct".into(), "%");
    for layer in [
        "corpus.generate",
        "matrix.rowstats",
        "matrix.structure",
        "features.extract",
        "gpusim.profile",
        "gpusim.measure",
        "core.label_record",
        "exec.prepare",
        "exec.kernel",
        "matrix.mm_parse",
        "matrix.coo_to_csr",
    ] {
        add(format!("{layer}_ms"), "ms");
    }
    add("gpusim.profile_cache_hit_ratio".into(), "ratio");
    add("core.collect_idle_pct".into(), "%");
    for fmt in spmv_matrix::Format::ALL {
        add(format!("exec.gflops.{}", fmt.label()), "GFLOP/s");
        add(format!("exec.flop_per_byte.{}", fmt.label()), "flop/B");
    }
    add("matrix.mm_mb_per_s".into(), "MB/s");
    add("serve.http_parse_us".into(), "us");
    add("serve.render_us".into(), "us");
    add("serve.cache_hit_ratio".into(), "ratio");
    add("serve.p50_ms.light".into(), "ms");
    add("serve.p99_ms.light".into(), "ms");
    add("serve.p50_ms.heavy".into(), "ms");
    add("serve.p99_ms.heavy".into(), "ms");
    for counter in [
        "cache_evictions",
        "batch_jobs",
        "shed_503",
        "retrains",
        "swaps",
        "rollbacks",
    ] {
        add(format!("serve.{counter}"), "count");
    }
    for class in serve::CLASS_NAMES {
        for rate in ["light", "heavy"] {
            for p in ["p50", "p90"] {
                add(format!("serve.latency_ms.{class}.{rate}.{p}"), "ms");
            }
        }
        add(format!("serve.queue_ms.heavy.{class}"), "ms");
    }
    add("loadgen.lag_ms".into(), "ms");
    add("loadgen.backlog_max".into(), "count");
    add("observe.overhead_pct".into(), "%");
    v
}

/// Fill the per-layer metrics a traced run did not reach with 0, and
/// refuse names missing from [`per_layer`].
fn complete_per_layer(m: &mut Metrics) -> Result<(), String> {
    let all = per_layer();
    if let Some(unknown) = m.0.keys().find(|k| !all.iter().any(|(n, _)| n == *k)) {
        return Err(format!("per-layer metric {unknown} is not declared"));
    }
    for (name, unit) in all {
        m.0.entry(name).or_insert((0.0, unit));
    }
    Ok(())
}

/// The end-to-end metrics, with units. Every workload prints all of
/// them; `ops_per_s` counts the workload's own operation: exhibits
/// rendered plus the advisor fit (repro-tiny), matrices labeled
/// (label-small), or requests per second at the highest ladder rate that met
/// the latency limit (serve-mixed).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_pct", "%"),
    ("ops_per_s", "1/s"),
];

/// Refuse an untraced result that misses an end-to-end metric, prints
/// an undeclared one, or reads 0.
fn check_end_to_end(m: &Metrics) -> Result<(), String> {
    if let Some(unknown) =
        m.0.keys()
            .find(|k| !END_TO_END.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("end-to-end metric {unknown} is not declared"));
    }
    for (name, unit) in END_TO_END {
        match m.0.get(*name) {
            None => return Err(format!("end-to-end metric {name} was not measured")),
            Some((v, u)) if u != unit => {
                return Err(format!(
                    "end-to-end metric {name} is in {u}, not {unit} ({v})"
                ))
            }
            Some((v, _)) if *v == 0.0 => return Err(format!("end-to-end metric {name} reads 0")),
            Some(_) => {}
        }
    }
    Ok(())
}

const USAGE: &str = "usage: spmv-perfbench --workload <repro-tiny|label-small|serve-mixed> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The committed label caches are inputs; without them this is not a
    // checkout of the repository.
    for input in [pins::TINY_LABELS, pins::SMALL_LABELS] {
        if !std::path::Path::new(input).is_file() {
            eprintln!("error: {input} not found; run from the repository root");
            return ExitCode::from(2);
        }
    }
    let result = match args.workload.as_str() {
        "repro-tiny" => repro::run(&args),
        "label-small" => label::run_small(&args),
        "serve-mixed" => serve::run(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let declared = if args.trace {
        complete_per_layer(&mut outcome.metrics)
    } else {
        check_end_to_end(&outcome.metrics)
    };
    if let Err(e) = declared {
        eprintln!("error: {e}");
        return ExitCode::from(1);
    }
    outcome.correct = outcome.gate_failures.is_empty();
    for failure in &outcome.gate_failures {
        eprintln!("gate failed: {failure}");
    }
    match outcome.to_json() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(key: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits next to perfbench/");
        let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let field = |m: &serde_json::Value, k: &str| -> String {
            let map = m.as_map().expect("metric entries are objects");
            map.iter()
                .find(|(name, _)| name == k)
                .and_then(|(_, v)| v.as_str())
                .expect("string field")
                .to_string()
        };
        let list = doc
            .as_map()
            .expect("top level is an object")
            .iter()
            .find(|(k, _)| k == key)
            .expect("key present")
            .1
            .clone();
        let mut v: Vec<(String, String)> = list
            .as_seq()
            .expect("metric list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let mut e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        e2e.sort();
        assert_eq!(declared("end_to_end"), e2e);
        let mut layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        layers.sort();
        assert_eq!(declared("per_layer"), layers);
    }
}
