//! `serve-mixed`: an open loop against an in-process `Server`
//! (2 workers) serving a `FormatAdvisor` trained during set-up.
//!
//! Load comes from this process over one keep-alive connection (a writer
//! and a reader thread), with pipelined sends so the schedule never waits
//! for a reply. One connection because two opened back to back were both
//! accepted by the same server shard in every probe on a 2-core host, so a
//! second connection added no server parallelism, only client threads.
//! The mix repeats a 20-request cycle of distinct MatrixMarket uploads
//! (1k–50k nnz, cycled through a pool larger than the 256-entry cache, so
//! every one misses), exact repeats of a few hot uploads (cache hits),
//! 17-value feature vectors, `/v1/feedback` writes that drive retrain →
//! canary → swap cycles under load, malformed bodies that must get a 400,
//! and `/healthz` probes that say which model generation answered. The
//! rate ladder is fixed in requests per second. On a 2-core host the
//! heavy rung's p50 and p99 moved by 30–80% between runs of one seed, so
//! they are per-layer numbers, and the ladder stops at 400 rps: a 600 rps
//! rung passed or failed the latency limit from run to run as the host's
//! speed drifted, and the capacity edge (about 1000–1200 rps) did too.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use spmv_core::{AdvisorHandle, FormatAdvisor, LabeledCorpus, OnlineConfig, SearchBudget};
use spmv_corpus::{GenKind, MatrixSpec};
use spmv_features::{extract, FeatureVector};
use spmv_matrix::CsrMatrix;
use spmv_serve::loadgen::{feature_body, feedback_body, FORMAT_LABELS};
use spmv_serve::{Server, ServerConfig};

use crate::openloop::{backlog_at_dues, backlog_grew, drive, Record};
use crate::pins::TINY_LABELS;
use crate::stats::{median, min_samples, percentile, quartiles};
use crate::trace::{self_ms_by_name, Tracer};
use crate::{peak_rss_mb, setup_runs, trace_path, Args, Metrics, Outcome};

/// Offered rates, requests per second. Light and heavy are rungs of it.
pub const LADDER: [f64; 3] = [200.0, 300.0, 400.0];
const LIGHT: usize = 0;
const HEAVY: usize = 1;
/// p99 latency limit a rung must meet to count toward `ops_per_s`.
pub const P99_LIMIT_MS: f64 = 100.0;
/// Distinct uploads cycled as cold requests (more than the cache holds).
const POOL: usize = 320;
/// Hot uploads repeated within the cache.
const HOT: usize = 8;
/// Measured feedback events per scheduled retrain.
const RETRAIN_AFTER: usize = 100;
/// Smallest and largest upload, in non-zeros.
const NNZ_RANGE: (f64, f64) = (1_000.0, 50_000.0);
/// How long a phase may run past its last due time before unanswered
/// requests count as timed out.
const DRAIN_S: f64 = 5.0;
/// Set-ups timed before the ladder, and again after it (see
/// [`setup_runs`]).
const SETUP_RUNS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Cold,
    Hot,
    Features,
    Feedback,
    Bad,
    Status,
}

impl Class {
    const ALL: [Class; 6] = [
        Class::Cold,
        Class::Hot,
        Class::Features,
        Class::Feedback,
        Class::Bad,
        Class::Status,
    ];

    fn name(self) -> &'static str {
        CLASS_NAMES[self as usize]
    }

    fn expected_status(self) -> u16 {
        if self == Class::Bad {
            400
        } else {
            200
        }
    }
}

/// Request class names, as used in per-layer metric names.
pub const CLASS_NAMES: [&str; 6] = ["cold", "hot", "features", "feedback", "bad", "status"];

use Class::{Bad as B, Cold as C, Features as F, Feedback as K, Hot as H, Status as S};
/// One cycle of the mix: 4 cold, 4 hot, 5 features, 2 feedback, 2 bad,
/// 3 status.
const CYCLE: [Class; 20] = [C, H, F, S, C, K, H, F, B, S, C, H, F, F, K, S, C, H, F, B];

/// Malformed bodies: not a document, a short feature vector, and a
/// MatrixMarket header that promises more entries than it has.
const BAD_BODIES: [&[u8]; 3] = [
    b"this is not a matrix",
    b"{\"features\":[1,2,3]}",
    b"%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n",
];

/// A request body and what it is.
struct Body {
    class: Class,
    target: &'static str,
    bytes: Arc<[u8]>,
}

/// Everything built during set-up.
struct Setup {
    server: Server,
    conn: TcpStream,
    advisor_bytes: Vec<u8>,
    cold: Vec<Arc<[u8]>>,
    hot: Vec<Arc<[u8]>>,
    cold_nnz: Vec<usize>,
    /// Generation number the server booted with.
    boot: u64,
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// A MatrixMarket upload of about `nnz` non-zeros; the generator family
/// rotates with `i`. Every family has a size that the seed does not
/// change, so seeds differ in structure, not in volume.
fn upload(i: usize, nnz: usize, seed: u64) -> (Vec<u8>, usize) {
    let n = |per_row: usize| (nnz / per_row).max(8);
    let kind = match i % 4 {
        0 => GenKind::Uniform {
            n_rows: n(8),
            n_cols: n(8),
            nnz,
        },
        1 => GenKind::Banded {
            n: n(9),
            half_width: 4,
            fill: 1.0,
        },
        2 => {
            let g = ((nnz / 5) as f64).sqrt().max(4.0) as usize;
            GenKind::Stencil2D { gx: g, gy: g }
        }
        _ => GenKind::RMat {
            scale: (n(8) as f64).log2().ceil() as u32,
            nnz,
            probs: (0.57, 0.19, 0.19),
        },
    };
    let spec = MatrixSpec {
        name: format!("upload{i}"),
        kind,
        seed,
    };
    let csr: CsrMatrix<f64> = spec.generate();
    let mut bytes = Vec::with_capacity(csr.nnz() * 24 + 64);
    spmv_matrix::mm::write_matrix_market(&csr.to_coo(), &mut bytes)
        .expect("writing to a Vec cannot fail");
    (bytes, csr.nnz())
}

fn setup(seed: u64) -> Result<Setup, String> {
    let corpus = LabeledCorpus::load(std::path::Path::new(TINY_LABELS))
        .map_err(|e| format!("{TINY_LABELS}: {e}"))?;
    let advisor = FormatAdvisor::train(&corpus, spmv_core::Env::ALL[3], SearchBudget::Quick);
    let advisor_bytes = advisor
        .to_artifact_bytes()
        .map_err(|e| format!("artifact: {e}"))?;
    let (ln_lo, ln_hi) = (NNZ_RANGE.0.ln(), NNZ_RANGE.1.ln());
    let mut cold: Vec<Arc<[u8]>> = Vec::with_capacity(POOL);
    let mut cold_nnz = Vec::with_capacity(POOL);
    // Sizes sit on a fixed log-spaced grid, sent in a fixed shuffled order
    // with the family tied to the size, so every seed offers the same
    // sequence of work; the seed changes only the generated structure.
    let mut order: Vec<usize> = (0..POOL).collect();
    let mut shuffle = 0x5eed_5eed_u64;
    for i in (1..POOL).rev() {
        order.swap(i, lcg(&mut shuffle) as usize % (i + 1));
    }
    let mut state = seed ^ 0x5eed_5eed;
    for &rank in &order {
        let u = (rank as f64 + 0.5) / POOL as f64;
        let (bytes, nnz) = upload(
            rank,
            (ln_lo + u * (ln_hi - ln_lo)).exp() as usize,
            lcg(&mut state),
        );
        cold.push(Arc::from(bytes));
        cold_nnz.push(nnz);
    }
    let hot = (0..HOT)
        .map(|i| Arc::from(upload(i, 2_000 + 500 * i, lcg(&mut state)).0))
        .collect();
    let config = ServerConfig {
        workers: 2,
        keep_alive_max_requests: usize::MAX,
        // Every candidate is promoted and the feedback stream does not
        // depend on the seed, so retrains and swaps land on the same
        // requests in every run.
        online: OnlineConfig {
            retrain_after: RETRAIN_AFTER,
            canary_agree_pct: 0,
            ..OnlineConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::spawn(config, AdvisorHandle::from_advisor(advisor))
        .map_err(|e| format!("spawn: {e}"))?;
    let mut conn = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    conn.set_nodelay(true)
        .map_err(|e| format!("connect: {e}"))?;
    let (_, health) = roundtrip(&mut conn, &head("GET", "/healthz", 0), b"")?;
    let boot = generation_of(&health).ok_or("healthz reports no generation")?;
    Ok(Setup {
        server,
        conn,
        advisor_bytes,
        cold,
        hot,
        cold_nnz,
        boot,
    })
}

fn head(method: &str, target: &str, len: usize) -> Vec<u8> {
    if method == "GET" {
        format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
    } else {
        format!("POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len}\r\n\r\n")
            .into_bytes()
    }
}

/// Feedback for request `k`: a measured time for one format, attributed
/// to `generation`. Its content does not depend on the seed.
fn feedback(k: usize, generation: u64) -> Vec<u8> {
    let fmt = FORMAT_LABELS[k % FORMAT_LABELS.len()];
    feedback_body(k as u64, fmt, generation, 1e-4 * (1 + k % 7) as f64)
}

/// Request `k` of the run (a global index, so pools keep cycling across
/// phases).
fn body(s: &Setup, seed: u64, k: usize) -> Body {
    let class = CYCLE[k % CYCLE.len()];
    let slot = k % CYCLE.len();
    // Position of this request among its class's requests so far.
    let per_cycle = CYCLE.iter().filter(|&&c| c == class).count();
    let nth = k / CYCLE.len() * per_cycle + CYCLE[..slot].iter().filter(|&&c| c == class).count();
    let key = seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let (target, bytes) = match class {
        Class::Cold => ("/v1/recommend", Arc::clone(&s.cold[nth % POOL])),
        Class::Hot => ("/v1/recommend", Arc::clone(&s.hot[nth % HOT])),
        Class::Features => ("/v1/recommend", Arc::from(feature_body(key))),
        Class::Feedback => ("/v1/feedback", Arc::from(feedback(k, s.boot))),
        Class::Bad => (
            "/v1/recommend",
            Arc::from(BAD_BODIES[nth % BAD_BODIES.len()]),
        ),
        Class::Status => ("/healthz", Arc::from(&b""[..])),
    };
    Body {
        class,
        target,
        bytes,
    }
}

/// One request as sent and answered.
struct Sample {
    class: Class,
    body: Body,
    record: Record,
}

/// Run `n` requests at `rate` starting with global index `first`.
fn phase(
    s: &mut Setup,
    seed: u64,
    first: usize,
    n: usize,
    rate: f64,
    tracer: &Tracer,
) -> Result<Vec<Sample>, String> {
    let bodies: Vec<Body> = (first..first + n).map(|k| body(s, seed, k)).collect();
    let heads: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| {
            head(
                if b.class == Class::Status {
                    "GET"
                } else {
                    "POST"
                },
                b.target,
                b.bytes.len(),
            )
        })
        .collect();
    let lead = 0.005;
    let dues: Vec<f64> = (0..n).map(|i| lead + i as f64 / rate).collect();
    // Feedback is attributed to the newest generation a `/healthz` probe
    // has reported, as a client would; the watchdog of a promoted
    // generation only counts feedback attributed to it.
    let latest = AtomicU64::new(s.boot);
    let send = |i: usize, w: &mut TcpStream| -> std::io::Result<()> {
        let b = &bodies[i];
        if b.class == Class::Feedback {
            let bytes = feedback(first + i, latest.load(Ordering::Relaxed));
            w.write_all(&head("POST", b.target, bytes.len()))?;
            w.write_all(&bytes)
        } else {
            w.write_all(&heads[i])?;
            w.write_all(&b.bytes)
        }
    };
    let on_reply = |i: usize, status: u16, body: &[u8]| {
        if bodies[i].class == Class::Status && status == 200 {
            if let Some(g) = generation_of(body) {
                latest.store(g, Ordering::Relaxed);
            }
        }
    };
    let origin = Instant::now();
    let deadline = lead + n as f64 / rate + DRAIN_S;
    let records = drive(&mut s.conn, &dues, origin, deadline, send, on_reply)
        .map_err(|e| format!("load: {e}"))?;
    let at = |t: f64| origin + std::time::Duration::from_secs_f64(t);
    let samples: Vec<Sample> = bodies
        .into_iter()
        .zip(records)
        .enumerate()
        .map(|(i, (body, record))| {
            if let Some(done) = record.done {
                let name = format!("serve.request.{}", body.class.name());
                tracer.record(&name, at(record.due), at(done), None, (first + i) as u64);
            }
            Sample {
                class: body.class,
                body,
                record,
            }
        })
        .collect();
    Ok(samples)
}

/// Per-phase summary.
struct PhaseStats {
    rate: f64,
    n: usize,
    failed: usize,
    p50: f64,
    p99: f64,
    class_p50: Vec<(Class, f64)>,
    class_p90: Vec<(Class, f64)>,
    lag_p99: f64,
    backlog_max: usize,
    backlog_grew: bool,
}

impl PhaseStats {
    fn meets_slo(&self) -> bool {
        self.failed == 0 && !self.backlog_grew && self.p99 < P99_LIMIT_MS
    }
}

/// A failed request: no reply in time, or a refusal (503).
fn failed(s: &Sample) -> bool {
    s.record.done.is_none() || s.record.status == 503
}

fn summarize(rate: f64, samples: &[Sample]) -> PhaseStats {
    // A failed request misses any latency limit: count it as infinite.
    let lat = |s: &Sample| {
        if failed(s) {
            f64::INFINITY
        } else {
            s.record.latency_ms().unwrap_or(f64::INFINITY)
        }
    };
    let all: Vec<f64> = samples.iter().map(lat).collect();
    let class_lat =
        |c: Class| -> Vec<f64> { samples.iter().filter(|s| s.class == c).map(lat).collect() };
    let records: Vec<Record> = samples.iter().map(|s| s.record.clone()).collect();
    let backlog = backlog_at_dues(&records);
    let lags: Vec<f64> = records.iter().filter_map(Record::lag_ms).collect();
    PhaseStats {
        rate,
        n: samples.len(),
        failed: samples.iter().filter(|s| failed(s)).count(),
        p50: percentile(&all, 50.0).unwrap_or(f64::INFINITY),
        p99: percentile(&all, 99.0).unwrap_or(f64::INFINITY),
        class_p50: Class::ALL
            .iter()
            .map(|&c| (c, percentile(&class_lat(c), 50.0).unwrap_or(0.0)))
            .collect(),
        class_p90: Class::ALL
            .iter()
            .map(|&c| (c, percentile(&class_lat(c), 90.0).unwrap_or(0.0)))
            .collect(),
        lag_p99: percentile(&lags, 99.0).unwrap_or(0.0),
        backlog_max: backlog.iter().copied().max().unwrap_or(0),
        backlog_grew: backlog_grew(&backlog),
    }
}

fn generation_of(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"generation\":")? + "\"generation\":".len()..];
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// The offline answer for a recommend body, exactly as the server renders
/// it: `AdvisorHandle::recommend_csr(..).to_json()` for an upload,
/// `recommend_features` for a feature vector, plus a newline.
fn offline_answer(handle: &AdvisorHandle, body: &[u8]) -> Option<Vec<u8>> {
    let response = if body.starts_with(b"%%MatrixMarket") {
        let coo = spmv_matrix::mm::read_matrix_market::<f64, _>(body).ok()?;
        handle.recommend_csr(&coo.to_csr())
    } else {
        let fv = parse_features(body)?;
        handle.recommend_features(&fv)
    };
    let mut bytes = response.to_json().into_bytes();
    bytes.push(b'\n');
    Some(bytes)
}

fn parse_features(body: &[u8]) -> Option<FeatureVector> {
    let v = serde_json::parse_value(std::str::from_utf8(body).ok()?).ok()?;
    let seq = v
        .as_map()?
        .iter()
        .find(|(k, _)| k == "features")?
        .1
        .as_seq()?
        .to_vec();
    let values: Vec<f64> = seq
        .iter()
        .map(|x| match x {
            serde_json::Value::F64(f) => Some(*f),
            serde_json::Value::U64(u) => Some(*u as f64),
            serde_json::Value::I64(i) => Some(*i as f64),
            _ => None,
        })
        .collect::<Option<_>>()?;
    FeatureVector::from_slice(&values)
}

/// Gates: every reply's status is the one its class expects (a refusal
/// or timeout is a failure, not a wrong answer), and every recommend
/// reply proven to come from the boot generation equals the offline
/// answer byte for byte. A reply is proven boot when every `/healthz`
/// probe up to the first one after it reported the boot generation.
fn check(out: &mut Outcome, samples: &[Sample], handle: &AdvisorHandle, boot: u64) -> usize {
    let wrong_status: Vec<String> = samples
        .iter()
        .filter(|s| !failed(s) && s.record.status != s.class.expected_status())
        .map(|s| format!("{} got {}", s.class.name(), s.record.status))
        .collect();
    out.gate(wrong_status.is_empty(), || {
        format!(
            "{} replies with an unexpected status, e.g. {:?}",
            wrong_status.len(),
            wrong_status.first()
        )
    });
    // The connection is served in order: every reply before the last probe
    // that still reports the boot generation (with no earlier probe
    // reporting another) came from the boot generation.
    let probes = samples
        .iter()
        .enumerate()
        .filter(|(_, s)| s.class == Class::Status && !failed(s));
    let proven_before = probes
        .take_while(|(_, s)| generation_of(&s.record.body) == Some(boot))
        .last()
        .map_or(0, |(i, _)| i);
    let proven: Vec<bool> = samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            i < proven_before
                && matches!(s.class, Class::Cold | Class::Hot | Class::Features)
                && s.record.status == 200
        })
        .collect();
    let mut cache: std::collections::HashMap<Arc<[u8]>, Option<Vec<u8>>> =
        std::collections::HashMap::new();
    let mut mismatched = 0;
    let mut compared = 0;
    for (s, _) in samples.iter().zip(&proven).filter(|(_, p)| **p) {
        let want = cache
            .entry(Arc::clone(&s.body.bytes))
            .or_insert_with(|| offline_answer(handle, &s.body.bytes));
        compared += 1;
        if want.as_deref() != Some(s.record.body.as_slice()) {
            mismatched += 1;
        }
    }
    out.gate(mismatched == 0, || {
        format!("{mismatched} of {compared} boot-generation replies differ from the offline answer")
    });
    compared
}

/// Send one request and wait for its reply (outside any measured phase).
fn roundtrip(
    stream: &mut TcpStream,
    head_bytes: &[u8],
    body_bytes: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    let send = |_: usize, w: &mut TcpStream| -> std::io::Result<()> {
        w.write_all(head_bytes)?;
        w.write_all(body_bytes)
    };
    let rec = drive(stream, &[0.0], Instant::now(), 30.0, send, |_, _, _| {})
        .map_err(|e| format!("roundtrip: {e}"))?;
    let r = rec.into_iter().next().ok_or("no record")?;
    r.done.ok_or("no reply")?;
    Ok((r.status, r.body))
}

struct Run {
    phases: Vec<(PhaseStats, Vec<Sample>)>,
    boot: u64,
}

fn run_ladder(s: &mut Setup, args: &Args, tracer: &Tracer, rungs: &[f64]) -> Result<Run, String> {
    let boot = s.boot;
    let per_phase_s = args.seconds / LADDER.len() as f64;
    // Warm-up: fill the hot entries and fault in the code paths.
    let mut next = 0;
    let warm = phase(s, args.seed, next, 200, LADDER[LIGHT], &Tracer::new(false))?;
    next += warm.len();
    let mut phases = Vec::new();
    for (i, &rate) in rungs.iter().enumerate() {
        let n = ((rate * per_phase_s) as usize).max(2 * min_samples(99.0));
        let samples = phase(s, args.seed, next, n, rate, tracer)?;
        next += n;
        let st = summarize(rate, &samples);
        let lat: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.record.latency_ms())
            .collect();
        eprintln!(
            "  {rate:>6} rps: n={} failed={} p50={:.2} p99={:.2} quartiles={:.2?} ms; lag_p99={:.2} ms backlog_max={} grew={}",
            st.n, st.failed, st.p50, st.p99, quartiles(&lat).unwrap_or_default(), st.lag_p99, st.backlog_max, st.backlog_grew
        );
        let stop = i >= HEAVY && !st.meets_slo();
        phases.push((st, samples));
        if stop {
            break;
        }
    }
    Ok(Run { phases, boot })
}

fn class_p50(st: &PhaseStats, c: Class) -> f64 {
    st.class_p50
        .iter()
        .find(|(k, _)| *k == c)
        .map_or(0.0, |(_, v)| *v)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (mut s, mut setup_times) = setup_runs(SETUP_RUNS, || setup(args.seed))?;
    let nnz = &s.cold_nnz;
    eprintln!(
        "serve-mixed: {} cold uploads, nnz median {} (min {}, max {}), {} MiB of upload text",
        nnz.len(),
        median(&nnz.iter().map(|&n| n as f64).collect::<Vec<_>>()).unwrap_or(0.0),
        nnz.iter().min().unwrap_or(&0),
        nnz.iter().max().unwrap_or(&0),
        s.cold.iter().map(|b| b.len()).sum::<usize>() >> 20
    );
    let mut out = Outcome::default();
    let (advisor, _) = FormatAdvisor::from_artifact_bytes(&s.advisor_bytes)
        .map_err(|e| format!("artifact: {e}"))?;
    let handle = AdvisorHandle::from_advisor(advisor);

    if !args.trace {
        let run = run_ladder(&mut s, args, &Tracer::new(false), &LADDER)?;
        s.server.shutdown();
        // Read before the closing set-ups, which build a second server.
        let peak_mb = peak_rss_mb();
        setup_times.extend(setup_runs(SETUP_RUNS, || setup(args.seed))?.1);
        let all: Vec<&Sample> = run.phases.iter().flat_map(|(_, v)| v).collect();
        let mut compared = 0;
        for (_, v) in &run.phases {
            compared += check(&mut out, v, &handle, run.boot);
        }
        out.attempted = all.len() as u64;
        out.failed = all.iter().filter(|s| failed(s)).count() as u64;
        let light = &run.phases[LIGHT].0;
        let heavy = &run.phases.get(HEAVY).ok_or("heavy rung did not run")?.0;
        let max_rps = run
            .phases
            .iter()
            .take_while(|(st, _)| st.meets_slo())
            .map(|(st, _)| st.rate)
            .last()
            .unwrap_or(0.0);
        eprintln!(
            "  {compared} boot-generation replies compared to the offline answer; highest rate within the limit {max_rps} rps; light p50 {:.2} p99 {:.2} ms (cold p50 {:.2}, hot p50 {:.2}); heavy p50 {:.2} ms",
            light.p50,
            light.p99,
            class_p50(light, Class::Cold),
            class_p50(light, Class::Hot),
            heavy.p50
        );
        let m = &mut out.metrics;
        m.put("setup_s", median(&setup_times).unwrap_or(0.0), "s");
        m.put(
            "ok_pct",
            100.0 * (1.0 - out.failed as f64 / out.attempted.max(1) as f64),
            "%",
        );
        m.put("ops_per_s", max_rps, "1/s");
        m.put("peak_rss_mb", peak_mb, "MiB");
        return Ok(out);
    }

    // Traced run: an untraced light phase, then the light and heavy rungs
    // with the program's tracer on (its counters feed the per-layer cache,
    // batch and online numbers), then a replay of the finer calls.
    let plain = run_ladder(&mut s, args, &Tracer::new(false), &LADDER[..1])?;
    spmv_observe::reset();
    spmv_observe::enable();
    let tracer = Tracer::new(true);
    let traced = run_ladder(&mut s, args, &tracer, &LADDER[..=HEAVY])?;
    eprintln!("  program counters: {}", spmv_observe::counters_section());
    let counter = spmv_observe::counter_value;
    let (hits, misses) = (counter("serve.cache.hits"), counter("serve.cache.misses"));
    let counters = [
        (
            "serve.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ),
        (
            "serve.cache_evictions",
            counter("serve.cache.evictions") as f64,
            "count",
        ),
        (
            "serve.batch_jobs",
            counter("serve.batch.jobs") as f64,
            "count",
        ),
        (
            "serve.shed_503",
            counter("serve.rejected.overload") as f64,
            "count",
        ),
        (
            "serve.retrains",
            counter("online.retrain.built") as f64,
            "count",
        ),
        (
            "serve.swaps",
            counter("online.swap.promotions") as f64,
            "count",
        ),
        (
            "serve.rollbacks",
            counter("online.swap.rollbacks") as f64,
            "count",
        ),
    ];
    spmv_observe::disable();
    s.server.shutdown();
    for (_, v) in plain.phases.iter().chain(&traced.phases) {
        check(&mut out, v, &handle, traced.boot);
    }
    let all: Vec<&Sample> = traced.phases.iter().flat_map(|(_, v)| v).collect();
    out.attempted = all.len() as u64;
    out.failed = all.iter().filter(|s| failed(s)).count() as u64;
    let mut m = Metrics::default();
    for (name, v, unit) in counters {
        m.put(name, v, unit);
    }
    let light = &traced.phases[LIGHT].0;
    let heavy = &traced.phases.get(HEAVY).ok_or("heavy rung did not run")?.0;
    for (rate_name, st) in [("light", light), ("heavy", heavy)] {
        for c in Class::ALL {
            let p50 = class_p50(st, c);
            let p90 = st
                .class_p90
                .iter()
                .find(|(k, _)| *k == c)
                .map_or(0.0, |(_, v)| *v);
            m.put(
                format!("serve.latency_ms.{}.{rate_name}.p50", c.name()),
                p50,
                "ms",
            );
            m.put(
                format!("serve.latency_ms.{}.{rate_name}.p90", c.name()),
                p90,
                "ms",
            );
        }
    }
    for c in Class::ALL {
        m.put(
            format!("serve.queue_ms.heavy.{}", c.name()),
            class_p50(heavy, c) - class_p50(light, c),
            "ms",
        );
    }
    m.put("serve.p50_ms.light", light.p50, "ms");
    m.put("serve.p99_ms.light", light.p99, "ms");
    m.put("serve.p50_ms.heavy", heavy.p50, "ms");
    m.put("serve.p99_ms.heavy", heavy.p99, "ms");
    m.put(
        "loadgen.lag_ms",
        traced
            .phases
            .iter()
            .map(|(st, _)| st.lag_p99)
            .fold(0.0, f64::max),
        "ms",
    );
    m.put(
        "loadgen.backlog_max",
        traced
            .phases
            .iter()
            .map(|(st, _)| st.backlog_max)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    let plain_p50 = plain.phases[0].0.p50;
    m.put(
        "observe.overhead_pct",
        100.0 * (light.p50 - plain_p50) / plain_p50,
        "%",
    );
    replay(&mut out, &mut m, &s.cold, &handle, &tracer);
    out.metrics = m;
    tracer
        .write(&trace_path(args))
        .map_err(|e| format!("writing trace: {e}"))?;
    Ok(out)
}

/// Replay one cycle of bodies through the finer public calls a recommend
/// bundles: HTTP parse, MatrixMarket parse, COO→CSR, feature extraction,
/// model, response render. Gates that the replay's answer equals the
/// bundled `recommend_csr`.
fn replay(
    out: &mut Outcome,
    m: &mut Metrics,
    cold: &[Arc<[u8]>],
    handle: &AdvisorHandle,
    tracer: &Tracer,
) {
    use spmv_serve::http::{parse_request, render_response_into, Limits, Parse};
    let limits = Limits {
        max_header_bytes: 16 * 1024,
        max_body_bytes: 8 * 1024 * 1024,
    };
    let mut mm_bytes = 0usize;
    let mut mismatched = 0;
    let mut rendered = Vec::new();
    for (i, body) in cold.iter().enumerate() {
        let id = i as u64;
        let mut wire = head("POST", "/v1/recommend", body.len());
        wire.extend_from_slice(body);
        let parsed = tracer.time("serve.http_parse", None, id, |_| {
            parse_request(&wire, &limits)
        });
        let Ok(Parse::Done(request, _)) = parsed else {
            mismatched += 1;
            continue;
        };
        let coo = tracer.time("matrix.mm_parse", None, id, |_| {
            spmv_matrix::mm::read_matrix_market::<f64, _>(request.body.as_slice())
        });
        let Ok(coo) = coo else {
            mismatched += 1;
            continue;
        };
        mm_bytes += body.len();
        let csr = tracer.time("matrix.coo_to_csr", None, id, |_| coo.to_csr());
        let fv = tracer.time("features.extract", None, id, |_| extract(&csr));
        let response = tracer.time("ml.predict", None, id, |_| handle.recommend_features(&fv));
        let json = response.to_json();
        rendered.clear();
        tracer.time("serve.render", None, id, |_| {
            render_response_into(
                &mut rendered,
                200,
                "OK",
                "application/json",
                &[],
                json.as_bytes(),
                true,
            )
        });
        if response != handle.recommend_csr(&csr) {
            mismatched += 1;
        }
    }
    out.gate(mismatched == 0, || {
        format!("{mismatched} replayed uploads disagree with recommend_csr")
    });
    let spans = tracer.spans();
    let by_name = self_ms_by_name(&spans);
    let total = |n: &str| by_name.get(n).copied().unwrap_or(0.0);
    let med_us = |n: &str| 1e3 * median(&crate::trace::durations_ms(&spans, n)).unwrap_or(0.0);
    m.put("matrix.mm_parse_ms", total("matrix.mm_parse"), "ms");
    m.put(
        "matrix.mm_mb_per_s",
        mm_bytes as f64 / 1e6 / (total("matrix.mm_parse") / 1e3).max(1e-9),
        "MB/s",
    );
    m.put("matrix.coo_to_csr_ms", total("matrix.coo_to_csr"), "ms");
    m.put("features.extract_ms", total("features.extract"), "ms");
    m.put("ml.predict_us", med_us("ml.predict"), "us");
    m.put("serve.http_parse_us", med_us("serve.http_parse"), "us");
    m.put("serve.render_us", med_us("serve.render"), "us");
}
