//! The labeling workload `label-small`: simulator labeling of the Small
//! suite (456 matrices) via `LabeledCorpus::collect` at 2 threads.
//! `corpus`, `matrix`, `features` and `gpusim` do the work; `ml` does none.
//!
//! Its traced run also measures the `exec` layer: `cpu-native` labeling
//! of the Tiny suite (56 matrices) at 1 thread, the one place the exec
//! SIMD kernels run, gated against scalar CSR and replayed with one span
//! per public call. It is not a workload of its own: its throughput is
//! too unsteady on a shared host to carry a regression bound.
//!
//! The seed keeps each suite's matrix kinds and sizes (sampled at
//! [`DEV_SEED`]) and reseeds every generator, so other seeds give new
//! matrices of the same volume of work.

use std::path::Path;
use std::time::{Duration, Instant};

use spmv_core::{LabelEnvironment, LabeledCorpus, MatrixRecord};
use spmv_corpus::{CorpusScale, SyntheticSuite};
use spmv_exec::{ExecScratch, Harness, MeasureConfig, PreparedMatrix, SimdKernels, SimdLevel};
use spmv_features::{extract_with_stats, FeatureVector};
use spmv_gpusim::{cell_seed, GpuArch, KernelProfile, ProfileCache, Simulator};
use spmv_matrix::{
    CsrMatrix, Format, FormatStructure, Precision, RowStats, Scalar, StructureScratch,
};

use crate::pins::{DEV_SEED, SMALL_LABELS};
use crate::trace::{self_ms_by_name, Tracer};
use crate::{mean, peak_rss_mb, setup_batches, stats, timed_passes, trace_path, Args, Outcome};

/// Cells per matrix: 6 formats × 2 architecture rows × 2 precisions.
const CELLS: u64 = 24;

/// The suite at `seed`: [`DEV_SEED`] is the committed suite; any other
/// seed reseeds each generator of it.
pub fn suite(scale: CorpusScale, seed: u64) -> SyntheticSuite {
    let mut suite = SyntheticSuite::sample(scale, DEV_SEED);
    if seed != DEV_SEED {
        suite.seed = seed;
        for (i, spec) in suite.specs.iter_mut().enumerate() {
            spec.seed = splitmix(seed ^ splitmix(i as u64 + 1));
        }
    }
    suite
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Cell accounting for one corpus: (attempted, failed, refused). A
/// conversion-scoped failure (the deterministic ELL padding cap) refuses
/// that format's cells; every other missing time is a failed cell.
fn cell_counts(corpus: &LabeledCorpus) -> (u64, u64, u64) {
    let (mut attempted, mut failed, mut refused) = (0, 0, 0);
    for r in &corpus.records {
        let refused_formats = r
            .failures
            .iter()
            .filter(|f| f.env.is_none() && f.format.is_some())
            .count() as u64;
        let measured = r
            .times
            .iter()
            .flatten()
            .flatten()
            .filter(|t| t.is_some())
            .count() as u64;
        refused += refused_formats * 4;
        attempted += CELLS - refused_formats * 4;
        failed += (CELLS - refused_formats * 4).saturating_sub(measured);
    }
    (attempted, failed, refused)
}

/// The values a record is judged by: shape, features and times.
fn same_values(a: &MatrixRecord, b: &MatrixRecord) -> bool {
    a.name == b.name && a.shape == b.shape && a.features == b.features && a.times == b.times
}

fn records_json(records: &[MatrixRecord]) -> Result<String, String> {
    serde_json::to_string(records).map_err(|e| format!("serializing records: {e}"))
}

/// Gate for simulator labels: at [`DEV_SEED`] every record's values equal
/// the committed cache's; at any other seed a 1-thread collection of a
/// quarter of the suite (the matrices `i ≡ seed mod 4`, so seeds rotate
/// through the whole suite) must serialize byte-identically to the
/// 2-thread records.
fn check_small(
    out: &mut Outcome,
    args: &Args,
    suite: &SyntheticSuite,
    got: &LabeledCorpus,
) -> Result<(), String> {
    if args.seed == DEV_SEED {
        let committed = LabeledCorpus::load(Path::new(SMALL_LABELS))
            .map_err(|e| format!("{SMALL_LABELS}: {e}"))?;
        let mismatched = committed
            .records
            .iter()
            .zip(&got.records)
            .filter(|(a, b)| !same_values(a, b))
            .count();
        out.gate(
            committed.records.len() == got.records.len() && mismatched == 0,
            || {
                format!(
                    "{mismatched} of {} records differ from {SMALL_LABELS}",
                    got.records.len()
                )
            },
        );
    } else {
        let pick = |i: &usize| *i as u64 % 4 == args.seed % 4;
        let quarter = SyntheticSuite {
            scale: suite.scale,
            seed: suite.seed,
            specs: (0..suite.len())
                .filter(pick)
                .map(|i| suite.specs[i].clone())
                .collect(),
            bucket_of: (0..suite.len())
                .filter(pick)
                .map(|i| suite.bucket_of[i])
                .collect(),
        };
        let one = LabeledCorpus::collect(&quarter, &Simulator::default(), 1);
        let two: Vec<MatrixRecord> = (0..suite.len())
            .filter(pick)
            .map(|i| got.records[i].clone())
            .collect();
        out.gate(records_json(&one.records)? == records_json(&two)?, || {
            "1-thread and 2-thread records differ".to_string()
        });
    }
    Ok(())
}

/// Record the cell counts of `passes` labelings of `corpus`; returns the
/// share of attempted cells that got a time, in percent.
fn count_cells(out: &mut Outcome, corpus: &LabeledCorpus, passes: usize) -> f64 {
    let (attempted, failed, refused) = cell_counts(corpus);
    out.attempted = attempted * passes as u64;
    out.failed = failed * passes as u64;
    eprintln!("cells per pass: {attempted} attempted, {failed} failed, {refused} refused by the ELL padding cap");
    100.0 * (attempted - failed) as f64 / attempted.max(1) as f64
}

/// Label once untraced and once with the program's tracer on; returns
/// (untraced s, traced s, traced corpus).
fn overhead_passes(mut collect: impl FnMut() -> LabeledCorpus) -> (f64, f64, LabeledCorpus) {
    let t = Instant::now();
    drop(collect());
    let plain_s = t.elapsed().as_secs_f64();
    spmv_observe::enable();
    let t = Instant::now();
    let corpus = collect();
    let traced_s = t.elapsed().as_secs_f64();
    spmv_observe::disable();
    (plain_s, traced_s, corpus)
}

pub fn run_small(args: &Args) -> Result<Outcome, String> {
    let make = || Ok::<_, String>(suite(CorpusScale::Small, args.seed));
    let (suite, mut setup_times) = setup_batches(make)?;
    let sim = Simulator::default();
    let mut out = Outcome::default();
    if !args.trace {
        // The first collection in a process also grows the heap to its
        // ~0.5 GiB peak and runs measurably slower; it is left untimed.
        // Its peak is the memory one labeling needs. It is read before the
        // timed passes, which can fragment the heap further and whose
        // number varies with the machine's speed.
        drop(LabeledCorpus::collect(&suite, &sim, 2));
        let peak_mb = peak_rss_mb();
        let mut last = None;
        let walls = timed_passes(Duration::from_secs_f64(args.seconds), |_| {
            last = Some(LabeledCorpus::collect(&suite, &sim, 2));
            Ok(())
        })?;
        setup_times.extend(setup_batches(make)?.1);
        let corpus = last.ok_or("no pass ran")?;
        eprintln!(
            "label-small: {} matrices, pass walls {walls:?} s",
            corpus.records.len()
        );
        check_small(&mut out, args, &suite, &corpus)?;
        let ok_pct = count_cells(&mut out, &corpus, walls.len());
        out.metrics.put("ok_pct", ok_pct, "%");
        let m = &mut out.metrics;
        m.put("setup_s", mean(&setup_times), "s");
        m.put(
            "ops_per_s",
            corpus.records.len() as f64 / stats::median(&walls).unwrap_or(f64::INFINITY),
            "1/s",
        );
        m.put("peak_rss_mb", peak_mb, "MiB");
        return Ok(out);
    }
    let (plain_s, traced_s, corpus) = overhead_passes(|| LabeledCorpus::collect(&suite, &sim, 2));
    if args.seed == DEV_SEED {
        check_small(&mut out, args, &suite, &corpus)?;
    }
    let tracer = Tracer::new(true);
    let (hits, misses) = replay_small(&mut out, &suite, &corpus, &sim, &tracer);
    count_cells(&mut out, &corpus, 1);
    let spans = tracer.spans();
    let by_name = self_ms_by_name(&spans);
    // Busy time per matrix is its replayed record span; the collect pass
    // had `wall × 2 threads` to spend on it.
    let busy_s: f64 = crate::trace::durations_ms(&spans, "core.label_record")
        .iter()
        .sum::<f64>()
        / 1e3;
    let idle_pct = 100.0 * (1.0 - busy_s / (plain_s * 2.0));
    let m = &mut out.metrics;
    for layer in [
        "corpus.generate",
        "matrix.rowstats",
        "matrix.structure",
        "features.extract",
        "gpusim.profile",
        "gpusim.measure",
        "core.label_record",
    ] {
        m.put(
            format!("{layer}_ms"),
            by_name.get(layer).copied().unwrap_or(0.0),
            "ms",
        );
    }
    m.put(
        "gpusim.profile_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    m.put("core.collect_idle_pct", idle_pct, "%");
    m.put(
        "observe.overhead_pct",
        100.0 * (traced_s - plain_s) / plain_s,
        "%",
    );
    trace_exec(&mut out, args.seed, &tracer);
    tracer
        .write(&trace_path(args))
        .map_err(|e| format!("writing trace: {e}"))?;
    Ok(out)
}

/// Replay every matrix through the finer public calls that
/// `LabeledCorpus::collect` bundles, one span per call, and gate that the
/// replay reproduces each collected record. Returns profile-cache
/// (hits, misses).
fn replay_small(
    out: &mut Outcome,
    suite: &SyntheticSuite,
    corpus: &LabeledCorpus,
    sim: &Simulator,
    tracer: &Tracer,
) -> (u64, u64) {
    let mut scratch = StructureScratch::new();
    let (mut hits, mut misses) = (0, 0);
    let mut mismatched = 0;
    for (i, spec) in suite.specs.iter().enumerate() {
        let id = i as u64;
        let record = tracer.time("core.label_record", None, id, |p| {
            let csr: CsrMatrix<f64> = tracer.time("corpus.generate", p, id, |_| spec.generate());
            let stats = tracer.time("matrix.rowstats", p, id, |_| RowStats::of(csr.row_ptr()));
            let features = tracer.time("features.extract", p, id, |_| {
                let f = extract_with_stats(&csr, &stats);
                if f.is_finite() {
                    f
                } else {
                    FeatureVector::zeros()
                }
            });
            let mut times = [[[None; 6]; 2]; 2];
            let mut cache = ProfileCache::new();
            for fmt in Format::ALL {
                let built = tracer.time("matrix.structure", p, id, |_| {
                    FormatStructure::build(&csr, fmt, &stats, &mut scratch)
                });
                let Ok(structure) = built else { continue };
                let profile = tracer.time("gpusim.profile", p, id, |_| {
                    KernelProfile::of_structure_cached(&structure, &mut cache)
                });
                for (ai, arch) in GpuArch::PAPER_MACHINES.iter().enumerate() {
                    for prec in Precision::ALL {
                        let seed = cell_seed(spec.seed, fmt, arch, prec);
                        let t = tracer.time("gpusim.measure", p, id, |_| {
                            sim.measure_profile(&profile, arch, prec, seed).time_s
                        });
                        times[ai][prec.idx()][fmt.class_id()] = Some(t);
                    }
                }
            }
            hits += cache.hits();
            misses += cache.misses();
            ((csr.n_rows(), csr.n_cols(), csr.nnz()), features, times)
        });
        let rec = &corpus.records[i];
        if (rec.shape, &rec.features, rec.times) != (record.0, &record.1, record.2) {
            mismatched += 1;
        }
    }
    out.gate(mismatched == 0, || {
        format!("{mismatched} replayed records differ from the collected ones")
    });
    (hits, misses)
}

/// Deterministic sign-alternating `x` in [-1, 1).
fn dense_x<T: Scalar>(n: usize) -> Vec<T> {
    (0..n)
        .map(|j| {
            let h = (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            T::from_f64((h % 2000) as f64 / 1000.0 - 1.0)
        })
        .collect()
}

/// Largest error of `prepared` against scalar CSR, as a multiple of the
/// exec differential bound `tol · (Σ|a·x| + 1)` per row (≤ 1 passes).
fn y_error_ratio<T: SimdKernels>(
    csr: &CsrMatrix<T>,
    prepared: &PreparedMatrix<'_, T>,
    level: SimdLevel,
    tol: f64,
) -> f64 {
    let x = dense_x::<T>(csr.n_cols());
    let mut want = vec![T::ZERO; csr.n_rows()];
    csr.spmv(&x, &mut want);
    let mut got = vec![T::from_f64(f64::NAN); csr.n_rows()];
    spmv_exec::spmv(prepared, &x, &mut got, level);
    (0..csr.n_rows())
        .map(|r| {
            let (cols, vals) = csr.row(r);
            let abs_dot: f64 = cols
                .iter()
                .zip(vals)
                .map(|(&c, &v)| (v.to_f64() * x[c as usize].to_f64()).abs())
                .sum();
            let err = (got[r].to_f64() - want[r].to_f64()).abs();
            if err.is_nan() {
                f64::INFINITY
            } else {
                err / (tol * (abs_dot + 1.0))
            }
        })
        .fold(0.0, f64::max)
}

/// Computed bytes one product moves: every stored array once (values,
/// indices, pointers, padding included) plus one `x` read per stored
/// entry and one `y` write per row. Computed from the layout, not
/// measured.
fn computed_bytes<T>(p: &PreparedMatrix<'_, T>, n_rows: usize) -> f64 {
    let v = std::mem::size_of::<T>();
    let (stored, entries) = match p {
        PreparedMatrix::Coo(m) => (m.vals.len() * (v + 8), m.vals.len()),
        PreparedMatrix::Csr(m) => (m.vals.len() * (v + 4) + m.row_ptr.len() * 4, m.vals.len()),
        PreparedMatrix::CsrBlocked(m) => {
            (m.vals.len() * (v + 8) + m.strip_ptr.len() * 4, m.vals.len())
        }
        PreparedMatrix::Ell(m) => (m.val_plane.len() * (v + 4), m.val_plane.len()),
        PreparedMatrix::Hyb(m) => (
            m.head.val_plane.len() * (v + 4) + m.tail.vals.len() * (v + 8),
            m.head.val_plane.len() + m.tail.vals.len(),
        ),
        PreparedMatrix::MergeCsr(m) => (
            m.csr.vals.len() * (v + 4) + m.csr.row_ptr.len() * 4 + m.segs.len() * 16,
            m.csr.vals.len(),
        ),
        PreparedMatrix::Csr5(m) => (
            (m.vals_t.len() + m.tail_vals.len()) * (v + 4)
                + (m.tile_rows.len() + m.row_ptr.len()) * 4,
            m.vals_t.len() + m.tail_vals.len(),
        ),
    };
    (stored + entries * v + n_rows * v) as f64
}

/// Gate for native labels: every prepared format's `y`, at both SIMD
/// tiers and both precisions, matches scalar CSR within the exec
/// differential tolerance, and preparation fails exactly where the
/// collected record shows a refusal.
fn check_native(out: &mut Outcome, suite: &SyntheticSuite, corpus: &LabeledCorpus) {
    let mut s64 = ExecScratch::<f64>::new();
    let mut s32 = ExecScratch::<f32>::new();
    let mut bad: Vec<String> = Vec::new();
    for (spec, rec) in suite.specs.iter().zip(&corpus.records) {
        let csr: CsrMatrix<f64> = spec.generate();
        let stats = RowStats::of(csr.row_ptr());
        let csr32 = CsrMatrix::from_parts(
            csr.n_rows(),
            csr.n_cols(),
            csr.row_ptr().to_vec(),
            csr.col_idx().to_vec(),
            csr.values().iter().map(|&v| v as f32).collect(),
        );
        let Ok(csr32) = csr32 else {
            bad.push(format!("{}: f32 copy failed", spec.name));
            continue;
        };
        for fmt in Format::ALL {
            let refused = rec
                .failures
                .iter()
                .any(|f| f.format == Some(fmt) && f.env.is_none());
            let timed = rec
                .times
                .iter()
                .flatten()
                .all(|row| row[fmt.class_id()].is_some_and(|t| t > 0.0));
            let mut worst: f64 = 0.0;
            let mut prepared_ok = true;
            for level in [SimdLevel::Scalar, SimdLevel::detect()] {
                match PreparedMatrix::build(&csr, fmt, &stats, &mut s64) {
                    Ok(p) => worst = worst.max(y_error_ratio(&csr, &p, level, 1e-11)),
                    Err(_) => prepared_ok = false,
                }
                if let Ok(p) = PreparedMatrix::build(&csr32, fmt, &stats, &mut s32) {
                    worst = worst.max(y_error_ratio(&csr32, &p, level, 1e-4));
                }
            }
            if prepared_ok == refused || (prepared_ok && !timed) || worst > 1.0 {
                bad.push(format!(
                    "{}/{fmt}: prepared {prepared_ok}, refused {refused}, timed {timed}, error {worst:.2} x bound",
                    spec.name
                ));
            }
        }
    }
    for b in bad.iter().take(5) {
        eprintln!("native check: {b}");
    }
    out.gate(bad.is_empty(), || {
        format!("{} native (matrix, format) checks failed", bad.len())
    });
}

/// The exec layer: label the Tiny suite at `seed` with `cpu-native` at 1
/// thread, gate every prepared format's `y` (see [`check_native`]), then
/// replay the kernels with spans on `tracer` and report the `exec.*`
/// metrics.
fn trace_exec(out: &mut Outcome, seed: u64, tracer: &Tracer) {
    let suite = suite(CorpusScale::Tiny, seed);
    let corpus = LabeledCorpus::collect_native(&suite, LabelEnvironment::CpuNative, 1);
    check_native(out, &suite, &corpus);
    let per_format = replay_native(&suite, tracer);
    let by_name = self_ms_by_name(&tracer.spans());
    let m = &mut out.metrics;
    for layer in ["exec.prepare", "exec.kernel"] {
        m.put(
            format!("{layer}_ms"),
            by_name.get(layer).copied().unwrap_or(0.0),
            "ms",
        );
    }
    for (fmt, (gflops, flop_per_byte)) in Format::ALL.iter().zip(per_format) {
        m.put(format!("exec.gflops.{}", fmt.label()), gflops, "GFLOP/s");
        m.put(
            format!("exec.flop_per_byte.{}", fmt.label()),
            flop_per_byte,
            "flop/B",
        );
    }
}

/// Replay the double-precision SIMD-tier cells with one span per public
/// call. Returns, per format in `Format::ALL` order, (median GFLOP/s over
/// matrices, flops per computed byte over the suite).
fn replay_native(suite: &SyntheticSuite, tracer: &Tracer) -> Vec<(f64, f64)> {
    let mut scratch = ExecScratch::<f64>::new();
    let harness = Harness::new(MeasureConfig::labeling(SimdLevel::detect()));
    let mut gflops: Vec<Vec<f64>> = vec![Vec::new(); Format::ALL.len()];
    let mut flops_bytes = vec![(0.0, 0.0); Format::ALL.len()];
    for (i, spec) in suite.specs.iter().enumerate() {
        let id = i as u64;
        let csr: CsrMatrix<f64> = spec.generate();
        let stats = RowStats::of(csr.row_ptr());
        let x = dense_x::<f64>(csr.n_cols());
        let mut y = vec![0.0; csr.n_rows()];
        for (k, fmt) in Format::ALL.into_iter().enumerate() {
            let built = tracer.time("exec.prepare", None, id, |_| {
                PreparedMatrix::build(&csr, fmt, &stats, &mut scratch)
            });
            let Ok(p) = built else { continue };
            let meas = tracer.time("exec.kernel", None, id, |_| harness.measure(&p, &x, &mut y));
            gflops[k].push(meas.gflops);
            flops_bytes[k].0 += 2.0 * p.nnz() as f64;
            flops_bytes[k].1 += computed_bytes(&p, csr.n_rows());
        }
    }
    gflops
        .iter()
        .zip(flops_bytes)
        .map(|(g, (f, b))| {
            (
                stats::median(g).unwrap_or(0.0),
                if b > 0.0 { f / b } else { 0.0 },
            )
        })
        .collect()
}
