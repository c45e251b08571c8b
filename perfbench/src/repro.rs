//! `repro-tiny`: every paper exhibit of the repro harness on the Tiny
//! corpus at 2 threads, then the deployable advisor fitted on a 3/4 split
//! and scored on the held-out quarter.
//!
//! Inputs are the committed Tiny labels and the harness's fixed split
//! seed, so the seed argument does not change them: the exhibit digests
//! are pinned for every seed. The `ml` layer does most of the work here;
//! `gpusim` and `exec` do none.

use std::path::Path;
use std::time::Instant;

use spmv_core::experiments::{
    classification_tables, fig2, fig3, fig6, fig7, importance_figure, sec5a, slowdown_table,
    table1, table14, ExperimentConfig, ExperimentResult,
};
use spmv_core::{
    ClassificationTask, Env, FormatAdvisor, LabeledCorpus, ModelKind, RegressionTask, SearchBudget,
};
use spmv_features::FeatureSet;
use spmv_matrix::{Format, Precision};
use spmv_ml::{
    Classifier, DecisionTreeClassifier, FeatureMatrix, GbtClassifier, GbtParams, MlpClassifier,
    MlpEnsembleRegressor, MlpParams, Regressor, SvmClassifier, SvmParams, SvrParams, SvrRegressor,
    TreeParams,
};

use crate::pins::{digest, EXHIBIT_DIGESTS, TINY_LABELS};
use crate::trace::{self_ms_by_name, Tracer};
use crate::{mean, peak_rss_mb, setup_batches, timed_passes, trace_path, Args, Outcome};

/// Threads the harness runs at.
const THREADS: usize = 2;
/// Split seed of the advisor's 3/4 : 1/4 split.
const ADVISOR_SPLIT_SEED: u64 = 42;
/// The advisor's deployment environment: P100, double precision.
const ADVISOR_ENV: Env = Env::ALL[3];

type Exhibit = fn(&LabeledCorpus, &ExperimentConfig) -> Vec<ExperimentResult>;

/// The harness's experiment calls, in its order. One call may render
/// several exhibits (tables 4-10 come from one sweep).
const EXHIBITS: &[(&str, Exhibit)] = &[
    ("table1", |c, _| vec![table1(c)]),
    ("fig2", |_, _| vec![fig2()]),
    ("fig3", |_, _| vec![fig3()]),
    ("sec5a", |c, _| vec![sec5a(c)]),
    ("table4_10", |c, cfg| classification_tables(c, cfg)),
    ("fig4", |c, cfg| {
        vec![importance_figure("fig4", c, Precision::Single, cfg)]
    }),
    ("fig5", |c, cfg| {
        vec![importance_figure("fig5", c, Precision::Double, cfg)]
    }),
    ("table11", |c, cfg| {
        vec![slowdown_table("table11", ModelKind::Svm, c, cfg)]
    }),
    ("table12", |c, cfg| {
        vec![slowdown_table("table12", ModelKind::MlpEnsemble, c, cfg)]
    }),
    ("table13", |c, cfg| {
        vec![slowdown_table("table13", ModelKind::Xgboost, c, cfg)]
    }),
    ("fig6", |c, cfg| vec![fig6(c, cfg)]),
    ("fig7", |c, cfg| vec![fig7(c, cfg)]),
    ("table14", |c, cfg| vec![table14(c, cfg)]),
];

/// Span ids of the harness calls, plus the advisor fit.
pub const EXPERIMENT_IDS: [&str; 14] = [
    "table1",
    "fig2",
    "fig3",
    "sec5a",
    "table4_10",
    "fig4",
    "fig5",
    "table11",
    "table12",
    "table13",
    "fig6",
    "fig7",
    "table14",
    "advisor_fit",
];

/// Held-out quality of the advisor.
#[derive(Debug, Clone, PartialEq)]
struct AdvisorScore {
    accuracy_pct: f64,
    oracle_pct: f64,
    time_rme_pct: f64,
    scored: usize,
}

struct Pass {
    exhibits: Vec<ExperimentResult>,
    score: AdvisorScore,
}

fn split(corpus: &LabeledCorpus) -> (LabeledCorpus, Vec<usize>) {
    let s = spmv_ml::train_test_split(corpus.records.len(), 0.25, ADVISOR_SPLIT_SEED);
    let train = LabeledCorpus {
        records: s.train.iter().map(|&i| corpus.records[i].clone()).collect(),
        ..corpus.clone()
    };
    (train, s.test)
}

fn fit_advisor(corpus: &LabeledCorpus) -> FormatAdvisor {
    let (train, _) = split(corpus);
    FormatAdvisor::train(&train, ADVISOR_ENV, SearchBudget::Quick)
}

/// Score on the held-out records whose every format has a time.
fn score_advisor(advisor: &FormatAdvisor, corpus: &LabeledCorpus, tracer: &Tracer) -> AdvisorScore {
    let (_, test) = split(corpus);
    let (mut hits, mut oracle, mut rme, mut rme_n, mut scored) = (0usize, 0.0, 0.0, 0usize, 0usize);
    for &i in &test {
        let rec = &corpus.records[i];
        if !rec.complete_for(&Format::ALL) {
            continue;
        }
        let times = rec.env_times(ADVISOR_ENV);
        let Some(best) = rec.best_format(ADVISOR_ENV, &Format::ALL) else {
            continue;
        };
        let time_of = |f: Format| times[f.class_id()].unwrap_or(f64::INFINITY);
        let pick = tracer
            .time("ml.predict", None, i as u64, |_| {
                advisor.recommend_features(&rec.features)
            })
            .format;
        scored += 1;
        hits += usize::from(pick == best);
        oracle += time_of(best) / time_of(pick);
        for (f, predicted) in advisor.predict_times_features(&rec.features) {
            rme += (predicted - time_of(f)).abs() / time_of(f);
            rme_n += 1;
        }
    }
    AdvisorScore {
        accuracy_pct: 100.0 * hits as f64 / scored.max(1) as f64,
        oracle_pct: 100.0 * oracle / scored.max(1) as f64,
        time_rme_pct: 100.0 * rme / rme_n.max(1) as f64,
        scored,
    }
}

fn pass(corpus: &LabeledCorpus, cfg: &ExperimentConfig, tracer: &Tracer) -> Pass {
    let mut exhibits = Vec::new();
    for (id, call) in EXHIBITS {
        let name = format!("core.experiment.{id}");
        exhibits.extend(tracer.time(&name, None, 0, |_| call(corpus, cfg)));
    }
    let advisor = tracer.time("core.experiment.advisor_fit", None, 0, |_| {
        fit_advisor(corpus)
    });
    let score = score_advisor(&advisor, corpus, tracer);
    Pass { exhibits, score }
}

fn check_exhibits(out: &mut Outcome, exhibits: &[ExperimentResult]) {
    let got: Vec<(String, String)> = exhibits
        .iter()
        .map(|r| (r.id.to_string(), digest(r.body.as_bytes())))
        .collect();
    let want: Vec<(String, String)> = EXHIBIT_DIGESTS
        .iter()
        .map(|(id, d)| (id.to_string(), d.to_string()))
        .collect();
    if got != want {
        for (id, d) in &got {
            eprintln!("    (\"{id}\", \"{d}\"),");
        }
    }
    out.gate(got == want, || {
        format!(
            "exhibit digests differ from the pinned ones ({} rendered, {} pinned)",
            got.len(),
            want.len()
        )
    });
}

/// Fit each model family once on the advisor's environment, as the repro
/// sweeps do, timing the fit alone.
fn fit_families(corpus: &LabeledCorpus, tracer: &Tracer) {
    let formats = Format::ALL.to_vec();
    let ctask =
        ClassificationTask::build(corpus, ADVISOR_ENV, &formats, FeatureSet::Important, true);
    let rtask = RegressionTask::build(corpus, ADVISOR_ENV, &formats, FeatureSet::Important);
    let scaled = |x: &FeatureMatrix| {
        let rows: Vec<Vec<f64>> = (0..x.n_rows())
            .map(|i| {
                x.row(i)
                    .iter()
                    .map(|v| v.signum() * (1.0 + v.abs()).ln())
                    .collect()
            })
            .collect();
        let mut m = FeatureMatrix::from_rows(&rows);
        spmv_ml::StandardScaler::fit_transform(&mut m);
        m
    };
    let (xc, xcs, xrs) = (&ctask.x, scaled(&ctask.x), scaled(&rtask.x));
    let y = &ctask.y;
    let ylog: Vec<f64> = rtask.y.iter().map(|t| t.ln()).collect();
    let k = formats.len();
    let mlp = MlpParams {
        epochs: 80,
        seed: ADVISOR_SPLIT_SEED,
        ..MlpParams::default()
    };
    tracer.time("ml.fit.cart", None, 0, |_| {
        DecisionTreeClassifier::new(TreeParams {
            max_depth: 12,
            min_samples_leaf: 2,
            ..TreeParams::default()
        })
        .fit(xc, y, k)
    });
    tracer.time("ml.fit.gbt", None, 0, |_| {
        GbtClassifier::new(GbtParams {
            n_estimators: 60,
            max_depth: 6,
            learning_rate: 0.1,
            ..GbtParams::default()
        })
        .fit(xc, y, k)
    });
    tracer.time("ml.fit.svm", None, 0, |_| {
        SvmClassifier::new(SvmParams {
            c: 1000.0,
            gamma: 0.1,
            seed: ADVISOR_SPLIT_SEED,
            ..SvmParams::default()
        })
        .fit(&xcs, y, k)
    });
    tracer.time("ml.fit.mlp", None, 0, |_| {
        MlpClassifier::new(mlp.clone()).fit(&xcs, y, k)
    });
    tracer.time("ml.fit.mlp_ensemble", None, 0, |_| {
        MlpEnsembleRegressor::new(mlp.clone(), 5).fit(&xrs, &ylog)
    });
    tracer.time("ml.fit.svr", None, 0, |_| {
        SvrRegressor::new(SvrParams {
            seed: ADVISOR_SPLIT_SEED,
            ..SvrParams::default()
        })
        .fit(&xrs, &ylog)
    });
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let load =
        || LabeledCorpus::load(Path::new(TINY_LABELS)).map_err(|e| format!("{TINY_LABELS}: {e}"));
    let (corpus, mut setup_times) = setup_batches(load)?;
    let mut cfg = ExperimentConfig::tiny();
    cfg.threads = THREADS;
    let mut out = Outcome::default();
    let off = Tracer::new(false);

    if !args.trace {
        let mut last: Option<Pass> = None;
        let mut failed_gate = false;
        let walls = timed_passes(std::time::Duration::from_secs_f64(args.seconds), |_| {
            let p = pass(&corpus, &cfg, &off);
            if let Some(prev) = &last {
                failed_gate |= prev.score != p.score;
            }
            last = Some(p);
            Ok(())
        })?;
        setup_times.extend(setup_batches(load)?.1);
        let p = last.ok_or("no pass ran")?;
        check_exhibits(&mut out, &p.exhibits);
        out.gate(!failed_gate, || {
            "advisor score differs between passes".to_string()
        });
        out.gate(p.score.scored > 0, || {
            "no held-out record was scored".to_string()
        });
        let wall_s = crate::stats::median(&walls).unwrap_or(0.0);
        let ops = p.exhibits.len() + 1;
        eprintln!(
            "repro-tiny: {} pass(es) of {} exhibits + advisor; wall {:?} s; {} held-out records scored (accuracy {:.2}%, oracle {:.2}%, time RME {:.2}%)",
            walls.len(), p.exhibits.len(), walls, p.score.scored,
            p.score.accuracy_pct, p.score.oracle_pct, p.score.time_rme_pct
        );
        out.attempted = (walls.len() * ops) as u64;
        out.failed = 0;
        let m = &mut out.metrics;
        m.put("setup_s", mean(&setup_times), "s");
        m.put("ops_per_s", ops as f64 / wall_s, "1/s");
        m.put("ok_pct", 100.0, "%");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        return Ok(out);
    }

    // Traced run: one untraced pass, then the same pass with spans and the
    // program's own tracer on; their wall-time difference is the overhead.
    let t = Instant::now();
    let plain = pass(&corpus, &cfg, &off);
    let untraced_s = t.elapsed().as_secs_f64();
    let tracer = Tracer::new(true);
    spmv_observe::enable();
    let t = Instant::now();
    let traced = pass(&corpus, &cfg, &tracer);
    let traced_s = t.elapsed().as_secs_f64();
    spmv_observe::disable();
    fit_families(&corpus, &tracer);
    check_exhibits(&mut out, &traced.exhibits);
    out.gate(plain.score == traced.score, || {
        "traced pass changed the advisor score".to_string()
    });
    out.gate(
        plain
            .exhibits
            .iter()
            .zip(&traced.exhibits)
            .all(|(a, b)| a.body == b.body),
        || "traced pass changed an exhibit".to_string(),
    );
    out.attempted = (traced.exhibits.len() + 1) as u64;
    let spans = tracer.spans();
    let by_name = self_ms_by_name(&spans);
    let m = &mut out.metrics;
    for (name, ms) in &by_name {
        if let Some(id) = name.strip_prefix("core.experiment.") {
            m.put(format!("core.experiment_ms.{id}"), *ms, "ms");
        } else if let Some(family) = name.strip_prefix("ml.fit.") {
            m.put(format!("ml.fit_ms.{family}"), *ms, "ms");
        }
    }
    m.put("ml.advisor_accuracy_pct", traced.score.accuracy_pct, "%");
    m.put("ml.advisor_oracle_pct", traced.score.oracle_pct, "%");
    m.put("ml.advisor_time_rme_pct", traced.score.time_rme_pct, "%");
    let predicts = crate::trace::durations_ms(&spans, "ml.predict");
    m.put(
        "ml.predict_us",
        1e3 * crate::stats::median(&predicts).unwrap_or(0.0),
        "us",
    );
    m.put(
        "observe.overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
        "%",
    );
    tracer
        .write(&trace_path(args))
        .map_err(|e| format!("writing trace: {e}"))?;
    Ok(out)
}
