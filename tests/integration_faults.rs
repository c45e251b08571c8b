//! The fault matrix: every injection site crossed with full and partial
//! injection rates, end to end. The contract under test is the issue's
//! acceptance bar — every injected fault surfaces as a typed error, a
//! structured [`LabelFailure`], or a heuristic-fallback [`Recommendation`];
//! nothing panics; and a labeling run with injected per-format failures
//! still yields a corpus the downstream pipeline can train and evaluate on.

use spmv_core::{
    read_matrix_market_file_with, Env, FaultPlan, FaultSite, FormatAdvisor, LabelEnvironment,
    LabelOutcome, LabeledCorpus, Recommendation, RecommendationSource, SearchBudget,
};
use spmv_corpus::{CorpusScale, GenKind, MatrixSpec, SyntheticSuite};
use spmv_gpusim::Simulator;
use spmv_matrix::{mm, CsrMatrix, Format, MatrixError};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("spmv_faults_{name}"));
    std::fs::create_dir_all(&d).expect("mk tmpdir");
    d
}

fn probe_matrix() -> CsrMatrix<f64> {
    MatrixSpec {
        name: "probe".into(),
        kind: GenKind::Stencil2D { gx: 40, gy: 40 },
        seed: 7,
    }
    .generate()
}

/// Write a small valid MatrixMarket file and return its path.
fn valid_mtx(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("valid.mtx");
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 2.0\n",
    )
    .expect("write mtx");
    path
}

#[test]
fn every_site_at_full_rate_yields_a_typed_outcome_not_a_panic() {
    let dir = tmpdir("matrix");
    let mtx = valid_mtx(&dir);
    let suite = SyntheticSuite::sample(CorpusScale::Tiny, 301);
    let sim = Simulator::default();
    let m = probe_matrix();

    // A trained advisor + saved artifact to exercise the model sites.
    let clean = LabeledCorpus::collect(&suite, &sim, 2);
    let advisor = FormatAdvisor::train(&clean, Env::ALL[1], SearchBudget::Quick);
    let artifact = dir.join("advisor.json");
    advisor.save(&artifact).expect("save artifact");

    for site in FaultSite::ALL {
        let plan = FaultPlan::always(site);
        match site {
            FaultSite::MmParse => {
                let err = read_matrix_market_file_with::<f64>(&mtx, &plan)
                    .expect_err("full-rate mm-parse injection must fail");
                assert!(
                    matches!(&err, MatrixError::Parse { msg, .. } if msg.contains("injected fault")),
                    "wrong error: {err}"
                );
                // The same file still parses without the plan.
                assert!(mm::read_matrix_market_file::<f64, _>(&mtx).is_ok());
            }
            FaultSite::Conversion | FaultSite::Measurement | FaultSite::WorkerPanic => {
                let corpus = LabeledCorpus::collect_with(&suite, &sim, 3, &plan);
                assert_eq!(corpus.records.len(), suite.len(), "{site}: corpus aligned");
                for r in &corpus.records {
                    assert!(
                        !r.failures.is_empty(),
                        "{site}: every record must carry a failure"
                    );
                    assert!(matches!(
                        r.outcome(Env::ALL[0], Format::Csr),
                        LabelOutcome::Failed(_)
                    ));
                }
            }
            FaultSite::FeatureExtraction => {
                // In labeling: degraded features, recorded failure.
                let corpus = LabeledCorpus::collect_with(&suite, &sim, 3, &plan);
                for r in &corpus.records {
                    assert!(r.failures.iter().any(|f| f.reason.contains("injected")));
                }
                // In the advisor: heuristic fallback, never a panic.
                let rec: Recommendation = advisor.recommend_with(&m, &plan);
                assert_eq!(rec.source, RecommendationSource::Heuristic);
                assert!(Format::ALL.contains(&rec.format));
            }
            FaultSite::ModelLoad => {
                let err = match FormatAdvisor::load_with(&artifact, &plan) {
                    Err(e) => e,
                    Ok(_) => panic!("full-rate model-load injection must fail"),
                };
                assert!(err.to_string().contains("injected fault"), "{err}");
                // The same artifact still loads without the plan.
                assert!(FormatAdvisor::load(&artifact).is_ok());
            }
        }
    }
    std::fs::remove_file(&artifact).ok();
    std::fs::remove_file(&mtx).ok();
}

#[test]
fn partially_failed_labeling_still_trains_and_evaluates() {
    // Inject a realistic mixed failure load. Rates are per *decision* and
    // a record is only "usable" if all 6 conversions, all 24 measurement
    // cells, and its worker survive, so per-cell rates must stay small for
    // most records to make it through: survival here is roughly
    // 0.98^6 * 0.995^24 * 0.98 ~ 77%.
    let suite = SyntheticSuite::sample(CorpusScale::Tiny, 302);
    let plan = FaultPlan::new(77)
        .inject(FaultSite::Conversion, 0.02)
        .inject(FaultSite::Measurement, 0.005)
        .inject(FaultSite::WorkerPanic, 0.02);
    let corpus = LabeledCorpus::collect_with(&suite, &Simulator::default(), 4, &plan);

    assert_eq!(corpus.records.len(), suite.len());
    let hit = corpus
        .records
        .iter()
        .filter(|r| !r.failures.is_empty())
        .count();
    assert!(hit > 0, "the plan should hit something at these rates");
    let usable = corpus.usable(&Format::ALL);
    assert!(
        usable.len() > suite.len() / 2,
        "most of the corpus survives ({}/{})",
        usable.len(),
        suite.len()
    );

    // The degraded corpus still feeds the whole downstream pipeline.
    let env = Env::ALL[1];
    let advisor = FormatAdvisor::train(&corpus, env, SearchBudget::Quick);
    let m = probe_matrix();
    let rec = advisor.recommend(&m);
    assert!(Format::ALL.contains(&rec.format));
    assert_eq!(rec.source, RecommendationSource::Model);
    let times = advisor.predict_times(&m);
    assert_eq!(times.len(), Format::ALL.len());
    assert!(times.iter().all(|(_, t)| t.is_finite()));
}

#[test]
fn fault_injection_is_deterministic_across_thread_counts() {
    let suite = SyntheticSuite::sample(CorpusScale::Tiny, 303);
    let plan = FaultPlan::new(5)
        .inject(FaultSite::Conversion, 0.2)
        .inject(FaultSite::WorkerPanic, 0.15);
    // Every label source runs through the one labeling loop: worker-panic
    // containment and thread-count invariance must hold for each.
    for env in [
        LabelEnvironment::Simulator,
        LabelEnvironment::parse("gpu-spmm4").expect("SpMV-family scenario cell"),
        LabelEnvironment::parse("mc-spgemm-aat").expect("SpGEMM scenario cell"),
        LabelEnvironment::CpuSynthetic { seed: 17 },
    ] {
        let tag = env.tag();
        let a = LabeledCorpus::collect_native_with(&suite, env, 1, &plan);
        let b = LabeledCorpus::collect_native_with(&suite, env, 4, &plan);
        let c = LabeledCorpus::collect_native_with(&suite, env, 7, &plan);
        assert_eq!(a.records.len(), suite.len(), "{tag}");
        for ((ra, rb), rc) in a.records.iter().zip(&b.records).zip(&c.records) {
            assert_eq!(ra.times, rb.times, "{tag}");
            assert_eq!(ra.failures, rb.failures, "{tag}");
            assert_eq!(ra.times, rc.times, "{tag}");
            assert_eq!(ra.failures, rc.failures, "{tag}");
        }
        assert!(
            a.records
                .iter()
                .flat_map(|r| &r.failures)
                .any(|f| f.reason.starts_with("label worker panicked")),
            "{tag}: the plan must panic some worker"
        );
    }
}

#[test]
fn advisor_cli_contract_matches_artifact_errors() {
    // Corrupt every byte-level failure mode the CLI maps to exit code 4
    // and confirm the library rejects each with a distinct typed error.
    let dir = tmpdir("artifact");
    let suite = SyntheticSuite::sample(CorpusScale::Tiny, 304);
    let corpus = LabeledCorpus::collect(&suite, &Simulator::default(), 2);
    let advisor = FormatAdvisor::train(&corpus, Env::ALL[0], SearchBudget::Quick);
    let path = dir.join("advisor.json");
    advisor.save(&path).expect("save");

    // Truncation.
    let full = std::fs::read(&path).expect("read");
    std::fs::write(&path, &full[..full.len() - 40]).expect("truncate");
    assert!(FormatAdvisor::load(&path).is_err());

    // Garbage.
    std::fs::write(&path, b"not json at all").expect("garbage");
    assert!(FormatAdvisor::load(&path).is_err());

    // Pre-envelope raw model dump (what an old release would have
    // written): structurally JSON, but not an artifact.
    std::fs::write(&path, b"{\"env\":{},\"formats\":[]}").expect("legacy");
    assert!(FormatAdvisor::load(&path).is_err());

    // Flipped payload byte.
    std::fs::write(&path, &full).expect("restore");
    let mut bytes = full.clone();
    let payload_pos = bytes
        .windows(9)
        .position(|w| w == b"\"payload\"")
        .expect("payload field");
    for b in &mut bytes[payload_pos + 20..payload_pos + 21] {
        *b = if *b == b'x' { b'y' } else { b'x' };
    }
    std::fs::write(&path, &bytes).expect("flip");
    assert!(FormatAdvisor::load(&path).is_err());

    // Intact artifact still loads after all that.
    std::fs::write(&path, &full).expect("restore");
    assert!(FormatAdvisor::load(&path).is_ok());
    std::fs::remove_file(&path).ok();
}
