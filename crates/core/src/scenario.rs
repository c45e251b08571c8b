//! Multi-scenario label collection: the op-aware generalization of the
//! simulator sweep in [`crate::labels`].
//!
//! A [`Scenario`] names one (operation, machine-pair) cell of the label
//! space — SpMV, SpMM (k ∈ {4, 16}), or iterative-solver repeated
//! products, over the paper GPUs or the many-core CPU-style presets —
//! and this module labels a corpus in it through
//! [`Simulator::measure_profile_op`]. It supplies the two simulator
//! label sources of the shared labeling engine in [`crate::labels`]:
//! `OpSource` for the SpMV family and `SpgemmSource` for the SpGEMM
//! dataflow cells. The plain simulator
//! corpus is the op source at `(SpMV, paper GPUs)`, so that corner
//! reproduces the pre-scenario label caches byte-for-byte by construction:
//! the same structural profiling, the same fault-site keys (`{name}/{fmt}`
//! for conversion, `{name}/{fmt}/{arch}/{prec}` for measurement) and the
//! same per-cell noise seeds ([`cell_seed`] deliberately excludes the op).

use std::path::Path;

use spmv_corpus::SyntheticSuite;
use spmv_gpusim::{
    cell_seed, spgemm_cell_seed, Dataflow, GpuArch, KernelProfile, ProfileCache, Simulator, SpOp,
    SpgemmProfile,
};
use spmv_matrix::{
    CsrMatrix, CsrStructure, Format, Precision, RowStats, SpgemmOperand, SpgemmSymbolic,
    StructureScratch,
};

use crate::env::{Env, EnvSpec, LabelEnvironment, Scenario};
use crate::faults::{FaultPlan, FaultSite};
use crate::labels::{CellTimes, LabelFailure, LabelSource, LabeledCorpus, N_FORMATS};

/// Measure every (format, arch, precision) cell of one matrix under a
/// sparse operation `op` over an explicit machine pair, **without
/// materializing any value plane**: each format's index layout is derived
/// into `scratch` as a value-free [`spmv_matrix::FormatStructure`] and
/// profiled via [`KernelProfile::of_structure_cached`]; `stats` is the
/// shared single-pass row analysis (the same one that feeds feature
/// extraction), so `row_ptr` is never re-walked per format. With
/// `op = SpOp::Spmv` and `machines = &GpuArch::PAPER_MACHINES` this is
/// the simulator's SpMV labeling path (the differential tests pin it
/// against the value-carrying oracle and the committed caches).
#[allow(clippy::too_many_arguments)]
pub fn measure_matrix_op_outcomes_in(
    csr: &CsrMatrix<f64>,
    stats: &RowStats,
    scratch: &mut StructureScratch,
    sim: &Simulator,
    op: SpOp,
    machines: &[GpuArch; 2],
    noise_seed: u64,
    name: &str,
    plan: &FaultPlan,
) -> (CellTimes, Vec<LabelFailure>) {
    let mut times: CellTimes = [[[None; N_FORMATS]; 2]; 2];
    let mut failures: Vec<LabelFailure> = Vec::new();
    // COO and merge-CSR gather through the same row-major column stream;
    // the cache measures it once for the whole format sweep.
    let mut cache = ProfileCache::new();
    for fmt in Format::ALL {
        let conv_key = format!("{name}/{fmt}");
        if plan.should_fail(FaultSite::Conversion, &conv_key) {
            failures.push(LabelFailure {
                format: Some(fmt),
                env: None,
                reason: FaultPlan::reason(FaultSite::Conversion, &conv_key),
            });
            continue;
        }
        let profile = match spmv_matrix::FormatStructure::build(csr, fmt, stats, &mut *scratch) {
            Ok(s) => KernelProfile::of_structure_cached(&s, &mut cache),
            Err(e) => {
                // The paper's organic failure case (ELL padding blow-up):
                // recorded, not fatal. `FormatStructure::build` fails on
                // exactly the inputs `SparseMatrix::from_csr` does, with
                // the identical error.
                failures.push(LabelFailure {
                    format: Some(fmt),
                    env: None,
                    reason: e.to_string(),
                });
                continue;
            }
        };
        for (ai, arch) in machines.iter().enumerate() {
            for prec in Precision::ALL {
                let env = Env {
                    arch_idx: ai,
                    precision: prec,
                };
                let cell_key = format!("{name}/{fmt}/{}/{}", arch.name, prec.label());
                if plan.should_fail(FaultSite::Measurement, &cell_key) {
                    failures.push(LabelFailure {
                        format: Some(fmt),
                        env: Some(env),
                        reason: FaultPlan::reason(FaultSite::Measurement, &cell_key),
                    });
                    continue;
                }
                // The op is deliberately not folded into the seed: at the
                // identity points (SpMM k=1, solver iters=1) the noise
                // stream must match the plain-SpMV stream bit-for-bit.
                let seed = cell_seed(noise_seed, fmt, arch, prec);
                let meas = sim.measure_profile_op(&profile, arch, prec, op, seed);
                times[ai][prec.idx()][fmt.class_id()] = Some(meas.time_s);
                spmv_observe::counter("labeling.cells_measured", 1);
            }
        }
    }
    spmv_observe::counter("gpusim.profile_cache.hits", cache.hits());
    spmv_observe::counter("gpusim.profile_cache.misses", cache.misses());
    (times, failures)
}

/// The SpMV-family simulator label source: one sparse operation over one
/// machine pair, recording `spec` verbatim on the corpus.
pub(crate) struct OpSource<'a> {
    pub(crate) sim: &'a Simulator,
    pub(crate) op: SpOp,
    pub(crate) machines: &'a [GpuArch; 2],
    pub(crate) spec: EnvSpec,
}

impl LabelSource for OpSource<'_> {
    type Scratch = StructureScratch;

    fn spec(&self) -> EnvSpec {
        self.spec.clone()
    }

    fn measure(
        &self,
        csr: &CsrMatrix<f64>,
        stats: &RowStats,
        scratch: &mut StructureScratch,
        noise_seed: u64,
        name: &str,
        plan: &FaultPlan,
    ) -> (CellTimes, Vec<LabelFailure>, Vec<f64>) {
        let (times, failures) = measure_matrix_op_outcomes_in(
            csr,
            stats,
            scratch,
            self.sim,
            self.op,
            self.machines,
            noise_seed,
            name,
            plan,
        );
        (times, failures, Vec::new())
    }
}

/// The SpGEMM simulator label source: one operand shape over one machine
/// pair. One symbolic pass over the value-free structure feeds all four
/// dataflow models; dataflow `i` lands in cell-times slot `i` (slots
/// beyond [`spmv_gpusim::N_DATAFLOWS`] stay empty), so the record/corpus
/// serialization is shared with the format cells unchanged, and each
/// record's `extra` carries the symbolic dataflow-feature block. Fault
/// keys mirror the format path with the dataflow label in the format
/// position (`{name}/{dataflow}` and `{name}/{dataflow}/{arch}/{prec}`);
/// the symbolic phase itself never fails (it is a pure counting pass), so
/// there is no conversion-failure analog outside fault injection.
struct SpgemmSource<'a> {
    sim: &'a Simulator,
    operand: SpgemmOperand,
    machines: &'a [GpuArch; 2],
    spec: EnvSpec,
}

impl LabelSource for SpgemmSource<'_> {
    type Scratch = StructureScratch;

    fn spec(&self) -> EnvSpec {
        self.spec.clone()
    }

    fn measure(
        &self,
        csr: &CsrMatrix<f64>,
        _stats: &RowStats,
        scratch: &mut StructureScratch,
        noise_seed: u64,
        name: &str,
        plan: &FaultPlan,
    ) -> (CellTimes, Vec<LabelFailure>, Vec<f64>) {
        let mut times: CellTimes = [[[None; N_FORMATS]; 2]; 2];
        let mut failures: Vec<LabelFailure> = Vec::new();
        let view = CsrStructure {
            n_rows: csr.n_rows(),
            n_cols: csr.n_cols(),
            row_ptr: csr.row_ptr(),
            col_idx: csr.col_idx(),
        };
        // The sampling seed is the matrix seed: deterministic per matrix,
        // independent of thread count and of the per-cell jitter streams.
        let sym = SpgemmSymbolic::analyze(view, self.operand, noise_seed, scratch);
        let profile = SpgemmProfile::of_symbolic(&sym, csr.nnz());
        let extra = profile.dataflow_features().to_vec();
        for df in Dataflow::ALL {
            let conv_key = format!("{name}/{df}");
            if plan.should_fail(FaultSite::Conversion, &conv_key) {
                failures.push(LabelFailure {
                    format: None,
                    env: None,
                    reason: FaultPlan::reason(FaultSite::Conversion, &conv_key),
                });
                continue;
            }
            for (ai, arch) in self.machines.iter().enumerate() {
                for prec in Precision::ALL {
                    let env = Env {
                        arch_idx: ai,
                        precision: prec,
                    };
                    let cell_key = format!("{name}/{df}/{}/{}", arch.name, prec.label());
                    if plan.should_fail(FaultSite::Measurement, &cell_key) {
                        failures.push(LabelFailure {
                            format: None,
                            env: Some(env),
                            reason: FaultPlan::reason(FaultSite::Measurement, &cell_key),
                        });
                        continue;
                    }
                    let seed = spgemm_cell_seed(noise_seed, df, arch, prec);
                    let meas = self.sim.measure_spgemm(&profile, df, arch, prec, seed);
                    times[ai][prec.idx()][df.class_id()] = Some(meas.time_s);
                    spmv_observe::counter("labeling.cells_measured", 1);
                }
            }
        }
        (times, failures, extra)
    }
}

impl LabeledCorpus {
    /// Label every matrix of `suite` under an arbitrary (op, machine-pair)
    /// cell, recording `env_spec` verbatim on the corpus. The differential
    /// tests pass `EnvSpec::default()` to reproduce a simulator corpus
    /// byte-for-byte, serialization included.
    #[allow(clippy::too_many_arguments)]
    pub fn collect_op_with(
        suite: &SyntheticSuite,
        sim: &Simulator,
        op: SpOp,
        machines: &'static [GpuArch; 2],
        threads: usize,
        plan: &FaultPlan,
        env_spec: EnvSpec,
    ) -> LabeledCorpus {
        let _collect_span =
            spmv_observe::span!("labeling/collect-scenario", matrices = suite.len() as u64);
        let source = OpSource {
            sim,
            op,
            machines,
            spec: env_spec,
        };
        Self::collect_from(suite, &source, threads, plan)
    }

    /// Label every matrix of `suite` in one scenario cell.
    pub fn collect_scenario(suite: &SyntheticSuite, sc: Scenario, threads: usize) -> LabeledCorpus {
        Self::collect_scenario_with(suite, sc, threads, &FaultPlan::none())
    }

    /// [`LabeledCorpus::collect_scenario`] under a fault plan: SpMV-family
    /// cells go through the op-aware simulator, SpGEMM cells through the
    /// symbolic-phase dataflow models.
    pub fn collect_scenario_with(
        suite: &SyntheticSuite,
        sc: Scenario,
        threads: usize,
        plan: &FaultPlan,
    ) -> LabeledCorpus {
        let sim = Simulator::default();
        if let Some(op) = sc.op.spmv_op() {
            return Self::collect_op_with(
                suite,
                &sim,
                op,
                sc.machines(),
                threads,
                plan,
                EnvSpec::scenario(sc),
            );
        }
        let _collect_span =
            spmv_observe::span!("labeling/collect-spgemm", matrices = suite.len() as u64);
        let source = SpgemmSource {
            sim: &sim,
            // Non-SpMV cells are SpGEMM by construction of ScenarioOp;
            // degrade to A·A if a future op forgets its operand.
            operand: sc.op.spgemm_operand().unwrap_or(SpgemmOperand::AA),
            machines: sc.machines(),
            spec: EnvSpec::scenario(sc),
        };
        Self::collect_from(suite, &source, threads, plan)
    }

    /// Load a scenario corpus from cache if it matches (suite seed,
    /// length, gpusim model version — scenario labels DO depend on the
    /// simulator — and the scenario's own [`EnvSpec`], so one cell's cache
    /// is never silently reused by another), else collect and cache.
    pub fn load_or_collect_scenario(
        suite: &SyntheticSuite,
        sc: Scenario,
        threads: usize,
        cache: &Path,
    ) -> LabeledCorpus {
        Self::load_or_collect_native(suite, LabelEnvironment::Scenario(sc), threads, cache)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::env::{ArchSet, ScenarioOp};
    use spmv_corpus::CorpusScale;

    #[test]
    fn gpu_spmv_scenario_reproduces_the_simulator_corpus_exactly() {
        // The differential anchor at the collector level: times, failures,
        // AND the serialized bytes (env_spec aside) must match.
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 6);
        let sim = LabeledCorpus::collect(&suite, &Simulator::default(), 2);
        let sc = Scenario {
            op: ScenarioOp::Spmv,
            archs: ArchSet::PaperGpus,
        };
        let scen = LabeledCorpus::collect_scenario(&suite, sc, 2);
        assert_eq!(scen.records.len(), sim.records.len());
        for (a, b) in sim.records.iter().zip(&scen.records) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.times, b.times, "{}", a.name);
            assert_eq!(a.failures, b.failures);
        }
        assert_eq!(scen.env_spec, EnvSpec::scenario(sc));
        assert!(!scen.env_spec.is_simulator());
    }

    #[test]
    fn scenario_collection_is_thread_invariant_and_cells_differ() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 7);
        let sc = Scenario {
            op: ScenarioOp::Spmm16,
            archs: ArchSet::ManyCore,
        };
        let a = LabeledCorpus::collect_scenario(&suite, sc, 1);
        let b = LabeledCorpus::collect_scenario(&suite, sc, 4);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "scenario labels must not depend on the thread count"
        );
        // A different op over the same machines moves the labels.
        let other = LabeledCorpus::collect_scenario(
            &suite,
            Scenario {
                op: ScenarioOp::Spmv,
                archs: ArchSet::ManyCore,
            },
            2,
        );
        assert_ne!(a.records[0].times, other.records[0].times);
    }

    #[test]
    fn fault_sites_key_identically_to_the_simulator_path() {
        // The same plan must hit the same (matrix, format) conversion
        // cells in every scenario: keys don't mention the op, and the
        // paper-GPU scenarios share even the measurement keys.
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 9);
        let plan = FaultPlan::new(5)
            .inject(FaultSite::Conversion, 0.3)
            .inject(FaultSite::Measurement, 0.2);
        let sim = LabeledCorpus::collect_with(&suite, &Simulator::default(), 2, &plan);
        let scen = LabeledCorpus::collect_scenario_with(
            &suite,
            Scenario {
                op: ScenarioOp::Solver,
                archs: ArchSet::PaperGpus,
            },
            2,
            &plan,
        );
        for (rs, rn) in sim.records.iter().zip(&scen.records) {
            assert_eq!(rs.failures, rn.failures, "{}", rs.name);
        }
    }

    #[test]
    fn spgemm_cells_label_dataflows_thread_invariantly() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 8);
        let sc = Scenario {
            op: ScenarioOp::SpgemmAAt,
            archs: ArchSet::PaperGpus,
        };
        let a = LabeledCorpus::collect_scenario(&suite, sc, 1);
        let b = LabeledCorpus::collect_scenario(&suite, sc, 4);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "spgemm labels must not depend on the thread count"
        );
        use spmv_gpusim::N_DATAFLOWS;
        for r in &a.records {
            assert_eq!(
                r.extra.len(),
                spmv_features::DATAFLOW_FEATURE_COUNT,
                "{} carries the dataflow-feature block",
                r.name
            );
            for env in Env::ALL {
                let ts = r.env_times(env);
                for (i, t) in ts.iter().enumerate() {
                    if i < N_DATAFLOWS {
                        assert!(t.is_some(), "{} slot {i} measured", r.name);
                    } else {
                        assert!(t.is_none(), "{} slot {i} must stay empty", r.name);
                    }
                }
            }
            assert!(r.complete_slots(N_DATAFLOWS));
            assert!(r.best_slot(Env::ALL[0], N_DATAFLOWS).is_some());
        }
        // The two operand shapes are different label distributions. For a
        // symmetric matrix A·A and A·Aᵀ legitimately coincide, so assert
        // over the corpus, not any single record.
        let aa = LabeledCorpus::collect_scenario(
            &suite,
            Scenario {
                op: ScenarioOp::SpgemmAA,
                archs: ArchSet::PaperGpus,
            },
            2,
        );
        assert!(
            aa.records
                .iter()
                .zip(&a.records)
                .any(|(x, y)| x.times != y.times),
            "AA and AAt must differ on some matrix"
        );
    }

    #[test]
    fn spgemm_fault_keys_use_the_dataflow_label() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 9);
        let plan = FaultPlan::new(5)
            .inject(FaultSite::Conversion, 0.3)
            .inject(FaultSite::Measurement, 0.2);
        let c = LabeledCorpus::collect_scenario_with(
            &suite,
            Scenario {
                op: ScenarioOp::SpgemmAA,
                archs: ArchSet::PaperGpus,
            },
            2,
            &plan,
        );
        let injected: Vec<&LabelFailure> = c
            .records
            .iter()
            .flat_map(|r| &r.failures)
            .filter(|f| f.reason.contains("injected"))
            .collect();
        assert!(!injected.is_empty(), "plan should hit some dataflow cells");
        for f in injected {
            assert_eq!(f.format, None, "dataflow failures carry no format");
            assert!(
                Dataflow::ALL.iter().any(|d| f.reason.contains(d.label())),
                "key names a dataflow: {}",
                f.reason
            );
        }
    }

    #[test]
    fn cache_round_trip_is_scenario_checked() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 6);
        let dir = std::env::temp_dir().join("spmv_core_scenario_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("labels.gpu-spmm4.json");
        let _ = std::fs::remove_file(&path);
        let sc = Scenario {
            op: ScenarioOp::Spmm4,
            archs: ArchSet::PaperGpus,
        };
        let a = LabeledCorpus::load_or_collect_scenario(&suite, sc, 2, &path);
        assert!(path.exists());
        let b = LabeledCorpus::load_or_collect_scenario(&suite, sc, 2, &path);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "second call must be a byte-identical cache hit"
        );
        // Another scenario must NOT reuse the cache file.
        let other = Scenario {
            op: ScenarioOp::Spmm16,
            archs: ArchSet::PaperGpus,
        };
        let c = LabeledCorpus::load_or_collect_scenario(&suite, other, 2, &path);
        assert_eq!(c.env_spec, EnvSpec::scenario(other));
        assert_ne!(c.records[0].times, a.records[0].times);
        let _ = std::fs::remove_file(&path);
    }
}
