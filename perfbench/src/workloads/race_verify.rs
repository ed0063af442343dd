//! `race-verify`: traced runs (`{alg}::run_traced` on a tracing `Gpu`, the
//! simulator's `FullHooks` path) of both variants of all six codes on one
//! input each, precise-mode race detection over every trace, and the
//! static contract check of the whole suite.

use super::{Checks, Pass, SimTally, Size, Workload};
use crate::algs::{self, variant_tag, VARIANTS};
use crate::trace::Tracer;
use ecl_analyze::{check_suite, suite_passes};
use ecl_bench::{graph_seed, sched_seed};
use ecl_core::common::Digest;
use ecl_core::suite::{run_algorithm_checked, Algorithm, Variant};
use ecl_core::SimOptions;
use ecl_graph::inputs::GraphInput;
use ecl_graph::Csr;
use ecl_racecheck::check_races;
use ecl_simt::GpuConfig;

/// The paper's §IV verdict: every baseline except APSP races; no race-free
/// variant does.
pub fn paper_verdict(alg: Algorithm, variant: Variant) -> bool {
    variant == Variant::Baseline && alg != Algorithm::Apsp
}

struct Inputs {
    undirected: Csr,
    undirected_weighted: Csr,
    directed: Csr,
    apsp: Csr,
}

impl Inputs {
    fn for_alg(&self, alg: Algorithm) -> &Csr {
        match alg {
            Algorithm::Apsp => &self.apsp,
            Algorithm::Scc => &self.directed,
            Algorithm::Mst => &self.undirected_weighted,
            _ => &self.undirected,
        }
    }
}

/// See the module docs.
pub struct RaceVerify {
    seed: u64,
    scale: f64,
    apsp_vertices: usize,
    cfg: GpuConfig,
    flipped: Option<(Algorithm, Variant)>,
    inputs: Option<Inputs>,
}

impl RaceVerify {
    /// The workload at `size`, its inputs generated from `seed`.
    pub fn new(seed: u64, size: Size) -> Self {
        let (scale, apsp_vertices) = match size {
            Size::Full => (0.05, 32),
            Size::Toy => (0.02, 16),
        };
        RaceVerify {
            seed,
            scale,
            apsp_vertices,
            cfg: GpuConfig::titan_v(),
            flipped: None,
            inputs: None,
        }
    }

    /// Expects the opposite of the paper's verdict for one combination — a
    /// deliberately wrong expectation, for testing that a wrong verdict is
    /// counted as a failed operation.
    pub fn with_flipped_expectation(mut self, alg: Algorithm, variant: Variant) -> Self {
        self.flipped = Some((alg, variant));
        self
    }

    fn expects_races(&self, alg: Algorithm, variant: Variant) -> bool {
        paper_verdict(alg, variant) ^ (self.flipped == Some((alg, variant)))
    }

    fn inputs(&self) -> &Inputs {
        self.inputs.as_ref().expect("setup ran")
    }
}

impl Workload for RaceVerify {
    fn describe(&self) -> Vec<String> {
        vec![
            "load: closed loop, one client, single-threaded simulator with access tracing".into(),
            format!(
                "inputs: 2d-2e20.sym (CC/GC/MIS/MST) and toroid-hex (SCC) at scale {}, a \
                 {}-vertex RMAT graph (APSP); GPU preset {}; precise-mode detection",
                self.scale, self.apsp_vertices, self.cfg.name
            ),
            "caches: every run builds a fresh Gpu, so simulated caches start empty".into(),
        ]
    }

    /// Measured within 20-second runs: 1.6–1.9 for the pass (one run read 1.05), 1.35 for set-up.
    fn host_speed_slope(&self) -> f64 {
        1.6
    }

    fn setup(&mut self, t: &mut Tracer) {
        let gseed = graph_seed(self.seed);
        let scale = self.scale;
        let n = self.apsp_vertices;
        let build = |t: &mut Tracer, f: &dyn Fn() -> Csr| {
            let g = t.span("graph.build", |_| f());
            t.count("graph.edges", g.num_edges() as f64);
            g
        };
        let catalog = |name: &str| GraphInput::by_name(name).expect("catalog input");
        let undirected = build(t, &|| catalog("2d-2e20.sym").build(scale, gseed));
        let undirected_weighted = build(t, &|| algs::with_suite_weights(&undirected));
        let directed = build(t, &|| catalog("toroid-hex").build(scale, gseed));
        let apsp = build(t, &|| {
            ecl_graph::gen::rmat(n, 4 * n, 0.57, 0.19, 0.19, true, gseed)
                .with_random_weights(1_000, 0xec1)
        });
        self.inputs = Some(Inputs {
            undirected,
            undirected_weighted,
            directed,
            apsp,
        });
    }

    fn preflight(&mut self, _t: &mut Tracer) -> Checks {
        // The traced path must simulate exactly what the suite's fast path
        // does: same cycles for every combination.
        let mut checks = Checks::default();
        let seed = sched_seed(self.seed, 0);
        for alg in Algorithm::ALL {
            let g = self.inputs().for_alg(alg);
            for variant in VARIANTS {
                let (gpu, _) = algs::traced_run(alg, variant, g, &self.cfg, seed);
                let suite =
                    run_algorithm_checked(alg, variant, g, &self.cfg, seed, &SimOptions::default());
                let same = suite.is_ok_and(|s| s.cycles == gpu.elapsed_cycles());
                checks.check(same, || {
                    format!("{alg}/{variant}: traced run differs from suite::run_algorithm_checked")
                });
            }
        }
        checks
    }

    fn pass(&mut self, t: &mut Tracer) -> Pass {
        let seed = sched_seed(self.seed, 0);
        let mut checks = Checks::default();
        let mut tally = SimTally::default();
        let mut fp = Digest::new();
        for alg in Algorithm::ALL {
            let g = self.inputs().for_alg(alg);
            for variant in VARIANTS {
                let tag = variant_tag(variant);
                let span = format!("simt.traced_run/{}/{tag}", alg.name());
                let (gpu, solution) = t.span(&span, |_| {
                    algs::traced_run(alg, variant, g, &self.cfg, seed)
                });
                let valid = t.span("core.verify/sim", |_| solution.verify(alg, g));
                t.count("core.verified", 1.0);
                t.count("core.valid", valid as u64 as f64);
                checks.check(valid, || format!("{alg}/{variant}: invalid solution"));

                let trace = gpu.trace().expect("traced_run enables tracing");
                let truncated = trace.truncated().unwrap_or(0);
                t.count("simt.trace_events", trace.len() as f64);
                t.count("simt.trace_truncated", truncated as f64);
                checks.check(truncated == 0, || {
                    format!("{alg}/{variant}: trace truncated ({truncated} events dropped)")
                });
                tally.add(gpu.elapsed_cycles(), gpu.run_stats());
                fp.push(gpu.elapsed_cycles());
                fp.push(solution.raw_digest());
                fp.push(trace.len() as u64);

                let reports = t.span("racecheck.detect", |_| check_races(&gpu));
                t.count(&format!("racecheck.findings.{tag}"), reports.len() as f64);
                fp.push(reports.len() as u64);
                let expected = self.expects_races(alg, variant);
                checks.check(reports.is_empty() != expected, || {
                    format!(
                        "{alg}/{variant}: detector found {} race(s), expected {}",
                        reports.len(),
                        if expected { "some" } else { "none" }
                    )
                });
            }
        }
        let reports = t.span("analyze.check", |_| check_suite());
        let conflicts: usize = reports.iter().map(|r| r.conflicts.len()).sum();
        t.count("analyze.conflicts", conflicts as f64);
        fp.push(conflicts as u64);
        checks.check(suite_passes(&reports), || {
            "static check: a race-free variant is not proven clean or a baseline conflict is \
             unclassified"
                .into()
        });
        tally.record(t);
        tally.fold(&mut fp);
        Pass {
            checks,
            fingerprint: fp.finish(),
            sim_accesses: tally.accesses(),
            paper_logerr: None,
        }
    }
}
