//! `native-large`: one RMAT graph of a few million stored edges, all six
//! codes × both variants on the `ecl-native` host-thread backend (two
//! threads). APSP, a dense O(n³) code capped at 2048 vertices, runs on a
//! small RMAT graph from the same generator.

use super::{Checks, Pass, Size, Workload};
use crate::algs::{self, digest_is_variant_invariant, variant_tag, VARIANTS};
use crate::trace::Tracer;
use ecl_bench::{graph_seed, sched_seed};
use ecl_core::common::Digest;
use ecl_core::suite::{run_native, Algorithm};
use ecl_graph::gen::rmat;
use ecl_graph::Csr;

/// Host threads per native run.
pub const THREADS: usize = 2;

/// RMAT with Graph500 quadrant probabilities and the suite's canonical
/// synthesized weights (so MST/APSP see the same instance the simulator
/// would).
fn weighted_rmat(n: usize, edges: usize, seed: u64) -> Csr {
    rmat(n, edges, 0.57, 0.19, 0.19, true, seed).with_random_weights(1_000, 0xec1)
}

/// See the module docs.
pub struct NativeLarge {
    seed: u64,
    vertices: usize,
    edges: usize,
    apsp_vertices: usize,
    graph: Option<Csr>,
    apsp: Option<Csr>,
}

impl NativeLarge {
    /// The workload at `size`, its inputs generated from `seed`.
    pub fn new(seed: u64, size: Size) -> Self {
        let (vertices, edges, apsp_vertices) = match size {
            Size::Full => (1 << 17, 1_000_000, 256),
            Size::Toy => (1 << 10, 4_000, 32),
        };
        NativeLarge {
            seed,
            vertices,
            edges,
            apsp_vertices,
            graph: None,
            apsp: None,
        }
    }

    fn input(&self, alg: Algorithm) -> &Csr {
        let g = if alg == Algorithm::Apsp {
            &self.apsp
        } else {
            &self.graph
        };
        g.as_ref().expect("setup ran")
    }
}

impl Workload for NativeLarge {
    fn describe(&self) -> Vec<String> {
        let stored = self.graph.as_ref().map_or(0, Csr::num_edges);
        vec![
            format!(
                "load: closed loop, one client, {THREADS} host threads per native run \
                 (available parallelism: {})",
                std::thread::available_parallelism().map_or(0, |n| n.get())
            ),
            format!(
                "inputs: RMAT n={} with {stored} stored edges (~{} MiB of CSR + weights), APSP \
                 on a {}-vertex RMAT graph",
                self.vertices,
                (stored * 8 + self.vertices * 4) >> 20,
                self.apsp_vertices
            ),
            "caches: native runs use the host's caches; nothing simulated".into(),
        ]
    }

    /// Measured within a 30-second run: 0.9 for the pass, 1.0 for set-up.
    fn host_speed_slope(&self) -> f64 {
        1.0
    }

    fn setup(&mut self, t: &mut Tracer) {
        let gseed = graph_seed(self.seed);
        let (n, m, a) = (self.vertices, self.edges, self.apsp_vertices);
        let graph = t.span("graph.build", |_| weighted_rmat(n, m, gseed));
        let apsp = t.span("graph.build", |_| weighted_rmat(a, 4 * a, gseed));
        t.count("graph.edges", (graph.num_edges() + apsp.num_edges()) as f64);
        self.graph = Some(graph);
        self.apsp = Some(apsp);
    }

    fn preflight(&mut self, _t: &mut Tracer) -> Checks {
        // Deterministic fixpoints must match suite::run_native's.
        let mut checks = Checks::default();
        let seed = sched_seed(self.seed, 0);
        for alg in Algorithm::ALL
            .into_iter()
            .filter(|&a| digest_is_variant_invariant(a))
        {
            let g = self.input(alg);
            for variant in VARIANTS {
                let ours = algs::native_run(alg, variant, g, THREADS, seed);
                let suite = run_native(alg, variant, g, THREADS, seed);
                checks.check(suite.valid && ours.digest == suite.solution_digest, || {
                    format!("{alg}/{variant}: benchmark call differs from suite::run_native")
                });
            }
        }
        checks
    }

    fn pass(&mut self, t: &mut Tracer) -> Pass {
        let seed = sched_seed(self.seed, 0);
        let mut checks = Checks::default();
        let mut fp = Digest::new();
        for alg in Algorithm::ALL {
            let g = self.input(alg);
            let mut digests = [0u64; 2];
            for (digest, variant) in digests.iter_mut().zip(VARIANTS) {
                let span = format!("native.run/{}/{}", alg.name(), variant_tag(variant));
                let o = t.span(&span, |_| algs::native_run(alg, variant, g, THREADS, seed));
                let valid = t.span("core.verify/native", |_| o.solution.verify(alg, g));
                t.count("core.verified", 1.0);
                t.count("core.valid", valid as u64 as f64);
                checks.check(valid, || format!("{alg}/{variant}: invalid solution"));
                *digest = o.digest;
            }
            // GC's colors depend on thread timing; every other fixpoint is
            // schedule-independent and must repeat exactly.
            if digest_is_variant_invariant(alg) {
                checks.check(digests[0] == digests[1], || {
                    format!("{alg}: baseline and race-free digests differ")
                });
                fp.push(digests[0]);
            }
        }
        Pass {
            checks,
            fingerprint: fp.finish(),
            sim_accesses: 0,
            paper_logerr: None,
        }
    }
}
