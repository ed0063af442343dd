//! `sim-sweep`: the in-process sweep on the simulator's `NoHooks` fast
//! path — a fixed subset of both catalogs × all six codes × the four paper
//! GPU presets × both variants, one scheduler seed.

use super::{Checks, Pass, SimTally, Size, Workload};
use crate::algs::{self, digest_is_variant_invariant, variant_tag, VARIANTS};
use crate::paper::Speedups;
use crate::trace::Tracer;
use ecl_bench::{graph_seed, sched_seed};
use ecl_core::common::{DeviceGraph, Digest};
use ecl_core::suite::{run_algorithm_checked, Algorithm};
use ecl_core::SimOptions;
use ecl_graph::inputs::{Directedness, GraphInput};
use ecl_graph::Csr;
use ecl_simt::GpuConfig;

/// APSP (a dense O(n³) code) runs only on subset inputs this small.
const APSP_MAX_VERTICES: usize = 100;

/// One prepared input: the catalog graph and its weighted twin.
struct Input {
    name: &'static str,
    plain: Csr,
    weighted: Csr,
    algs: Vec<Algorithm>,
}

/// See the module docs.
pub struct SimSweep {
    seed: u64,
    scale: f64,
    names: &'static [&'static str],
    inputs: Vec<Input>,
    gpus: Vec<GpuConfig>,
}

impl SimSweep {
    /// The workload at `size`, its inputs generated from `seed`.
    pub fn new(seed: u64, size: Size) -> Self {
        let (scale, names): (f64, &'static [&'static str]) = match size {
            Size::Full => (
                0.1,
                &[
                    "internet",
                    "USA-road-d.NY",
                    "2d-2e20.sym",
                    "amazon0601",
                    "rmat16.sym",
                    "coPapersDBLP",
                    "as-skitter",
                    "web-Google",
                    "flickr",
                    "cage14",
                    "toroid-hex",
                    "toroid-wedge",
                ],
            ),
            Size::Toy => (0.05, &["internet", "USA-road-d.NY", "toroid-wedge"]),
        };
        SimSweep {
            seed,
            scale,
            names,
            inputs: Vec::new(),
            gpus: Vec::new(),
        }
    }

    fn cells(&self) -> impl Iterator<Item = (&Input, Algorithm, &GpuConfig)> {
        self.inputs.iter().flat_map(move |input| {
            input
                .algs
                .iter()
                .flat_map(move |&alg| self.gpus.iter().map(move |gpu| (input, alg, gpu)))
        })
    }
}

impl Workload for SimSweep {
    fn describe(&self) -> Vec<String> {
        vec![
            "load: closed loop, one client, single-threaded simulator (no --jobs pool)".into(),
            format!(
                "inputs: {} catalog graphs at scale {} (APSP on those with <= {APSP_MAX_VERTICES} \
                 vertices) x 4 paper GPU presets x 2 variants, one scheduler seed",
                self.names.len(),
                self.scale
            ),
            "caches: every run builds a fresh Gpu, so simulated caches start empty".into(),
        ]
    }

    /// Measured within 20-second runs: 1.5–1.7 for the pass, 1.6 for set-up.
    fn host_speed_slope(&self) -> f64 {
        1.6
    }

    fn setup(&mut self, t: &mut Tracer) {
        let gseed = graph_seed(self.seed);
        let scale = self.scale;
        self.inputs = self
            .names
            .iter()
            .map(|name| {
                let input = GraphInput::by_name(name).expect("subset names are catalog inputs");
                let (plain, weighted) = t.span("graph.build", |_| {
                    let plain = input.build(scale, gseed);
                    let weighted = algs::with_suite_weights(&plain);
                    (plain, weighted)
                });
                t.count("graph.edges", plain.num_edges() as f64);
                let mut algs = match input.directedness() {
                    Directedness::Directed => vec![Algorithm::Scc],
                    Directedness::Undirected => Algorithm::UNDIRECTED.to_vec(),
                };
                if plain.num_vertices() <= APSP_MAX_VERTICES {
                    algs.insert(0, Algorithm::Apsp);
                }
                Input {
                    name: input.name(),
                    plain,
                    weighted,
                    algs,
                }
            })
            .collect();
        self.gpus = GpuConfig::paper_gpus();
    }

    fn preflight(&mut self, _t: &mut Tracer) -> Checks {
        let mut checks = Checks::default();
        let seed = sched_seed(self.seed, 0);
        let opts = SimOptions::default();
        for (input, alg, gpu) in self.cells() {
            let g = algs::input_for(alg, &input.plain, &input.weighted);
            for variant in VARIANTS {
                let ours = algs::sim_run(alg, variant, g, gpu, seed);
                let suite = run_algorithm_checked(alg, variant, &input.plain, gpu, seed, &opts);
                let same = match (&ours, &suite) {
                    (Ok(o), Ok(s)) => o.cycles == s.cycles && o.digest == s.solution_digest,
                    _ => false,
                };
                checks.check(same, || {
                    format!(
                        "{}/{alg}/{}/{variant}: benchmark call differs from \
                         suite::run_algorithm_checked",
                        input.name, gpu.name
                    )
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
        let mut speedups = Speedups::default();
        for (input, alg, gpu) in self.cells() {
            let g = algs::input_for(alg, &input.plain, &input.weighted);
            let mut results = [None, None];
            t.span("harness.cell", |t| {
                for (slot, variant) in results.iter_mut().zip(VARIANTS) {
                    if t.is_on() {
                        // Probe: the device set-up every run performs.
                        t.span("simt.device_setup", |_| {
                            let mut dev = SimOptions::default().make_gpu(gpu, seed);
                            std::hint::black_box(DeviceGraph::upload(&mut dev, g));
                        });
                    }
                    let span = format!("simt.run/{}/{}", alg.name(), variant_tag(variant));
                    let run = t.span(&span, |_| algs::sim_run(alg, variant, g, gpu, seed));
                    let what = || format!("{}/{alg}/{}/{variant}", input.name, gpu.name);
                    let o = match run {
                        Ok(o) => o,
                        Err(e) => {
                            checks.check(false, || format!("{}: {e}", what()));
                            continue;
                        }
                    };
                    let valid = t.span("core.verify/sim", |_| o.solution.verify(alg, g));
                    t.count("core.verified", 1.0);
                    t.count("core.valid", valid as u64 as f64);
                    checks.check(valid, || format!("{}: invalid solution", what()));
                    tally.add(o.cycles, &o.stats);
                    fp.push(o.cycles);
                    fp.push(o.digest);
                    *slot = Some((o.cycles, o.digest));
                }
            });
            if let [Some((base_cycles, base_digest)), Some((rf_cycles, rf_digest))] = results {
                if digest_is_variant_invariant(alg) {
                    checks.check(base_digest == rf_digest, || {
                        format!(
                            "{}/{alg}/{}: baseline and race-free digests differ",
                            input.name, gpu.name
                        )
                    });
                }
                if alg != Algorithm::Apsp {
                    speedups.add(alg, gpu.name, base_cycles, rf_cycles);
                }
            }
        }
        tally.record(t);
        tally.fold(&mut fp);
        let paper_logerr = speedups.logerr();
        checks.check(paper_logerr.is_some(), || {
            "sweep did not cover all 20 paper (algorithm, GPU) pairs".into()
        });
        Pass {
            checks,
            fingerprint: fp.finish(),
            sim_accesses: tally.accesses(),
            paper_logerr,
        }
    }
}
