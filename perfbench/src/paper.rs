//! The paper's geometric-mean speedups (baseline cycles / race-free
//! cycles), Tables IV–VIII summary rows and Fig. 6, as EXPERIMENTS.md's
//! headline table quotes them, and the fidelity error against them.
//!
//! Only these *ratios* are compared. Absolute cycle counts are not
//! comparable to the paper's milliseconds: the inputs are scaled synthetic
//! stand-ins for the paper's graphs and the GPUs are simulator presets
//! (DESIGN.md §2).

use ecl_core::suite::Algorithm;
use std::collections::BTreeMap;

/// GPU preset names, in the paper's Table I order.
pub const GPUS: [&str; 4] = ["Titan V", "2070 Super", "A100", "4090"];

/// Paper geomean speedup per algorithm, one value per entry of [`GPUS`].
pub const REFERENCE: [(Algorithm, [f64; 4]); 5] = [
    (Algorithm::Cc, [0.66, 0.88, 0.66, 0.45]),
    (Algorithm::Gc, [1.00, 0.98, 0.99, 0.96]),
    (Algorithm::Mis, [1.11, 1.05, 1.08, 1.07]),
    (Algorithm::Mst, [0.97, 0.95, 0.93, 0.96]),
    (Algorithm::Scc, [0.74, 0.81, 0.50, 0.55]),
];

/// Collects per-input speedups by (algorithm, GPU) and scores them.
#[derive(Debug, Default, Clone)]
pub struct Speedups {
    by_pair: BTreeMap<(&'static str, &'static str), Vec<f64>>,
}

impl Speedups {
    /// Adds one cell's baseline and race-free cycles.
    pub fn add(&mut self, alg: Algorithm, gpu: &'static str, baseline: u64, racefree: u64) {
        self.by_pair
            .entry((alg.name(), gpu))
            .or_default()
            .push(baseline as f64 / racefree as f64);
    }

    /// Geometric mean speedup of one pair, if measured.
    pub fn geomean(&self, alg: Algorithm, gpu: &str) -> Option<f64> {
        let xs = self.by_pair.get(&(alg.name(), gpu))?;
        Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
    }

    /// Mean of |ln(measured geomean / paper geomean)| over the 20 reference
    /// pairs; `None` unless every pair was measured.
    pub fn logerr(&self) -> Option<f64> {
        let mut sum = 0.0;
        for (alg, paper) in REFERENCE {
            for (gpu, reference) in GPUS.iter().zip(paper) {
                sum += (self.geomean(alg, gpu)? / reference).ln().abs();
            }
        }
        Some(sum / 20.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logerr_is_zero_on_the_paper_itself_and_needs_every_pair() {
        let mut s = Speedups::default();
        assert_eq!(s.logerr(), None);
        for (alg, paper) in REFERENCE {
            for (gpu, r) in GPUS.iter().zip(paper) {
                // Two inputs whose geomean is exactly the reference.
                s.add(alg, gpu, (r * 2e6) as u64, 1_000_000);
                s.add(alg, gpu, (r * 0.5e6) as u64, 1_000_000);
            }
        }
        assert!(s.logerr().unwrap() < 1e-6);
    }

    #[test]
    fn reference_gpus_are_simulator_presets() {
        for gpu in GPUS {
            assert!(ecl_simt::GpuConfig::by_name(gpu).is_some(), "{gpu}");
        }
    }
}
