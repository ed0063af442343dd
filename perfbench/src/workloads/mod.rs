//! The four workloads and what they share.

use crate::trace::Tracer;
use ecl_core::common::Digest;
use ecl_simt::metrics::RunStats;
use std::path::PathBuf;

pub mod isolated_sweep;
pub mod native_large;
pub mod race_verify;
pub mod sim_sweep;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["sim-sweep", "race-verify", "native-large", "isolated-sweep"];

/// Input size: `Full` is what the benchmark measures; `Toy` is a seconds-
/// long version of the same work for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Tiny inputs, same code paths.
    Toy,
}

/// Where a workload may write (journals, worker capture files) and which
/// executable serves as its sweep worker.
#[derive(Debug, Clone)]
pub struct Env {
    /// Scratch directory inside the checkout.
    pub scratch: PathBuf,
    /// This benchmark's own executable (it answers `--worker-cell`).
    pub worker_exe: PathBuf,
}

/// Failure descriptions kept per run; the counts keep counting past it.
const NOTE_CAP: usize = 16;

/// Output checks: how many were made and which failed.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Checked operations.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < NOTE_CAP {
                self.notes.push(what());
            }
        }
    }

    /// Adds another set of checks to this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = NOTE_CAP.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }
}

/// What one pass reports besides its timing.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// The pass's output checks.
    pub checks: Checks,
    /// Digest of everything the pass computed that must repeat exactly:
    /// simulated counts, cycles and solution digests.
    pub fingerprint: u64,
    /// Simulated device memory accesses the pass performed (in-process or
    /// in its sweep workers).
    pub sim_accesses: u64,
    /// Paper-fidelity error, for workloads that cover all 20 pairs.
    pub paper_logerr: Option<f64>,
}

/// One benchmark workload: set-up builds the inputs, a pass does the work
/// on them. Both run once untimed before any timing starts.
pub trait Workload {
    /// Lines describing load shape, sizes and cache state.
    fn describe(&self) -> Vec<String>;
    /// Builds this pass's inputs (timed as `setup_s`).
    fn setup(&mut self, t: &mut Tracer);
    /// Untimed checks run once after the first set-up: cross-checks of the
    /// benchmark's calls against the suite's own entry points.
    fn preflight(&mut self, t: &mut Tracer) -> Checks;
    /// One pass over the inputs (timed as `pass_s`).
    fn pass(&mut self, t: &mut Tracer) -> Pass;
    /// Removes whatever the workload wrote.
    fn cleanup(&mut self) {}
    /// How this workload's time moves with the host-speed probe
    /// (`harness::host_speed_probe`): the slope of ln(pass time) on
    /// ln(probe time) across the passes of a run. Set-up and pass times are
    /// scaled by (reference / probe)^slope; 0 leaves them unscaled.
    fn host_speed_slope(&self) -> f64;
}

/// Builds the named workload.
pub fn make(name: &str, seed: u64, size: Size, env: &Env) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sim-sweep" => Box::new(sim_sweep::SimSweep::new(seed, size)),
        "race-verify" => Box::new(race_verify::RaceVerify::new(seed, size)),
        "native-large" => Box::new(native_large::NativeLarge::new(seed, size)),
        "isolated-sweep" => Box::new(isolated_sweep::IsolatedSweep::new(seed, size, env)),
        _ => return None,
    })
}

/// Simulated-hierarchy counts summed over a pass's simulator runs. Every
/// field is an exact function of the inputs and seeds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimTally {
    accesses: u64,
    cycles: u64,
    launches: u64,
    steps: u64,
    l1_hits: u64,
    l1_misses: u64,
    l2_hits: u64,
    l2_misses: u64,
    dram_accesses: u64,
    atomic_accesses: u64,
    plain_accesses: u64,
    volatile_accesses: u64,
    coalesced_stores: u64,
}

impl SimTally {
    /// Adds one run's elapsed cycles and launch profile.
    pub fn add(&mut self, cycles: u64, stats: &RunStats) {
        self.cycles += cycles;
        for l in &stats.launches {
            self.accesses += l.total_accesses();
            self.launches += 1;
            self.steps += l.steps;
            self.l1_hits += l.l1.hits;
            self.l1_misses += l.l1.misses;
            self.l2_hits += l.l2.hits;
            self.l2_misses += l.l2.misses;
            self.dram_accesses += l.dram_accesses;
            self.atomic_accesses += l.atomic_accesses;
            self.plain_accesses += l.plain_accesses;
            self.volatile_accesses += l.volatile_accesses;
            self.coalesced_stores += l.coalesced_stores;
        }
    }

    /// Total simulated device memory accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    fn fields(&self) -> [(&'static str, u64); 13] {
        [
            ("simt.accesses", self.accesses),
            ("simt.cycles", self.cycles),
            ("simt.launches", self.launches),
            ("simt.steps", self.steps),
            ("simt.l1_hits", self.l1_hits),
            ("simt.l1_misses", self.l1_misses),
            ("simt.l2_hits", self.l2_hits),
            ("simt.l2_misses", self.l2_misses),
            ("simt.dram_accesses", self.dram_accesses),
            ("simt.atomic_accesses", self.atomic_accesses),
            ("simt.plain_accesses", self.plain_accesses),
            ("simt.volatile_accesses", self.volatile_accesses),
            ("simt.coalesced_stores", self.coalesced_stores),
        ]
    }

    /// Records every count on the tracer's current pass.
    pub fn record(&self, t: &mut Tracer) {
        for (name, v) in self.fields() {
            t.count(name, v as f64);
        }
    }

    /// Folds every count into a pass fingerprint.
    pub fn fold(&self, fp: &mut Digest) {
        for (_, v) in self.fields() {
            fp.push(v);
        }
    }
}

/// Names of the exact simulator counts [`SimTally`] records.
pub fn sim_count_names() -> Vec<&'static str> {
    SimTally::default().fields().iter().map(|f| f.0).collect()
}
