//! Per-algorithm entry points, called the way `ecl_core::suite` calls them,
//! but with the run and the serial verification as two separate calls so
//! the trace can time them apart. The (algorithm, variant) → access-policy
//! mapping below mirrors `suite::run_algorithm_checked` and
//! `suite::run_native`; every workload's warm-up pass compares its results
//! against those suite entry points, so a drift between the two shows up as
//! a failed check rather than as a silently different measurement.

use ecl_core::primitives::{Atomic, Plain, Volatile, VolatileReadPlainWrite};
use ecl_core::suite::{Algorithm, Variant};
use ecl_core::{apsp, cc, gc, mis, mst, scc, SimOptions};
use ecl_graph::Csr;
use ecl_native::{Baseline as NativeBaseline, NativePolicy, RaceFree as NativeRaceFree};
use ecl_simt::metrics::RunStats;
use ecl_simt::{Gpu, GpuConfig, SimError, StoreVisibility};

/// Both variants, baseline first.
pub const VARIANTS: [Variant; 2] = [Variant::Baseline, Variant::RaceFree];

/// Short metric-name form of a variant.
pub fn variant_tag(v: Variant) -> &'static str {
    match v {
        Variant::Baseline => "baseline",
        Variant::RaceFree => "racefree",
    }
}

/// A run's host-side solution, whatever the algorithm.
#[derive(Debug, Clone)]
pub enum Solution {
    /// APSP distance matrix.
    Dist(Vec<u32>),
    /// CC labels, GC colors or SCC ids.
    Labels(Vec<u32>),
    /// MIS membership or MST edge selection.
    Flags(Vec<bool>),
}

impl Solution {
    /// Runs the algorithm's serial reference check on this solution.
    pub fn verify(&self, alg: Algorithm, g: &Csr) -> bool {
        match (alg, self) {
            (Algorithm::Apsp, Solution::Dist(d)) => apsp::verify_apsp(g, d),
            (Algorithm::Cc, Solution::Labels(l)) => cc::verify_components(g, l),
            (Algorithm::Gc, Solution::Labels(c)) => gc::verify_coloring(g, c),
            (Algorithm::Mis, Solution::Flags(s)) => mis::verify_mis(g, s),
            (Algorithm::Mst, Solution::Flags(s)) => mst::verify_mst(g, s),
            (Algorithm::Scc, Solution::Labels(l)) => scc::verify_sccs(g, l),
            _ => false,
        }
    }

    /// FNV-1a over the raw solution values (not canonicalized: equal only
    /// for bit-identical solutions).
    pub fn raw_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut push = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        match self {
            Solution::Dist(v) | Solution::Labels(v) => v.iter().for_each(|&x| push(x as u64)),
            Solution::Flags(v) => v.iter().for_each(|&x| push(x as u64)),
        }
        h
    }
}

/// One finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Simulated cycles (simulator) or wall-clock nanoseconds (native).
    pub cycles: u64,
    /// The algorithm's own solution digest (canonical where the algorithm
    /// defines one, so equal across variants for CC/MIS/MST/SCC/APSP).
    pub digest: u64,
    /// Per-launch simulator profile (empty for native runs).
    pub stats: RunStats,
    /// The solution, for verification.
    pub solution: Solution,
}

macro_rules! outcome {
    ($r:expr, $field:ident, $wrap:ident) => {{
        let r = $r;
        Outcome {
            cycles: r.cycles,
            digest: r.digest,
            stats: r.stats,
            solution: Solution::$wrap(r.$field),
        }
    }};
}

/// The graph a run of `alg` consumes: weighted algorithms get `weighted`
/// (the suite's canonical weights, synthesized once at set-up), the others
/// the plain graph — weights change the device memory layout, so the
/// unweighted codes must not see them.
pub fn input_for<'a>(alg: Algorithm, plain: &'a Csr, weighted: &'a Csr) -> &'a Csr {
    if alg.weighted() {
        weighted
    } else {
        plain
    }
}

/// `g` with the suite's canonical synthesized weights, unless it has some.
pub fn with_suite_weights(g: &Csr) -> Csr {
    if g.weights().is_some() {
        g.clone()
    } else {
        g.clone().with_random_weights(1_000, 0xec1)
    }
}

/// One simulator run on the fast (`NoHooks`) path: `{alg}::run_checked` on
/// a fresh `Gpu`, without verification.
pub fn sim_run(
    alg: Algorithm,
    variant: Variant,
    g: &Csr,
    cfg: &GpuConfig,
    seed: u64,
) -> Result<Outcome, SimError> {
    let o = &SimOptions::default();
    let (deferred, immediate) = (StoreVisibility::DeferUntilYield, StoreVisibility::Immediate);
    let bounded = StoreVisibility::DeferBounded {
        every: 2,
        eighths: 4,
    };
    use Algorithm as A;
    use Variant as V;
    Ok(match (alg, variant) {
        (A::Apsp, _) => outcome!(apsp::run_checked(g, cfg, seed, o)?, dist, Dist),
        (A::Cc, V::Baseline) => {
            outcome!(
                cc::run_checked::<Plain>(g, cfg, seed, deferred, o)?,
                labels,
                Labels
            )
        }
        (A::Cc, V::RaceFree) => {
            outcome!(
                cc::run_checked::<Atomic>(g, cfg, seed, immediate, o)?,
                labels,
                Labels
            )
        }
        (A::Gc, V::Baseline) => outcome!(
            gc::run_checked::<Volatile, Plain>(g, cfg, seed, deferred, o)?,
            colors,
            Labels
        ),
        (A::Gc, V::RaceFree) => outcome!(
            gc::run_checked::<Atomic, Atomic>(g, cfg, seed, immediate, o)?,
            colors,
            Labels
        ),
        (A::Mis, V::Baseline) => outcome!(
            mis::run_checked::<VolatileReadPlainWrite>(g, cfg, seed, bounded, o)?,
            in_set,
            Flags
        ),
        (A::Mis, V::RaceFree) => {
            outcome!(
                mis::run_checked::<Atomic>(g, cfg, seed, immediate, o)?,
                in_set,
                Flags
            )
        }
        (A::Mst, V::Baseline) => {
            outcome!(
                mst::run_checked::<Volatile>(g, cfg, seed, immediate, o)?,
                in_mst,
                Flags
            )
        }
        (A::Mst, V::RaceFree) => {
            outcome!(
                mst::run_checked::<Atomic>(g, cfg, seed, immediate, o)?,
                in_mst,
                Flags
            )
        }
        (A::Scc, V::Baseline) => {
            outcome!(
                scc::run_checked::<Plain>(g, cfg, seed, deferred, o)?,
                scc_ids,
                Labels
            )
        }
        (A::Scc, V::RaceFree) => {
            outcome!(
                scc::run_checked::<Atomic>(g, cfg, seed, immediate, o)?,
                scc_ids,
                Labels
            )
        }
    })
}

/// One simulator run on the hooked (`FullHooks`) path: `{alg}::run_traced`
/// on a fresh `Gpu` with access tracing enabled. Returns the device, whose
/// trace the race detector reads, and the solution.
pub fn traced_run(
    alg: Algorithm,
    variant: Variant,
    g: &Csr,
    cfg: &GpuConfig,
    seed: u64,
) -> (Gpu, Solution) {
    let mut gpu = SimOptions::default().make_gpu(cfg, seed);
    gpu.enable_tracing();
    let gpu_ref = &mut gpu;
    let (deferred, immediate) = (StoreVisibility::DeferUntilYield, StoreVisibility::Immediate);
    let bounded = StoreVisibility::DeferBounded {
        every: 2,
        eighths: 4,
    };
    use Algorithm as A;
    use Solution as S;
    use Variant as V;
    let solution = match (alg, variant) {
        (A::Apsp, _) => S::Dist(apsp::run_traced(gpu_ref, g)),
        (A::Cc, V::Baseline) => S::Labels(cc::run_traced::<Plain>(gpu_ref, g, deferred)),
        (A::Cc, V::RaceFree) => S::Labels(cc::run_traced::<Atomic>(gpu_ref, g, immediate)),
        (A::Gc, V::Baseline) => S::Labels(gc::run_traced::<Volatile, Plain>(gpu_ref, g, deferred)),
        (A::Gc, V::RaceFree) => S::Labels(gc::run_traced::<Atomic, Atomic>(gpu_ref, g, immediate)),
        (A::Mis, V::Baseline) => S::Flags(mis::run_traced::<VolatileReadPlainWrite>(
            gpu_ref, g, bounded,
        )),
        (A::Mis, V::RaceFree) => S::Flags(mis::run_traced::<Atomic>(gpu_ref, g, immediate)),
        (A::Mst, V::Baseline) => S::Flags(mst::run_traced::<Volatile>(gpu_ref, g, immediate)),
        (A::Mst, V::RaceFree) => S::Flags(mst::run_traced::<Atomic>(gpu_ref, g, immediate)),
        (A::Scc, V::Baseline) => S::Labels(scc::run_traced::<Plain>(gpu_ref, g, deferred)),
        (A::Scc, V::RaceFree) => S::Labels(scc::run_traced::<Atomic>(gpu_ref, g, immediate)),
    };
    (gpu, solution)
}

/// One native (host-thread) run: `{alg}::native::run` under the variant's
/// `ecl-native` policy, without verification.
pub fn native_run(alg: Algorithm, variant: Variant, g: &Csr, threads: usize, seed: u64) -> Outcome {
    match variant {
        Variant::Baseline => native_run_with::<NativeBaseline>(alg, g, threads, seed),
        Variant::RaceFree => native_run_with::<NativeRaceFree>(alg, g, threads, seed),
    }
}

fn native_run_with<P: NativePolicy>(alg: Algorithm, g: &Csr, threads: usize, seed: u64) -> Outcome {
    match alg {
        Algorithm::Apsp => outcome!(apsp::native::run::<P>(g, threads, seed), dist, Dist),
        Algorithm::Cc => outcome!(cc::native::run::<P>(g, threads, seed), labels, Labels),
        Algorithm::Gc => outcome!(gc::native::run::<P>(g, threads, seed), colors, Labels),
        Algorithm::Mis => outcome!(mis::native::run::<P>(g, threads, seed), in_set, Flags),
        Algorithm::Mst => outcome!(mst::native::run::<P>(g, threads, seed), in_mst, Flags),
        Algorithm::Scc => outcome!(scc::native::run::<P>(g, threads, seed), scc_ids, Labels),
    }
}

/// Whether baseline and race-free runs of `alg` must reach the same
/// solution digest (`tests/cross_variant.rs`): every code but GC, whose
/// colors depend on timing.
pub fn digest_is_variant_invariant(alg: Algorithm) -> bool {
    alg != Algorithm::Gc
}
