//! Access contracts for every kernel in the suite, lowered from the kernels'
//! access-level IR.
//!
//! Each algorithm module describes its kernels once, as an
//! [`ecl_simt::KernelIr`]: per kernel, the complete list of accesses its
//! threads may issue — which buffers, at which [`ecl_simt::OpWidth`] and
//! [`ecl_simt::AccessMode`], under which index discipline. The `ir_*`
//! builders here capture the access *shapes* the
//! [`crate::primitives::AccessPolicy`] layer issues. Lowering
//! ([`ecl_simt::lower_all`]) turns that IR into the
//! [`ecl_simt::KernelContract`]s the tools consume: a policy's `write_byte`
//! lowers to a byte-wide store in the baselines but to a word-wide CAS loop
//! in the race-free conversion (paper Figs. 3–4), matching what the
//! simulator actually records.
//!
//! The contracts are consumed by two tools:
//!
//! - `ecl-analyze` checks them statically (race-freedom proof for the
//!   race-free variants, benign-race census for the baselines);
//! - [`ecl_simt::Gpu::install_contracts`] enforces them dynamically,
//!   failing any launch that touches memory outside its declaration.

use crate::primitives::AccessPolicy;
use crate::suite::{Algorithm, Variant};
use ecl_simt::BenignClass::{MonotonicUpdate, RePropagatedLostUpdate};
use ecl_simt::IndexDiscipline::{self, OwnedByGlobalId, OwnedRange};
use ecl_simt::{AccessOp, KernelContract, KernelIr, OpWidth};

pub use ecl_simt::AccessMode;
pub use ecl_simt::IndexDiscipline::Arbitrary;

/// Grid-stride ownership of 4-byte elements (non-chunked `ForEach`: item
/// index equals element index, so `element % num_threads == global_id`).
pub fn own4() -> IndexDiscipline {
    OwnedByGlobalId { elem_bytes: 4 }
}

/// Grid-stride ownership of 8-byte elements.
pub fn own8() -> IndexDiscipline {
    OwnedByGlobalId { elem_bytes: 8 }
}

/// Grid-stride ownership of single bytes.
pub fn own1() -> IndexDiscipline {
    OwnedByGlobalId { elem_bytes: 1 }
}

/// First-touch ownership of 4-byte elements (chunked or data-dependent
/// per-thread partitions).
pub fn claim4() -> IndexDiscipline {
    OwnedRange { elem_bytes: 4 }
}

/// First-touch ownership of 8-byte elements.
pub fn claim8() -> IndexDiscipline {
    OwnedRange { elem_bytes: 8 }
}

/// First-touch ownership of single bytes.
pub fn claim1() -> IndexDiscipline {
    OwnedRange { elem_bytes: 1 }
}

// ---------------------------------------------------------------------------
// IR op builders: the access shapes of the policy layer as
// `ecl_simt::AccessOp`s. Each algorithm module's `ir()` assembles its kernels
// from these; `for_algorithm` is the lowering of that IR, and the repair
// pass in `ecl-analyze` rewrites the IR's repairable ops. The lowered
// contracts are pinned by the golden file `tests/contracts.golden`.

/// IR ops for plain read-only loads of CSR structure arrays. Hard-coded
/// plain in the kernel bodies (never policy-mediated), hence fixed.
pub fn ir_csr_loads(buffers: &[&'static str]) -> Vec<AccessOp> {
    buffers
        .iter()
        .map(|b| AccessOp::load(b, OpWidth::B4, AccessMode::Plain, Arbitrary).fixed())
        .collect()
}

/// The IR op for `P::read_u32`.
pub fn ir_word_read<P: AccessPolicy>(
    buffer: &'static str,
    discipline: IndexDiscipline,
) -> AccessOp {
    AccessOp::load(buffer, OpWidth::B4, P::READ_MODE, discipline)
}

/// The IR op for `P::write_u32`.
pub fn ir_word_write<P: AccessPolicy>(
    buffer: &'static str,
    discipline: IndexDiscipline,
) -> AccessOp {
    AccessOp::store(buffer, OpWidth::B4, P::WRITE_MODE, discipline)
}

/// The IR op for `P::read_u64`.
pub fn ir_word64_read<P: AccessPolicy>(
    buffer: &'static str,
    discipline: IndexDiscipline,
) -> AccessOp {
    AccessOp::load(buffer, OpWidth::B8, P::READ_MODE, discipline)
}

/// The IR op for a device-scope atomic read-modify-write.
pub fn ir_atomic_rmw(buffer: &'static str) -> AccessOp {
    AccessOp::rmw(buffer)
}

/// The IR ops for [`crate::common::union_find_rep`] over `buffer`.
pub fn ir_union_find_rep<P: AccessPolicy>(buffer: &'static str) -> Vec<AccessOp> {
    vec![
        ir_word_read::<P>(buffer, Arbitrary).benign(RePropagatedLostUpdate),
        ir_word_write::<P>(buffer, Arbitrary).benign(RePropagatedLostUpdate),
    ]
}

/// The IR ops for [`crate::common::union_find_hook`] over `buffer`.
pub fn ir_union_find_hook<P: AccessPolicy>(buffer: &'static str) -> Vec<AccessOp> {
    let mut ops = ir_union_find_rep::<P>(buffer);
    ops.push(ir_atomic_rmw(buffer));
    ops
}

/// The IR op for `P::read_byte`: lowering widens an atomic-mode byte load
/// to the containing word (Fig. 3b), which is why the race-free contract
/// entries are `Arbitrary`.
pub fn ir_byte_read<P: AccessPolicy>(
    buffer: &'static str,
    discipline: IndexDiscipline,
) -> AccessOp {
    AccessOp::load(buffer, OpWidth::B1, P::READ_MODE, discipline)
}

/// The IR op for `P::write_byte`: lowering expands an atomic-mode byte
/// store to the word-wide `atomicAnd`/CAS-loop pair (Fig. 4b).
pub fn ir_byte_write<P: AccessPolicy>(
    buffer: &'static str,
    discipline: IndexDiscipline,
) -> AccessOp {
    AccessOp::store(buffer, OpWidth::B1, P::WRITE_MODE, discipline)
}

/// The IR op for `P::read_pair_first/second` (Fig. 5).
pub fn ir_pair_read<P: AccessPolicy>(
    buffer: &'static str,
    discipline: IndexDiscipline,
) -> AccessOp {
    AccessOp::load(buffer, OpWidth::Pair, P::READ_MODE, discipline)
}

/// The IR op for `P::max_pair_first/second`: the monotone half-word max.
pub fn ir_pair_max<P: AccessPolicy>(buffer: &'static str) -> AccessOp {
    AccessOp::update(buffer, OpWidth::Pair, P::WRITE_MODE).benign(MonotonicUpdate)
}

/// The IR op for `P::raise_flag`.
pub fn ir_flag_raise<P: AccessPolicy>(buffer: &'static str) -> AccessOp {
    AccessOp::flag(buffer, P::WRITE_MODE)
}

/// The full contract set for one algorithm × variant: the lowering of
/// [`ir_for_algorithm`], keyed on the canonical policy/visibility mapping the
/// suite and the race-detection tools use.
pub fn for_algorithm(algorithm: Algorithm, variant: Variant) -> Vec<KernelContract> {
    ecl_simt::lower_all(&ir_for_algorithm(algorithm, variant))
}

/// The access-level kernel IR for one algorithm × variant under the same
/// canonical policy mapping as [`for_algorithm`].
pub fn ir_for_algorithm(algorithm: Algorithm, variant: Variant) -> Vec<KernelIr> {
    let race_free = variant == Variant::RaceFree;
    match algorithm {
        Algorithm::Apsp => crate::apsp::ir(),
        Algorithm::Cc => crate::cc::ir(race_free),
        Algorithm::Gc => crate::gc::ir(race_free),
        Algorithm::Mis => crate::mis::ir(race_free),
        Algorithm::Mst => crate::mst::ir(race_free),
        Algorithm::Scc => crate::scc::ir(race_free),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One header line per kernel, then one indented line per entry.
    fn render_all_contracts() -> String {
        let mut out = String::new();
        for alg in Algorithm::ALL {
            for variant in [Variant::Baseline, Variant::RaceFree] {
                for contract in for_algorithm(alg, variant) {
                    out.push_str(&format!("{alg} {variant} {}\n", contract.kernel));
                    for entry in &contract.entries {
                        out.push_str(&format!("  {entry:?}\n"));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn lowered_contracts_match_golden() {
        // The drift guard for the IR: every kernel's lowered contract, entry
        // by entry and in order, against the set recorded in the golden file.
        // The repair pass trusts the lowering to emit contracts for
        // synthesized variants, so any change here must be deliberate.
        let actual = render_all_contracts();
        assert!(
            actual == include_str!("../tests/contracts.golden"),
            "lowered contracts diverged from tests/contracts.golden; actual rendering:\n{actual}"
        );
    }

    #[test]
    fn repairable_ops_are_exactly_the_policy_mediated_sites() {
        // An op is repairable iff its mode changes between the baseline and
        // race-free IRs (policy-mediated), or stays atomic (RMW). Fixed ops
        // must be mode-identical across variants.
        for alg in Algorithm::ALL {
            let base = ir_for_algorithm(alg, Variant::Baseline);
            let free = ir_for_algorithm(alg, Variant::RaceFree);
            assert_eq!(base.len(), free.len());
            for (b, f) in base.iter().zip(&free) {
                assert_eq!(b.kernel, f.kernel);
                assert_eq!(b.ops.len(), f.ops.len(), "{alg:?} {}", b.kernel);
                for (ob, of) in b.ops.iter().zip(&f.ops) {
                    assert_eq!(ob.buffer, of.buffer);
                    assert_eq!(ob.repairable, of.repairable);
                    if !ob.repairable {
                        assert_eq!(
                            ob.mode, of.mode,
                            "{alg:?} {}: fixed op on '{}' changes mode across variants",
                            b.kernel, ob.buffer
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_algorithm_variant_has_contracts() {
        for alg in Algorithm::ALL {
            for variant in [Variant::Baseline, Variant::RaceFree] {
                let contracts = for_algorithm(alg, variant);
                assert!(
                    !contracts.is_empty(),
                    "{alg:?} {variant:?} has no contracts"
                );
                for c in &contracts {
                    assert!(!c.entries.is_empty(), "{} has an empty contract", c.kernel);
                }
            }
        }
    }
}
