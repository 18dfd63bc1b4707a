//! Glue for the `validate` feature: runs the `pgp-check` invariant
//! validators at phase boundaries and panics with the merged, PE-tagged
//! report on violation.
//!
//! Every function here is **collective** — all PEs reach the same call
//! sites because the pipeline is SPMD, and `pgp-check` allgathers the
//! verdict so the panic (or the pass) is symmetric across the group.
//! With the feature off these calls compile away entirely; they are also
//! skipped in release builds unless `debug_assertions` are on, so
//! benchmark binaries keep their timings.

use pgp_dmp::{Comm, DistGraph};
use pgp_graph::Node;

/// Whether validation should actually run (feature is on *and* this is a
/// debug build).
#[inline]
fn enabled() -> bool {
    cfg!(debug_assertions)
}

/// Panics if `g` violates any [`DistGraph`] structural invariant.
/// `context` names the phase boundary for the report.
pub fn assert_graph_valid(comm: &Comm, g: &DistGraph, context: &str) {
    if !enabled() {
        return;
    }
    if let Err(errs) = pgp_check::validate_dist_graph(comm, g) {
        panic!("invariant violation ({context}):\n{}", errs.join("\n"));
    }
}

/// Panics if `blocks` is not a well-formed `k`-way assignment over `g`
/// (range, ghost agreement, weight recount).
pub fn assert_partition_valid(
    comm: &Comm,
    g: &DistGraph,
    blocks: &[Node],
    k: usize,
    context: &str,
) {
    if !enabled() {
        return;
    }
    if let Err(errs) = pgp_check::validate_dist_partition(comm, g, blocks, k, None) {
        panic!(
            "partition invariant violation ({context}):\n{}",
            errs.join("\n")
        );
    }
}

/// Panics if the fine→coarse `mapping` is not surjective and
/// weight-preserving onto `coarse`.
pub fn assert_contraction_valid(
    comm: &Comm,
    fine: &DistGraph,
    coarse: &DistGraph,
    mapping: &[Node],
) {
    if !enabled() {
        return;
    }
    if let Err(errs) = pgp_check::validate_contraction(comm, fine, coarse, mapping) {
        panic!("contraction invariant violation:\n{}", errs.join("\n"));
    }
}
