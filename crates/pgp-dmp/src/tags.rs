//! The message-tag protocol: every named tag constant in the workspace.
//!
//! This module is the single source of truth for tag numbering (ISSUE 6).
//! Tags are `u64`s with a block structure: [`Comm::fresh_tag_block`] hands
//! out group-wide-agreed blocks of [`BLOCK_SPAN`] tags starting at
//! [`COLLECTIVE_TAG_BASE`], and callers add one of the *offsets* below to
//! name the operation within their block. Offsets come in two disjoint
//! ranges:
//!
//! * **Collective op codes** (`OP_*`, bits 8..16): added by the
//!   `collectives` module. The low byte is the caller's round counter, so
//!   an op code must leave bits 0..8 free.
//! * **User-level offsets** (bits 0..8, no round structure): added by
//!   higher-level endpoints (ghost exchange, KaFFPaE's ring exchange). They must
//!   stay below `1 << 8` so they can never alias a collective op code.
//!
//! Each constant documents the *payload type* that travels on its tags.
//! That contract is checked on every message: each payload is the sent
//! value behind its type name, and when the receiver's downcast fails the
//! runtime `unpack` panic names the expected and actual types together
//! with the offset constant via [`describe`].
//! The layout itself (user offsets below the op range, distinct op codes)
//! is pinned by this module's unit tests.
//!
//! [`Comm::fresh_tag_block`]: crate::comm::Comm::fresh_tag_block

use crate::comm::Tag;

/// Tags below this bound are free for ad-hoc user messages (tests use
/// small literals). Tag *blocks* handed out by
/// [`crate::comm::Comm::fresh_tag_block`] start here; a user-level literal
/// at or above this bound would collide with a collective block.
pub const COLLECTIVE_TAG_BASE: Tag = 1 << 48;

/// Width of one tag block from
/// [`crate::comm::Comm::fresh_tag_block`]: offsets within a block must
/// stay below this span.
pub const BLOCK_SPAN: Tag = 1 << 16;

// ---------------------------------------------------------------------------
// Collective op codes (bits 8..16). Diagnostic: the block number alone
// already guarantees uniqueness across calls, but the op code makes tags
// self-describing in traces, watchdog timeouts, and mismatch panics.
// ---------------------------------------------------------------------------

/// Dissemination barrier rounds. Payload: `()` per round; the low byte
/// carries the round number.
pub const OP_BARRIER: Tag = 1 << 8;

/// Binomial-tree broadcast. Payload: the broadcast value `T` (generic at
/// every call site).
pub const OP_BCAST: Tag = 2 << 8;

/// Binomial-tree reduction. Payload: a partial accumulator `T` (generic at
/// every call site).
pub const OP_REDUCE: Tag = 3 << 8;

/// Direct allgatherv. Payload: `Vec<T>` — the sender's whole vector, one
/// per (src, dst) pair (generic at every call site).
pub const OP_ALLGATHER: Tag = 5 << 8;

/// Direct gatherv to one root. Payload: `Vec<T>` — the sender's whole
/// vector, one per non-root PE (generic at every call site).
pub const OP_GATHER: Tag = 4 << 8;

/// Personalized all-to-all (alltoallv). Payload: `Vec<T>` — the vector
/// destined for the receiving PE (generic at every call site).
pub const OP_ALLTOALL: Tag = 6 << 8;

/// Ring exclusive prefix sum (exscan). Payload: `u64` — the running
/// prefix handed from rank r to r+1.
pub const OP_SCAN: Tag = 7 << 8;

// ---------------------------------------------------------------------------
// User-level offsets (bits 0..8). One constant per protocol endpoint.
// ---------------------------------------------------------------------------

/// Phase-overlapped ghost-label exchange (`exchange.rs`, §IV-A). Payload:
/// `Vec<(Node, Node)>` — `(global ID, new label)` updates for the
/// receiver's ghost copies. The bulk of a run's message bytes.
pub const GHOST_LABELS: Tag = 0x01;

/// KaFFPaE's ring exchange of best individuals (`pgp-evo`).
/// Payload: `(Weight, Vec<BlockId>)` — an individual's score and block
/// assignment.
pub const RUMOR: Tag = 0x52;

/// The symbolic name of a user-level or op-code offset, if it is one of
/// the constants above.
fn offset_name(offset: Tag) -> Option<&'static str> {
    // User-level offsets match exactly; op codes match on bits 8..16 (the
    // low byte is the caller's round counter).
    match offset {
        GHOST_LABELS => return Some("GHOST_LABELS"),
        RUMOR => return Some("RUMOR"),
        _ => {}
    }
    match offset & !0xFF {
        OP_BARRIER => Some("OP_BARRIER"),
        OP_BCAST => Some("OP_BCAST"),
        OP_REDUCE => Some("OP_REDUCE"),
        OP_ALLGATHER => Some("OP_ALLGATHER"),
        OP_GATHER => Some("OP_GATHER"),
        OP_ALLTOALL => Some("OP_ALLTOALL"),
        OP_SCAN => Some("OP_SCAN"),
        _ => None,
    }
}

/// Renders `tag` for diagnostics: the raw value plus, when the tag belongs
/// to a [`crate::comm::Comm::fresh_tag_block`] block, the block number and
/// the symbolic offset constant. Used by the `unpack` mismatch panic so a
/// protocol bug names its protocol entry.
///
/// ```
/// use pgp_dmp::tags;
/// assert_eq!(tags::describe(7), "tag 7 (ad-hoc user tag)");
/// let t = tags::COLLECTIVE_TAG_BASE + 3 * tags::BLOCK_SPAN + tags::OP_BCAST;
/// assert_eq!(tags::describe(t), format!("tag {t} (block 3 + OP_BCAST)"));
/// ```
pub fn describe(tag: Tag) -> String {
    if tag < COLLECTIVE_TAG_BASE {
        return format!("tag {tag} (ad-hoc user tag)");
    }
    let block = (tag - COLLECTIVE_TAG_BASE) / BLOCK_SPAN;
    let offset = (tag - COLLECTIVE_TAG_BASE) % BLOCK_SPAN;
    match offset_name(offset) {
        Some(name) if offset & 0xFF != 0 && offset >= OP_BARRIER => {
            format!(
                "tag {tag} (block {block} + {name} round {round})",
                round = offset & 0xFF
            )
        }
        Some(name) => format!("tag {tag} (block {block} + {name})"),
        None if offset == 0 => format!("tag {tag} (block {block}, no offset)"),
        None => format!("tag {tag} (block {block} + unknown offset {offset:#x})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_offsets_stay_below_the_op_range() {
        let user = [GHOST_LABELS, RUMOR];
        for (i, &off) in user.iter().enumerate() {
            assert!(off < 1 << 8, "user offset {off:#x} aliases an op code");
            for &other in &user[i + 1..] {
                assert_ne!(off, other, "two user endpoints share offset {off:#x}");
            }
        }
    }

    #[test]
    fn op_codes_are_distinct_and_leave_the_round_byte_free() {
        let ops = [
            OP_BARRIER,
            OP_BCAST,
            OP_REDUCE,
            OP_ALLGATHER,
            OP_GATHER,
            OP_ALLTOALL,
            OP_SCAN,
        ];
        for (i, &a) in ops.iter().enumerate() {
            assert_eq!(a & 0xFF, 0, "op code {a:#x} intrudes on the round byte");
            assert!(a < BLOCK_SPAN, "op code {a:#x} escapes its block");
            for &b in &ops[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn describe_names_every_offset_family() {
        assert_eq!(describe(42), "tag 42 (ad-hoc user tag)");
        let base = COLLECTIVE_TAG_BASE;
        assert_eq!(
            describe(base + GHOST_LABELS),
            format!("tag {} (block 0 + GHOST_LABELS)", base + GHOST_LABELS)
        );
        assert_eq!(
            describe(base + 5 * BLOCK_SPAN + RUMOR),
            format!("tag {} (block 5 + RUMOR)", base + 5 * BLOCK_SPAN + RUMOR)
        );
        let barrier_r2 = base + OP_BARRIER + 2;
        assert_eq!(
            describe(barrier_r2),
            format!("tag {barrier_r2} (block 0 + OP_BARRIER round 2)")
        );
        assert_eq!(
            describe(base + BLOCK_SPAN),
            format!("tag {} (block 1, no offset)", base + BLOCK_SPAN)
        );
        assert!(describe(base + 0x7F).contains("unknown offset"));
    }
}
