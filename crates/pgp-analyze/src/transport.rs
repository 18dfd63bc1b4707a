//! Rule family (e): transport confinement.
//!
//! `transport-confined` — a transport-layer internal (mailbox machinery,
//! socket endpoints, the frame codec, raw OS stream types) is named
//! outside the comm/transport layer.
//!
//! The comm substrate hides *how* messages move behind the `Comm`
//! send/recv/collective API: the thread backend's bucketed mailboxes and
//! the socket backend's framed streams are interchangeable precisely
//! because nothing outside `crates/pgp-dmp/src/comm.rs` and
//! `crates/pgp-dmp/src/transport/` can tell them apart (DESIGN.md §15).
//! An algorithm crate that names `Mailbox`, `SocketEndpoint`, or
//! `read_frame` has punched through that seam — the cross-backend golden
//! equivalence guarantee no longer covers it. This is the AST-level
//! counterpart of `xtask lint` rule 5, extended from mailbox internals to
//! the whole transport vocabulary including `std::os::unix::net` /
//! `std::net` stream types.
//!
//! Tests and benches are exempt (excluded by the shared pipeline): the
//! wire-codec property tests and the conformance harness exercise the
//! frame layer on purpose.

use crate::lexer::TokKind;
use crate::report::{Finding, RULE_TRANSPORT_CONFINED};
use crate::FileUnit;

/// The owning layer: the `Comm` facade plus every transport module
/// (thread mailboxes, socket mesh, frame codec).
/// Mirrors `MAILBOX_OWNER_FILES` in `xtask` rule 5.
const OWNER_FILE: &str = "crates/pgp-dmp/src/comm.rs";
const OWNER_DIR: &str = "crates/pgp-dmp/src/transport/";

/// Transport-internal identifiers and what each one is. Naming any of
/// these outside the owning layer is a confinement breach.
const CONFINED: &[(&str, &str)] = &[
    ("Mailbox", "thread-backend mailbox"),
    ("MailboxInner", "thread-backend mailbox state"),
    ("SrcState", "per-source mailbox bucket"),
    ("TagQueue", "per-tag mailbox queue"),
    ("Payload", "transport payload envelope"),
    ("RecvOutcome", "transport receive verdict"),
    ("ThreadTransport", "thread backend"),
    ("SocketEndpoint", "socket-backend endpoint"),
    ("SocketGroup", "socket-backend group"),
    ("SendLink", "socket-backend send link"),
    ("spawn_reader", "socket-backend reader thread"),
    ("Frame", "wire frame"),
    ("read_frame", "wire frame decoder"),
    ("write_frame", "wire frame encoder"),
    ("HEADER_BYTES", "wire frame header size"),
    ("CONTROL_TAG", "wire control channel tag"),
    ("UnixStream", "raw OS socket stream"),
    ("UnixListener", "raw OS socket listener"),
    ("TcpStream", "raw OS socket stream"),
    ("TcpListener", "raw OS socket listener"),
];

/// Runs the transport-confinement rule.
pub fn check(units: &[FileUnit]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for unit in units {
        if unit.rel == OWNER_FILE || unit.rel.starts_with(OWNER_DIR) {
            continue;
        }
        for t in &unit.lexed.toks {
            if t.kind != TokKind::Ident {
                continue;
            }
            if let Some((name, what)) = CONFINED.iter().find(|(n, _)| *n == t.text) {
                findings.push(Finding {
                    rule: RULE_TRANSPORT_CONFINED,
                    file: unit.rel.clone(),
                    line: t.line,
                    message: format!(
                        "`{name}` ({what}) is a transport-layer internal; only comm.rs \
                         and transport/ may name it — go through the Comm \
                         send/recv/collective API so the backend stays swappable"
                    ),
                });
            }
        }
    }
    findings
}
