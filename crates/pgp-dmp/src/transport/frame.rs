//! Length-prefixed socket framing (DESIGN.md §15).
//!
//! Every message on a socket link travels as one frame:
//!
//! ```text
//! [u32 payload_len (LE)] [u64 tag (LE)] [u64 seq (LE)] [payload bytes]
//! ```
//!
//! `seq` is the per-`(src, dst, tag)` sequence number — the same counter
//! the PR 5 trace layer stamps on logical messages — assigned by the
//! sender's link and verified gapless by the receiver's reader thread, so
//! a reordering or loss bug in the transport is caught at the frame layer
//! rather than surfacing as a protocol-level type mismatch later.
//!
//! The reserved tag [`CONTROL_TAG`] carries link control payloads
//! ([`control`]): a one-byte kind followed by kind-specific data. `POISON`
//! broadcasts a structured [`CommError`](crate::CommError) to all peers.
//! An EOF outside group teardown is a dead peer and is mapped to
//! `CommError::PeerDead` by the reader.
//!
//! Reads go through [`read_frame`], which tolerates arbitrarily split
//! delivery (`Read::read_exact` loops over partial reads); the proptest
//! suite drives it with 1-byte chunked readers to prove it.

use crate::comm::Tag;
use std::io::{self, Read, Write};

/// Frame header size: `u32` length + `u64` tag + `u64` seq.
pub const HEADER_BYTES: usize = 20;

/// The reserved tag value carrying link-control payloads. Real tags can
/// never collide with it: user tags sit below `COLLECTIVE_TAG_BASE`
/// (2^48) and collective blocks grow upward from there far more slowly
/// than 2^64 exhausts.
pub const CONTROL_TAG: Tag = u64::MAX;

/// Control-payload kinds (first payload byte of a [`CONTROL_TAG`] frame).
pub mod control {
    /// A structured fault follows ([`CommError`](crate::CommError) wire
    /// encoding): the sender poisoned the group.
    pub const POISON: u8 = 0;
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Message tag ([`CONTROL_TAG`] for link control).
    pub tag: Tag,
    /// Per-`(src, dst, tag)` sequence number.
    pub seq: u64,
    /// Payload bytes (a packed message, or control data).
    pub payload: Vec<u8>,
}

/// Writes one frame. The payload is limited to `u32::MAX` bytes
/// (≈ 4 GiB) by the length prefix; the partition protocols stay orders of
/// magnitude below that.
///
/// # Panics
/// Panics if `payload` exceeds the `u32` length prefix.
pub fn write_frame(w: &mut impl Write, tag: Tag, seq: u64, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).expect("frame payload exceeds u32::MAX bytes");
    let mut buf = Vec::with_capacity(HEADER_BYTES + payload.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&tag.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(payload);
    // One write_all for the whole frame: the header and payload can still
    // be split arbitrarily by the kernel, but never interleaved with
    // another frame (each link's writer is mutex-serialized).
    w.write_all(&buf)
}

/// Reads one frame, blocking across partial delivery. Returns `Ok(None)`
/// on a clean EOF *at a frame boundary*; EOF inside a frame is an
/// `UnexpectedEof` error (a truncated peer write — an unclean death).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut header = [0u8; HEADER_BYTES];
    // Distinguish EOF-before-anything from EOF-mid-header: read the first
    // byte separately.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    header[0] = first[0];
    r.read_exact(&mut header[1..])?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let tag = Tag::from_le_bytes([
        header[4], header[5], header[6], header[7], header[8], header[9], header[10], header[11],
    ]);
    let seq = u64::from_le_bytes([
        header[12], header[13], header[14], header[15], header[16], header[17], header[18],
        header[19],
    ]);
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(Frame { tag, seq, payload }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out at most `chunk` bytes per call — models a
    /// socket delivering partial frames.
    struct Chunked<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = (self.data.len() - self.pos).min(self.chunk).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frames_roundtrip_under_split_reads() {
        let frames = [
            Frame {
                tag: 7,
                seq: 0,
                payload: b"hello".to_vec(),
            },
            Frame {
                tag: CONTROL_TAG,
                seq: 3,
                payload: vec![control::POISON],
            },
            Frame {
                tag: 1 << 48,
                seq: u64::MAX,
                payload: Vec::new(),
            },
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            write_frame(&mut bytes, f.tag, f.seq, &f.payload).expect("vec write");
        }
        for chunk in [1, 2, 3, 7, 64] {
            let mut r = Chunked {
                data: &bytes,
                pos: 0,
                chunk,
            };
            for f in &frames {
                assert_eq!(read_frame(&mut r).expect("read"), Some(f.clone()));
            }
            assert_eq!(read_frame(&mut r).expect("eof"), None);
        }
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, 9, 1, b"payload").expect("vec write");
        for cut in 1..bytes.len() {
            let mut r = &bytes[..cut];
            assert!(
                read_frame(&mut r).is_err(),
                "truncation at {cut} must be UnexpectedEof"
            );
        }
    }

    #[test]
    fn eof_at_boundary_is_clean() {
        let mut r: &[u8] = &[];
        assert_eq!(read_frame(&mut r).expect("clean eof"), None);
    }
}
