//! The byte-level framing shared by every TCP peer in the workspace:
//! length prefix, payload, FNV-1a checksum.
//!
//! ```text
//! plen    u32 LE   payload length in bytes
//! payload          (wire v3 request/response, or a v4 session frame)
//! fnv1a   u64 LE   checksum of the length prefix + payload
//! ```
//!
//! This lived in `pprl-server::wire` through wire v3; it moved down
//! here when the session layer arrived, because the authenticated
//! record layer and the plaintext protocol share exactly this frame
//! format — a v4 `HELLO` travels in the same envelope as a v3 `STATS`.
//! `pprl-server::wire` re-exports everything in this module, so
//! existing imports keep compiling.
//!
//! The FNV-1a absorb step is a bijection on `u64` for every fixed
//! byte, so any single flipped byte changes the checksum; the explicit
//! length prefix turns every truncation into a detectable short read.
//! The checksum detects *accidents* only — an adversary can recompute
//! it. Tamper resistance is the session layer's per-frame HMAC (see
//! [`crate::channel::SecureChannel`]), which is why the checksum
//! comparison below still uses [`pprl_crypto::sha::ct_eq`]: it costs
//! nothing and keeps every frame-compare in the workspace on the
//! constant-time path.

use pprl_core::error::{PprlError, Result};
use pprl_crypto::sha::ct_eq;
use std::io::{Read, Write};

/// Hard cap on a frame payload (64 MiB): a garbled or hostile length
/// prefix must never make a peer allocate unbounded memory.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Cap on a handshake frame (4 KiB). HELLO, WELCOME, CONFIRM and ACCEPT
/// are a few hundred bytes at most, and a peer that has not yet
/// authenticated must not be able to make the other side allocate up
/// to [`MAX_PAYLOAD`] with a 4-byte length prefix.
pub const MAX_HANDSHAKE_PAYLOAD: usize = 4 << 10;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over `bytes` (same function as `pprl_index::format::fnv1a`;
/// duplicated here so the session layer does not depend on the store).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a computation from state `h` — lets the checksum
/// cover `prefix ‖ payload` without concatenating them into a scratch
/// allocation.
fn fnv1a_from(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn transport_err(msg: impl Into<String>) -> PprlError {
    PprlError::Transport(msg.into())
}

/// What one blocking read attempt on a session socket produced.
#[derive(Debug)]
pub enum Incoming {
    /// A complete, checksum-verified frame payload.
    Payload(Vec<u8>),
    /// The peer closed the connection before a new frame started.
    Eof,
    /// The socket read timed out between frames (the caller should check
    /// its shutdown flag and try again).
    TimedOut,
}

/// [`Incoming`] for the buffer-reusing read path: the payload stays in
/// the caller's buffer, so only its length travels here.
#[derive(Debug, Clone, Copy)]
pub enum IncomingLen {
    /// A checksum-verified payload of this many bytes now fills the
    /// front of the caller's buffer.
    Payload(usize),
    /// The peer closed the connection before a new frame started.
    Eof,
    /// The socket read timed out between frames.
    TimedOut,
}

/// Reads one frame payload from `r`, verifying length and checksum.
///
/// Timeouts and EOF *before the first byte of a frame* are session
/// conditions ([`Incoming::TimedOut`] / [`Incoming::Eof`]); anything that
/// cuts a frame in half — EOF mid-frame, a timeout after part of the
/// length prefix arrived, a bad checksum, an oversized length prefix —
/// is a typed [`PprlError::Transport`] error. The prefix is read with a
/// manual loop because `read_exact` discards how much it consumed: a
/// socket timeout that fires after 1–3 prefix bytes must NOT be
/// reported as retryable idle — the retry would start mid-prefix and
/// permanently desynchronize the stream.
pub fn read_payload(r: &mut impl Read) -> Result<Incoming> {
    read_payload_capped(r, MAX_PAYLOAD)
}

/// [`read_payload`] with a smaller payload cap, for frames read before
/// the peer has authenticated: a length prefix above `cap` is a typed
/// [`PprlError::Transport`] error before anything is allocated.
pub fn read_payload_capped(r: &mut impl Read, cap: usize) -> Result<Incoming> {
    let mut buf = Vec::new();
    match read_payload_into_capped(r, &mut buf, cap)? {
        IncomingLen::Payload(plen) => {
            buf.truncate(plen);
            Ok(Incoming::Payload(buf))
        }
        IncomingLen::Eof => Ok(Incoming::Eof),
        IncomingLen::TimedOut => Ok(Incoming::TimedOut),
    }
}

/// [`read_payload`] into a caller-owned buffer: after
/// `IncomingLen::Payload(plen)`, `buf[..plen]` holds the verified
/// payload. The buffer is resized but its capacity is retained across
/// calls, so a session loop that reuses one buffer reads frames without
/// allocating once the buffer has grown to the session's largest frame.
pub fn read_payload_into(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<IncomingLen> {
    read_payload_into_capped(r, buf, MAX_PAYLOAD)
}

/// [`read_payload_into`] rejecting payloads longer than `cap` (itself
/// at most [`MAX_PAYLOAD`]) before the buffer grows.
pub fn read_payload_into_capped(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
    cap: usize,
) -> Result<IncomingLen> {
    let cap = cap.min(MAX_PAYLOAD);
    let mut len_bytes = [0u8; 4];
    let mut got = 0usize;
    while got < len_bytes.len() {
        match r.read(&mut len_bytes[got..]) {
            Ok(0) if got == 0 => return Ok(IncomingLen::Eof),
            Ok(0) => {
                return Err(transport_err(format!(
                    "connection closed after {got} of 4 frame-length bytes"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if got == 0 {
                    return Ok(IncomingLen::TimedOut);
                }
                return Err(transport_err(format!(
                    "timed out after {got} of 4 frame-length bytes (peer stalled mid-frame)"
                )));
            }
            Err(e) => return Err(transport_err(format!("reading frame length: {e}"))),
        }
    }
    let plen = u32::from_le_bytes(len_bytes) as usize;
    if plen == 0 || plen > cap {
        return Err(transport_err(format!(
            "frame length {plen} outside (0, {cap}]"
        )));
    }
    buf.resize(plen + 8, 0);
    r.read_exact(buf)
        .map_err(|e| transport_err(format!("reading {plen}-byte frame: {e}")))?;
    // Checksum covers prefix ‖ payload; continue the fold rather than
    // concatenating them into a scratch buffer.
    let sum = fnv1a_from(fnv1a(&len_bytes), &buf[..plen]);
    if !ct_eq(&sum.to_le_bytes(), &buf[plen..]) {
        return Err(transport_err("frame checksum mismatch"));
    }
    Ok(IncomingLen::Payload(plen))
}

/// Writes one frame carrying `payload` to `w` and flushes.
pub fn write_payload(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let mut frame = Vec::with_capacity(payload.len() + 12);
    frame_begin(&mut frame);
    frame.extend_from_slice(payload);
    frame_finish(&mut frame)?;
    frame_send(w, &frame)
}

/// Starts building a frame in `buf` (clearing it): writes a placeholder
/// length prefix, after which the caller appends the payload bytes
/// directly. Together with [`frame_finish`] and [`frame_send`] this
/// lets a session loop assemble and send frames in one reused buffer —
/// no per-frame allocation, no payload copy.
pub fn frame_begin(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&[0u8; 4]);
}

/// Completes a frame started with [`frame_begin`]: patches the length
/// prefix over the payload appended since, validates its size, and
/// appends the checksum. `buf` then holds exactly one wire frame.
pub fn frame_finish(buf: &mut Vec<u8>) -> Result<()> {
    let plen = buf.len().saturating_sub(4);
    if plen == 0 || plen > MAX_PAYLOAD {
        return Err(transport_err(format!(
            "refusing to send frame of {plen} bytes"
        )));
    }
    buf[..4].copy_from_slice(&(plen as u32).to_le_bytes());
    let sum = fnv1a(buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    Ok(())
}

/// Writes a finished frame to `w` and flushes.
pub fn frame_send(w: &mut impl Write, frame: &[u8]) -> Result<()> {
    w.write_all(frame)
        .map_err(|e| transport_err(format!("writing frame: {e}")))?;
    w.flush()
        .map_err(|e| transport_err(format!("flushing frame: {e}")))
}

/// Wire version of the *plaintext* request/response protocol carried
/// inside session frames (and spoken bare by unauthenticated peers).
/// `pprl-server::wire` asserts its own constant equals this one.
pub const INNER_WIRE_VERSION: u8 = 3;

/// Opcode of the plaintext `Busy` response (`pprl-server::wire`). The
/// accept loop rejects overflow connections *before* any handshake, so
/// an authenticating client must recognise this one plaintext reply.
pub const INNER_OP_BUSY: u8 = 0x85;

/// Recognises a plaintext v3 `Busy {retry_after_ms}` payload without
/// depending on the server crate's decoder. Returns the retry hint.
pub fn parse_plain_busy(payload: &[u8]) -> Option<u32> {
    if payload.len() == 6 && payload[0] == INNER_WIRE_VERSION && payload[1] == INNER_OP_BUSY {
        Some(u32::from_le_bytes(payload[2..6].try_into().ok()?))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_payload(&mut buf, b"hello").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let Incoming::Payload(p) = read_payload(&mut cursor).unwrap() else {
            panic!("expected a payload");
        };
        assert_eq!(p, b"hello");
    }

    #[test]
    fn capped_read_rejects_a_max_payload_prefix_before_allocating() {
        // A bare 64 MiB length prefix, as an unauthenticated peer could
        // send it in place of a HELLO.
        let prefix = 0x0400_0000u32;
        assert_eq!(prefix as usize, MAX_PAYLOAD);
        let mut cursor = std::io::Cursor::new(prefix.to_le_bytes().to_vec());
        let mut buf = Vec::new();
        let err = read_payload_into_capped(&mut cursor, &mut buf, MAX_HANDSHAKE_PAYLOAD)
            .expect_err("a 64 MiB handshake frame must be refused");
        assert!(matches!(err, PprlError::Transport(_)), "{err}");
        assert!(err.to_string().contains("4096"), "{err}");
        assert!(
            buf.capacity() <= MAX_HANDSHAKE_PAYLOAD,
            "{}",
            buf.capacity()
        );
        let mut cursor = std::io::Cursor::new(prefix.to_le_bytes().to_vec());
        let err = read_payload_capped(&mut cursor, MAX_HANDSHAKE_PAYLOAD).unwrap_err();
        assert!(matches!(err, PprlError::Transport(_)), "{err}");
        // Frames within the cap still read.
        let mut frame = Vec::new();
        write_payload(&mut frame, &[7u8; MAX_HANDSHAKE_PAYLOAD]).unwrap();
        let mut cursor = std::io::Cursor::new(frame);
        let Incoming::Payload(p) = read_payload_capped(&mut cursor, MAX_HANDSHAKE_PAYLOAD).unwrap()
        else {
            panic!("expected a payload");
        };
        assert_eq!(p.len(), MAX_HANDSHAKE_PAYLOAD);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let mut buf = Vec::new();
        write_payload(&mut buf, b"some payload bytes").unwrap();
        for pos in 0..buf.len() {
            for delta in [0x01u8, 0x80] {
                let mut bad = buf.clone();
                bad[pos] ^= delta;
                let mut cursor = std::io::Cursor::new(bad);
                match read_payload(&mut cursor) {
                    Err(PprlError::Transport(_)) => {}
                    Ok(Incoming::Payload(_)) => panic!("byte {pos} delta {delta:#x} undetected"),
                    Ok(_) | Err(_) => {}
                }
            }
        }
    }

    #[test]
    fn truncations_rejected_eof_clean() {
        let mut buf = Vec::new();
        write_payload(&mut buf, b"x").unwrap();
        // Only a close *between* frames is a clean EOF; every cut that
        // leaves a partial frame — even a partial length prefix — is a
        // typed transport error.
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_payload(&mut empty).unwrap(), Incoming::Eof));
        for cut in 1..buf.len() {
            let mut cursor = std::io::Cursor::new(buf[..cut].to_vec());
            match read_payload(&mut cursor) {
                Err(PprlError::Transport(_)) => {}
                other => panic!("cut {cut}: {other:?}"),
            }
        }
    }

    /// Yields its bytes, then one `WouldBlock` (a socket read timeout),
    /// then EOF — the shape of a peer that stalls mid-write.
    struct TimeoutThen {
        data: Vec<u8>,
        pos: usize,
        fired: bool,
    }

    impl Read for TimeoutThen {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos < self.data.len() {
                let n = (self.data.len() - self.pos).min(buf.len());
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                return Ok(n);
            }
            if !self.fired {
                self.fired = true;
                return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
            }
            Ok(0)
        }
    }

    #[test]
    fn timeout_between_frames_idle_but_mid_prefix_is_error() {
        // No bytes yet: the timeout is an idle poll, retryable.
        let mut idle = TimeoutThen {
            data: Vec::new(),
            pos: 0,
            fired: false,
        };
        assert!(matches!(
            read_payload(&mut idle).unwrap(),
            Incoming::TimedOut
        ));
        // 2 of 4 length bytes consumed when the timeout fires: reporting
        // idle here would make the retry resume mid-prefix and
        // permanently desynchronize the stream, so it must be an error.
        let mut frame = Vec::new();
        write_payload(&mut frame, b"abc").unwrap();
        let mut stalled = TimeoutThen {
            data: frame[..2].to_vec(),
            pos: 0,
            fired: false,
        };
        match read_payload(&mut stalled) {
            Err(PprlError::Transport(msg)) => {
                assert!(msg.contains("2 of 4"), "{msg}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_and_oversized_lengths_rejected() {
        let mut zero = std::io::Cursor::new(vec![0u8; 12]);
        assert!(matches!(
            read_payload(&mut zero),
            Err(PprlError::Transport(_))
        ));
        let mut w = Vec::new();
        assert!(write_payload(&mut w, &[]).is_err());
    }

    #[test]
    fn plain_busy_recognised() {
        let mut payload = vec![INNER_WIRE_VERSION, INNER_OP_BUSY];
        payload.extend_from_slice(&75u32.to_le_bytes());
        assert_eq!(parse_plain_busy(&payload), Some(75));
        assert_eq!(parse_plain_busy(&[4, 0x41]), None);
        assert_eq!(parse_plain_busy(&payload[..5]), None);
    }
}
