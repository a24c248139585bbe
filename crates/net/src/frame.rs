//! Length-prefixed framing over a TCP stream.
//!
//! Every frame is `u32` little-endian payload length followed by the
//! payload (a [`crate::wire`]-encoded message). A 64 MiB cap guards
//! against corrupted peers.
//!
//! Framing never flushes: the caller owns buffering and decides when its
//! bytes leave (the TCP host writes a whole pass per peer at once; the
//! control protocol flushes after each message).

use std::io::{self, Read, Write};

/// Maximum accepted frame payload (a full query response with thousands of
/// records stays far below this).
pub const MAX_FRAME: usize = 64 << 20;

/// Writes one frame into `w` without flushing it.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds cap",
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Fuzz entry point: decodes `data` as a frame stream, then re-encodes
/// every recovered frame and checks the round trip is lossless.
///
/// Pure and deterministic — the in-tree fuzz target
/// (`fuzz/fuzz_targets/frame_decode.rs`) and the CI smoke run both drive
/// this function; keeping it in the library means corpus crashes replay
/// as ordinary unit-test calls. Panics only on an invariant violation,
/// never on malformed input.
pub fn fuzz_frame_decode(data: &[u8]) {
    let mut r = io::Cursor::new(data);
    let mut frames = Vec::new();
    // Clean EOF or malformed input both end the stream; malformed input
    // must be an error, never a panic.
    while let Ok(Some(payload)) = read_frame(&mut r) {
        assert!(payload.len() <= MAX_FRAME, "decoded frame exceeds cap");
        frames.push(payload);
    }
    let mut buf = Vec::new();
    for payload in &frames {
        if write_frame(&mut buf, payload).is_err() {
            unreachable!("a decoded frame is always re-encodable");
        }
    }
    let mut r2 = io::Cursor::new(&buf[..]);
    for payload in &frames {
        match read_frame(&mut r2) {
            Ok(Some(back)) => assert_eq!(&back, payload, "round trip altered a frame"),
            other => panic!("round trip lost a frame: {other:?}"),
        }
    }
    assert!(
        matches!(read_frame(&mut r2), Ok(None)),
        "round trip appended trailing bytes"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 1000]).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), vec![7u8; 1000]);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn truncated_payload_is_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn fuzz_entry_survives_adversarial_streams() {
        // Valid stream, empty input, bare length prefix, truncated payload,
        // oversized prefix, and garbage — none of these may panic.
        let mut valid = Vec::new();
        write_frame(&mut valid, b"hello").unwrap();
        write_frame(&mut valid, b"").unwrap();
        fuzz_frame_decode(&valid);
        fuzz_frame_decode(&[]);
        fuzz_frame_decode(&5u32.to_le_bytes());
        fuzz_frame_decode(&[5, 0, 0, 0, b'x']);
        fuzz_frame_decode(&u32::MAX.to_le_bytes());
        fuzz_frame_decode(&[0xFF; 37]);
        // Valid frames followed by trailing garbage still round-trip the
        // decoded prefix.
        valid.extend_from_slice(&[9, 9, 9]);
        fuzz_frame_decode(&valid);
    }
}
