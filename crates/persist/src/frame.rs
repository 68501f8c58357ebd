//! Length-prefixed, checksummed journal frames.
//!
//! Wire layout of one frame:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! The reader walks frames front to back and stops at the first frame
//! that is incomplete (torn write at a crash) or fails its checksum —
//! everything before that point is trusted, everything after is
//! discarded. [`scan`] reports how many bytes of the buffer were valid
//! so the caller can truncate the file back to a clean frame boundary
//! before appending again.

use crate::crc::crc32;

/// Frame header size: length + checksum.
pub(crate) const HEADER_LEN: usize = 8;

/// Upper bound on a single frame payload (16 MiB) — a sanity check that
/// stops a corrupt length prefix from looking like a gigantic frame.
pub(crate) const MAX_PAYLOAD: usize = 16 << 20;

/// Append one frame wrapping `payload` to `out`.
pub(crate) fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The result of scanning a frame buffer.
#[derive(Debug)]
pub(crate) struct FrameScan {
    /// Payloads of all frames up to the first bad/incomplete one.
    pub(crate) payloads: Vec<Vec<u8>>,
    /// Whether trailing bytes past the last valid frame were discarded.
    pub(crate) torn_tail: bool,
}

/// Scan `bytes` for consecutive valid frames, tolerating a torn tail.
pub(crate) fn scan(bytes: &[u8]) -> FrameScan {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + HEADER_LEN) {
        let mut len_buf = [0u8; 4];
        len_buf.copy_from_slice(&header[..4]);
        let len = u32::from_le_bytes(len_buf) as usize;
        let mut crc_buf = [0u8; 4];
        crc_buf.copy_from_slice(&header[4..]);
        let expected_crc = u32::from_le_bytes(crc_buf);
        if len > MAX_PAYLOAD {
            break;
        }
        let Some(payload) = bytes.get(pos + HEADER_LEN..pos + HEADER_LEN + len) else {
            break;
        };
        if crc32(payload) != expected_crc {
            break;
        }
        payloads.push(payload.to_vec());
        pos += HEADER_LEN + len;
    }
    FrameScan {
        payloads,
        torn_tail: pos != bytes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes covered by the scanned frames: the clean boundary a journal
    /// truncates a torn tail to.
    fn valid_len(result: &FrameScan) -> u64 {
        result
            .payloads
            .iter()
            .map(|p| (HEADER_LEN + p.len()) as u64)
            .sum()
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first");
        write_frame(&mut buf, b"");
        write_frame(&mut buf, b"third frame");
        let result = scan(&buf);
        assert_eq!(
            result.payloads,
            vec![b"first".to_vec(), Vec::new(), b"third frame".to_vec()]
        );
        assert_eq!(valid_len(&result), buf.len() as u64);
        assert!(!result.torn_tail);
    }

    #[test]
    fn torn_tail_is_discarded_at_a_clean_boundary() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"kept");
        let clean = buf.len() as u64;
        // A torn write: header promises 100 bytes but only 3 arrived.
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(b"abc");
        let result = scan(&buf);
        assert_eq!(result.payloads, vec![b"kept".to_vec()]);
        assert_eq!(valid_len(&result), clean);
        assert!(result.torn_tail);
    }

    #[test]
    fn checksum_mismatch_stops_the_scan() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"good");
        let boundary = buf.len();
        write_frame(&mut buf, b"flipped");
        *buf.last_mut().unwrap() ^= 0xFF;
        let result = scan(&buf);
        assert_eq!(result.payloads.len(), 1);
        assert_eq!(valid_len(&result), boundary as u64);
        assert!(result.torn_tail);
    }

    #[test]
    fn absurd_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let result = scan(&buf);
        assert!(result.payloads.is_empty());
        assert_eq!(valid_len(&result), 0);
    }
}
