//! Atomic whole-state snapshots.
//!
//! File layout:
//!
//! ```text
//! [magic: 8 bytes "AHCKPT\x00\x01"] [crc32(body): u32 LE] [body: State]
//! ```
//!
//! Writes are atomic: the bytes go to a `.tmp` sibling, are fsynced,
//! and the file is renamed into place (rename is atomic on POSIX
//! filesystems), so a crash leaves either the old snapshot or the new
//! one — never a half-written file under the real name. Loads verify
//! magic and checksum and surface [`PersistError::Corrupt`] so callers
//! can quarantine the file and fall back to an older snapshot.

use crate::crc::crc32;
use crate::state::State;
use crate::PersistError;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// Snapshot file magic: format name + version byte.
pub const MAGIC: &[u8; 8] = b"AHCKPT\x00\x01";

/// Bytes before the body: the magic, then the body's CRC.
const HEADER_LEN: usize = MAGIC.len() + 4;

/// The whole file image for `state`, built in one exactly sized buffer:
/// the body is encoded straight after a zeroed CRC slot, which is then
/// patched in place.
fn image(state: &State) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + state.encoded_len());
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&[0; 4]);
    state.encode_into(&mut bytes);
    let crc = crc32(&bytes[HEADER_LEN..]);
    bytes[MAGIC.len()..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// Write `state` to `path` atomically (temp + fsync + rename).
pub fn write(path: &Path, state: &State) -> Result<(), PersistError> {
    let bytes = image(state);

    let tmp = path.with_extension("tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself (directory entry); best-effort on
    // filesystems that do not support directory fsync.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Load and verify a snapshot.
pub fn load(path: &Path) -> Result<State, PersistError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < HEADER_LEN {
        return Err(PersistError::Corrupt("snapshot file too short".into()));
    }
    let (magic, rest) = bytes.split_at(MAGIC.len());
    if magic != MAGIC {
        return Err(PersistError::Corrupt("bad snapshot magic".into()));
    }
    let (crc_bytes, body) = rest.split_at(4);
    let mut crc_buf = [0u8; 4];
    crc_buf.copy_from_slice(crc_bytes);
    let expected = u32::from_le_bytes(crc_buf);
    if crc32(body) != expected {
        return Err(PersistError::Corrupt("snapshot checksum mismatch".into()));
    }
    State::decode(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("persist-snap-{}-{name}", std::process::id()))
    }

    #[test]
    fn write_then_load_roundtrips() {
        let path = temp_path("ok.ckpt");
        let state = State::map()
            .with("iteration", State::U64(40))
            .with("best", State::F64(123.456));
        write(&path, &state).unwrap();
        assert_eq!(load(&path).unwrap(), state);
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp cleaned up by rename"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_layout_is_magic_then_body_crc_then_body() {
        let path = temp_path("layout.ckpt");
        let state = State::map()
            .with("kind", State::Str("tune".into()))
            .with("values", State::i64_list(&[3, -1, 4, 1, 5, 9, 2, 6]))
            .with("wips", State::F64(98.5))
            .with("pending", State::Null);
        write(&path, &state).unwrap();
        let body = state.encode();
        let mut expected = MAGIC.to_vec();
        expected.extend_from_slice(&crc32(&body).to_le_bytes());
        expected.extend_from_slice(&body);
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_is_detected() {
        let path = temp_path("flip.ckpt");
        write(&path, &State::map().with("v", State::U64(7))).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 3;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&path), Err(PersistError::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_and_bad_magic_are_corrupt() {
        let path = temp_path("short.ckpt");
        std::fs::write(&path, b"AHCK").unwrap();
        assert!(matches!(load(&path), Err(PersistError::Corrupt(_))));
        std::fs::write(&path, b"NOTMAGIC\x00\x00\x00\x00").unwrap();
        assert!(matches!(load(&path), Err(PersistError::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load(&temp_path("never.ckpt")),
            Err(PersistError::Io(_))
        ));
    }
}
