//! The append-only write-ahead journal.
//!
//! One journal file holds a sequence of [`frame`](crate::frame)-encoded
//! [`State`] records. Appends are buffered and flushed to the OS per
//! record (no per-record fsync — a crash may lose the very last frames,
//! and recovery's torn-tail tolerance absorbs exactly that). The fsync
//! before each snapshot is made by the snapshot writer, through
//! [`Journal::sync_handle`]. Opening a journal for appending first
//! *repairs* it: the file is truncated back to the last clean frame
//! boundary so new frames never land after garbage.

use crate::frame;
use crate::state::State;
use crate::PersistError;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// What a journal file contained when scanned.
#[derive(Debug)]
pub struct JournalScan {
    /// Decoded records up to the first bad frame.
    pub records: Vec<State>,
    /// Bytes of valid frames (the repair truncation point).
    pub valid_len: u64,
    /// True if a torn/corrupt tail was present (and ignored).
    pub torn_tail: bool,
}

/// An open, appendable write-ahead journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    writer: BufWriter<File>,
}

impl Journal {
    /// Create a fresh journal, truncating any existing file.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(Journal {
            path,
            writer: BufWriter::new(file),
        })
    }

    /// Open an existing journal (or create an empty one) for appending,
    /// repairing a torn tail first so appends start at a clean frame
    /// boundary. Returns the journal and the records it already held.
    pub fn open_append(path: impl AsRef<Path>) -> Result<(Self, JournalScan), PersistError> {
        let path = path.as_ref().to_path_buf();
        let scan = Self::scan(&path)?;
        if scan.torn_tail {
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(scan.valid_len)?;
            file.sync_all()?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok((
            Journal {
                path,
                writer: BufWriter::new(file),
            },
            scan,
        ))
    }

    /// Scan a journal file without opening it for writes. A missing file
    /// reads as an empty journal.
    pub fn scan(path: impl AsRef<Path>) -> Result<JournalScan, PersistError> {
        let bytes = match std::fs::read(path.as_ref()) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(PersistError::Io(e)),
        };
        let scanned = frame::scan(&bytes);
        let mut records = Vec::with_capacity(scanned.payloads.len());
        let mut valid_len = 0u64;
        let mut decode_failed = false;
        let mut pos = 0u64;
        for payload in &scanned.payloads {
            pos += (frame::HEADER_LEN + payload.len()) as u64;
            match State::decode(payload) {
                Ok(state) => {
                    records.push(state);
                    valid_len = pos;
                }
                Err(_) => {
                    // A frame whose checksum passes but whose payload is
                    // not a State value: treat it (and everything after)
                    // as the torn tail.
                    decode_failed = true;
                    break;
                }
            }
        }
        let torn_tail = scanned.torn_tail || decode_failed;
        Ok(JournalScan {
            records,
            valid_len,
            torn_tail,
        })
    }

    /// Append one record. Buffered + flushed; durability against power
    /// loss comes from the periodic snapshots, not per-record fsync.
    pub fn append(&mut self, record: &State) -> Result<(), PersistError> {
        let payload = record.encode();
        let mut framed = Vec::with_capacity(frame::HEADER_LEN + payload.len());
        frame::write_frame(&mut framed, &payload);
        self.writer.write_all(&framed)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Flush buffered frames to the OS and return a second handle on the
    /// file, so a snapshot writer on another thread can fsync them.
    pub fn sync_handle(&mut self) -> Result<File, PersistError> {
        self.writer.flush()?;
        Ok(self.writer.get_ref().try_clone()?)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("persist-journal-{}-{name}", std::process::id()))
    }

    #[test]
    fn append_then_scan_roundtrips() {
        let path = temp_path("roundtrip.wal");
        let mut j = Journal::create(&path).unwrap();
        for i in 0..5u64 {
            j.append(&State::map().with("iteration", State::U64(i)))
                .unwrap();
        }
        drop(j);
        let scan = Journal::scan(&path).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert!(!scan.torn_tail);
        assert_eq!(scan.records[3].field_u64("iteration").unwrap(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_append_repairs_torn_tail_and_continues() {
        let path = temp_path("repair.wal");
        let mut j = Journal::create(&path).unwrap();
        j.append(&State::U64(1)).unwrap();
        j.append(&State::U64(2)).unwrap();
        drop(j);
        // Simulate a crash mid-append: garbage half-frame at the tail.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x10, 0x00, 0x00, 0x00, 0xDE, 0xAD]).unwrap();
        }
        let (mut j, scan) = Journal::open_append(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(scan.torn_tail);
        j.append(&State::U64(3)).unwrap();
        drop(j);
        let healed = Journal::scan(&path).unwrap();
        assert_eq!(
            healed.records,
            vec![State::U64(1), State::U64(2), State::U64(3)]
        );
        assert!(!healed.torn_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_scans_empty() {
        let scan = Journal::scan(temp_path("never-created.wal")).unwrap();
        assert!(scan.records.is_empty());
        assert!(!scan.torn_tail);
    }

    #[test]
    fn valid_frame_with_non_state_payload_is_a_torn_tail() {
        let path = temp_path("badpayload.wal");
        let mut bytes = Vec::new();
        frame::write_frame(&mut bytes, &State::U64(9).encode());
        frame::write_frame(&mut bytes, &[0xFF, 0xFF]); // checksums fine, not a State
        std::fs::write(&path, &bytes).unwrap();
        let scan = Journal::scan(&path).unwrap();
        assert_eq!(scan.records, vec![State::U64(9)]);
        assert!(scan.torn_tail);
        std::fs::remove_file(&path).unwrap();
    }
}
