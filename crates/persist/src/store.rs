//! The on-disk checkpoint layout: snapshots + journal in one directory.
//!
//! ```text
//! <dir>/
//!   journal.wal            append-only per-iteration frames
//!   snap-00000040.ckpt     atomic snapshot taken after iteration 40
//!   snap-00000080.ckpt     ... the newest two snapshots are kept
//!   snap-00000120.ckpt.corrupt   quarantined (failed checksum on load)
//!   snap-00000160.tmp      a snapshot write cut short before its rename
//! ```
//!
//! Recovery policy: load the newest snapshot that passes its checksum —
//! corrupt ones are renamed aside (quarantined), never deleted and never
//! trusted — then replay the journal records that come after it. A torn
//! journal tail is truncated back to the last clean frame boundary. If
//! no snapshot survives, replay starts from the beginning of the
//! journal. A `.tmp` file is never trusted either: a snapshot is renamed
//! into place only after its fsync, so a `.tmp` is a write that was cut
//! short, and both recovery and a fresh start delete it.

use crate::journal::Journal;
use crate::snapshot::{self, Image};
use crate::state::State;
use crate::PersistError;
use std::path::{Path, PathBuf};

/// Journal file name inside a checkpoint directory.
pub const JOURNAL_FILE: &str = "journal.wal";

/// How many recent snapshots to keep on disk.
pub const KEEP_SNAPSHOTS: usize = 2;

/// What recovery found in a checkpoint directory.
#[derive(Debug)]
pub struct Recovery {
    /// Newest intact snapshot, as `(iteration, state)`.
    pub snapshot: Option<(u64, State)>,
    /// All valid journal records, oldest first (including ones already
    /// covered by the snapshot — the caller filters by iteration).
    pub journal: Vec<State>,
    /// Snapshot files that failed verification and were renamed aside.
    pub quarantined: Vec<PathBuf>,
    /// Whether the journal had a torn tail (now truncated away).
    pub torn_tail: bool,
}

/// A checkpoint directory opened for writing.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    journal: Option<Journal>,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory. No journal is
    /// opened yet: call [`CheckpointStore::start_fresh`] or
    /// [`CheckpointStore::recover`] first.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir, journal: None })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    fn snapshot_path(&self, iteration: u64) -> PathBuf {
        self.dir.join(format!("snap-{iteration:08}.ckpt"))
    }

    /// Files named `snap-<iteration>.<extension>`, sorted oldest →
    /// newest by iteration.
    fn files_with(&self, extension: &str) -> Result<Vec<(u64, PathBuf)>, PersistError> {
        let mut found = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(digits) = name
                .strip_prefix("snap-")
                .and_then(|rest| rest.strip_suffix(extension))
                .and_then(|rest| rest.strip_suffix('.'))
            {
                if let Ok(iteration) = digits.parse::<u64>() {
                    found.push((iteration, path));
                }
            }
        }
        found.sort_by_key(|(iteration, _)| *iteration);
        Ok(found)
    }

    /// Snapshot files present, sorted oldest → newest by iteration.
    fn snapshot_files(&self) -> Result<Vec<(u64, PathBuf)>, PersistError> {
        self.files_with("ckpt")
    }

    /// Delete the `.tmp` files of snapshot writes that were cut short.
    fn remove_torn_snapshots(&self) -> Result<(), PersistError> {
        for (_, path) in self.files_with("tmp")? {
            std::fs::remove_file(&path)?;
        }
        Ok(())
    }

    /// Wipe any previous session's artifacts and start an empty journal.
    pub fn start_fresh(&mut self) -> Result<(), PersistError> {
        self.remove_torn_snapshots()?;
        for (_, path) in self.snapshot_files()? {
            std::fs::remove_file(&path)?;
        }
        let journal_path = self.journal_path();
        if journal_path.exists() {
            std::fs::remove_file(&journal_path)?;
        }
        self.journal = Some(Journal::create(journal_path)?);
        Ok(())
    }

    /// Recover a previous session: pick the newest intact snapshot
    /// (quarantining corrupt ones), repair and reopen the journal for
    /// appending, and return everything found.
    pub fn recover(&mut self) -> Result<Recovery, PersistError> {
        self.remove_torn_snapshots()?;
        let mut snapshot_state = None;
        let mut quarantined = Vec::new();
        let mut files = self.snapshot_files()?;
        while let Some((iteration, path)) = files.pop() {
            match snapshot::load(&path) {
                Ok(state) => {
                    snapshot_state = Some((iteration, state));
                    break;
                }
                Err(PersistError::Corrupt(_)) | Err(PersistError::Schema(_)) => {
                    let aside = path.with_extension("ckpt.corrupt");
                    std::fs::rename(&path, &aside)?;
                    quarantined.push(aside);
                }
                Err(e) => return Err(e),
            }
        }
        let (journal, scan) = Journal::open_append(self.journal_path())?;
        self.journal = Some(journal);
        Ok(Recovery {
            snapshot: snapshot_state,
            journal: scan.records,
            quarantined,
            torn_tail: scan.torn_tail,
        })
    }

    /// Append one record to the journal.
    pub fn append(&mut self, record: &State) -> Result<(), PersistError> {
        match self.journal.as_mut() {
            Some(journal) => journal.append(record),
            None => Err(PersistError::Schema(
                "checkpoint store has no open journal (call start_fresh or recover)".into(),
            )),
        }
    }

    /// Write `state` as the atomic snapshot for `iteration` (see
    /// [`CheckpointStore::write_snapshot_image`]).
    pub fn write_snapshot(&mut self, iteration: u64, state: &State) -> Result<(), PersistError> {
        self.write_snapshot_image(iteration, &Image::of(state))
    }

    /// Write an atomic snapshot for `iteration` and prune old ones down
    /// to [`KEEP_SNAPSHOTS`]. The journal is fsynced first so a snapshot
    /// never claims more progress than the journal can prove.
    pub fn write_snapshot_image(
        &mut self,
        iteration: u64,
        image: &Image,
    ) -> Result<(), PersistError> {
        if let Some(journal) = self.journal.as_mut() {
            journal.sync()?;
        }
        snapshot::write_image(&self.snapshot_path(iteration), image)?;
        let files = self.snapshot_files()?;
        if files.len() > KEEP_SNAPSHOTS {
            for (_, path) in &files[..files.len() - KEEP_SNAPSHOTS] {
                std::fs::remove_file(path)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("persist-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(i: u64) -> State {
        State::map().with("iteration", State::U64(i))
    }

    #[test]
    fn fresh_session_then_recover_replays_everything() {
        let dir = temp_dir("fresh");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.start_fresh().unwrap();
        for i in 0..6 {
            store.append(&record(i)).unwrap();
            if (i + 1) % 3 == 0 {
                store.write_snapshot(i + 1, &State::U64(i + 1)).unwrap();
            }
        }
        drop(store);

        let mut store = CheckpointStore::open(&dir).unwrap();
        let rec = store.recover().unwrap();
        let (snap_iter, snap_state) = rec.snapshot.unwrap();
        assert_eq!(snap_iter, 6);
        assert_eq!(snap_state, State::U64(6));
        assert_eq!(rec.journal.len(), 6);
        assert!(rec.quarantined.is_empty());
        assert!(!rec.torn_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prunes_to_two_snapshots() {
        let dir = temp_dir("prune");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.start_fresh().unwrap();
        for i in 1..=5u64 {
            store.write_snapshot(i, &State::U64(i)).unwrap();
        }
        let names: Vec<_> = store.snapshot_files().unwrap();
        assert_eq!(
            names.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![4, 5]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_and_quarantines() {
        let dir = temp_dir("quarantine");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.start_fresh().unwrap();
        store.write_snapshot(2, &State::U64(2)).unwrap();
        store.write_snapshot(4, &State::U64(4)).unwrap();
        drop(store);
        // Flip a byte in the newest snapshot body.
        let newest = dir.join("snap-00000004.ckpt");
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();

        let mut store = CheckpointStore::open(&dir).unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.snapshot.unwrap(), (2, State::U64(2)));
        assert_eq!(rec.quarantined.len(), 1);
        assert!(rec.quarantined[0].to_string_lossy().ends_with(".corrupt"));
        assert!(!newest.exists(), "corrupt file renamed aside");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_snapshots_corrupt_means_journal_only_recovery() {
        let dir = temp_dir("allbad");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.start_fresh().unwrap();
        store.append(&record(0)).unwrap();
        store.write_snapshot(1, &State::U64(1)).unwrap();
        drop(store);
        let snap = dir.join("snap-00000001.ckpt");
        std::fs::write(&snap, b"AHCKPT\x00\x01garbage").unwrap();

        let mut store = CheckpointStore::open(&dir).unwrap();
        let rec = store.recover().unwrap();
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.journal.len(), 1);
        assert_eq!(rec.quarantined.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn start_fresh_wipes_previous_session() {
        let dir = temp_dir("wipe");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.start_fresh().unwrap();
        store.append(&record(0)).unwrap();
        store.write_snapshot(1, &State::U64(1)).unwrap();
        store.start_fresh().unwrap();
        let rec = store.recover().unwrap();
        assert!(rec.snapshot.is_none());
        assert!(rec.journal.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A snapshot write killed between its fsync and its rename.
    fn plant_torn_snapshot(dir: &Path) -> PathBuf {
        let tmp = dir.join("snap-00000006.tmp");
        std::fs::write(&tmp, b"AHCKPT\x00\x01half a snapshot").unwrap();
        tmp
    }

    #[test]
    fn recover_removes_a_torn_snapshot_write() {
        let dir = temp_dir("torn-recover");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.start_fresh().unwrap();
        store.write_snapshot(3, &State::U64(3)).unwrap();
        drop(store);
        let tmp = plant_torn_snapshot(&dir);
        let corrupt = dir.join("snap-00000001.ckpt.corrupt");
        std::fs::write(&corrupt, b"quarantined earlier").unwrap();

        let mut store = CheckpointStore::open(&dir).unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.snapshot.unwrap(), (3, State::U64(3)));
        assert!(!tmp.exists(), "a .tmp is never trusted and never kept");
        assert!(corrupt.exists(), "quarantined files are left alone");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn start_fresh_removes_a_torn_snapshot_write() {
        let dir = temp_dir("torn-fresh");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.start_fresh().unwrap();
        store.write_snapshot(3, &State::U64(3)).unwrap();
        let tmp = plant_torn_snapshot(&dir);
        let corrupt = dir.join("snap-00000001.ckpt.corrupt");
        std::fs::write(&corrupt, b"quarantined earlier").unwrap();

        store.start_fresh().unwrap();
        assert!(!tmp.exists(), "a fresh start wipes torn writes too");
        assert!(!dir.join("snap-00000003.ckpt").exists());
        assert!(corrupt.exists(), "quarantined files are left alone");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_without_journal_is_a_typed_error() {
        let dir = temp_dir("nojournal");
        let mut store = CheckpointStore::open(&dir).unwrap();
        assert!(matches!(
            store.append(&record(0)),
            Err(PersistError::Schema(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
