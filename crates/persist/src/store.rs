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
//!
//! Who writes: a snapshot is sealed and written on a writer thread, one
//! thread per snapshot, so the caller's loop goes on while the bytes
//! reach the disk. [`CheckpointStore::write_snapshot_fields`] flushes
//! the journal's buffer, hands the image off and returns; the writer
//! then patches the field count and CRC ([`Fields::finish`]), fsyncs the
//! journal, writes the `.tmp`, fsyncs it, renames it into place, fsyncs
//! the directory and prunes to [`KEEP_SNAPSHOTS`] — in that order, so a
//! snapshot never claims more progress than the journal can prove. At
//! most one write is in flight: a hand-off first joins the previous one.
//! [`CheckpointStore::wait`] joins the write in flight and returns its
//! result, so a failed write is reported at the next snapshot or wait,
//! never lost. [`CheckpointStore::write_snapshot`], `start_fresh` and
//! `recover` wait before returning or starting; dropping the store
//! waits too and discards the result.

use crate::journal::Journal;
use crate::snapshot::{self, Fields, Image};
use crate::state::State;
use crate::PersistError;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

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
    /// The snapshot write in flight, if any.
    writer: Option<JoinHandle<Result<(), PersistError>>>,
}

fn snapshot_path(dir: &Path, iteration: u64) -> PathBuf {
    dir.join(format!("snap-{iteration:08}.ckpt"))
}

/// Files named `snap-<iteration>.<extension>` in `dir`, sorted oldest →
/// newest by iteration.
fn files_with(dir: &Path, extension: &str) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
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

/// The writer thread's work for one snapshot: seal the image, fsync the
/// journal, write the file atomically and prune old snapshots.
fn write_sealed(
    dir: &Path,
    iteration: u64,
    journal: Option<File>,
    image: impl FnOnce() -> Image,
) -> Result<(), PersistError> {
    let image = image();
    if let Some(journal) = journal {
        journal.sync_all()?;
    }
    snapshot::write_image(&snapshot_path(dir, iteration), &image)?;
    let files = files_with(dir, "ckpt")?;
    if files.len() > KEEP_SNAPSHOTS {
        for (_, path) in &files[..files.len() - KEEP_SNAPSHOTS] {
            std::fs::remove_file(path)?;
        }
    }
    Ok(())
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory. No journal is
    /// opened yet: call [`CheckpointStore::start_fresh`] or
    /// [`CheckpointStore::recover`] first.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            journal: None,
            writer: None,
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    /// Snapshot files present, sorted oldest → newest by iteration.
    fn snapshot_files(&self) -> Result<Vec<(u64, PathBuf)>, PersistError> {
        files_with(&self.dir, "ckpt")
    }

    /// Delete the `.tmp` files of snapshot writes that were cut short.
    fn remove_torn_snapshots(&self) -> Result<(), PersistError> {
        for (_, path) in files_with(&self.dir, "tmp")? {
            std::fs::remove_file(&path)?;
        }
        Ok(())
    }

    /// Wipe any previous session's artifacts and start an empty journal.
    pub fn start_fresh(&mut self) -> Result<(), PersistError> {
        self.wait()?;
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
        self.wait()?;
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

    /// Write `state` as the atomic snapshot for `iteration`, durable on
    /// return: a hand-off (see [`CheckpointStore::write_snapshot_fields`])
    /// followed by [`CheckpointStore::wait`].
    pub fn write_snapshot(&mut self, iteration: u64, state: &State) -> Result<(), PersistError> {
        let image = Image::of(state);
        self.hand_off(iteration, move || image)?;
        self.wait()
    }

    /// Hand the snapshot for `iteration` to a writer thread and return.
    /// The writer seals `fields`, fsyncs the journal, writes the file
    /// atomically and prunes old snapshots down to [`KEEP_SNAPSHOTS`];
    /// [`CheckpointStore::wait`] returns how that went. A write still in
    /// flight is joined first, and its error, if any, is returned
    /// instead of starting this one.
    pub fn write_snapshot_fields(
        &mut self,
        iteration: u64,
        fields: Fields,
    ) -> Result<(), PersistError> {
        self.hand_off(iteration, move || fields.finish())
    }

    fn hand_off(
        &mut self,
        iteration: u64,
        image: impl FnOnce() -> Image + Send + 'static,
    ) -> Result<(), PersistError> {
        self.wait()?;
        // Appends flush per record, so the writer's handle sees every
        // frame appended so far; its fsync covers them.
        let journal = match self.journal.as_mut() {
            Some(journal) => Some(journal.sync_handle()?),
            None => None,
        };
        let dir = self.dir.clone();
        let writer = std::thread::Builder::new()
            .name("snapshot-writer".into())
            .spawn(move || write_sealed(&dir, iteration, journal, image))?;
        self.writer = Some(writer);
        Ok(())
    }

    /// Join the snapshot write in flight, if any, and return its result.
    /// A writer that panicked is reported as an I/O error.
    pub fn wait(&mut self) -> Result<(), PersistError> {
        match self.writer.take() {
            None => Ok(()),
            Some(writer) => writer.join().unwrap_or_else(|_| {
                Err(PersistError::Io(std::io::Error::other(
                    "snapshot writer panicked",
                )))
            }),
        }
    }
}

impl Drop for CheckpointStore {
    /// Joins the write in flight, so no write outlives the store; the
    /// result has nowhere to go and is discarded.
    fn drop(&mut self) {
        let _ = self.wait();
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

    fn fields(i: u64) -> Fields {
        let mut fields = Fields::new();
        fields.state("iteration", &State::U64(i));
        fields
    }

    #[test]
    fn a_failed_write_is_reported_by_wait_and_stops_the_next_hand_off() {
        let dir = temp_dir("squat");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.start_fresh().unwrap();
        // A directory squatting on the `.tmp` name fails the writer's
        // create, after the hand-off has returned.
        let squatter = dir.join("snap-00000002.tmp");
        std::fs::create_dir(&squatter).unwrap();
        store.write_snapshot_fields(2, fields(2)).unwrap();
        assert!(matches!(store.wait(), Err(PersistError::Io(_))));
        assert!(store.wait().is_ok(), "a joined write is reported once");

        // Not waited for, the failure surfaces at the next hand-off,
        // which then writes nothing.
        store.write_snapshot_fields(2, fields(2)).unwrap();
        assert!(matches!(
            store.write_snapshot_fields(3, fields(3)),
            Err(PersistError::Io(_))
        ));
        assert!(store.wait().is_ok());
        assert!(store.snapshot_files().unwrap().is_empty());

        std::fs::remove_dir(&squatter).unwrap();
        store.write_snapshot_fields(3, fields(3)).unwrap();
        store.wait().unwrap();
        let written: Vec<u64> = store
            .snapshot_files()
            .unwrap()
            .iter()
            .map(|(i, _)| *i)
            .collect();
        assert_eq!(written, vec![3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropping_the_store_finishes_the_write_in_flight() {
        let dir = temp_dir("drop");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.start_fresh().unwrap();
        store.append(&record(0)).unwrap();
        store.write_snapshot_fields(1, fields(1)).unwrap();
        drop(store);
        assert_eq!(
            snapshot::load(&snapshot_path(&dir, 1)).unwrap(),
            State::map().with("iteration", State::U64(1))
        );
        assert!(files_with(&dir, "tmp").unwrap().is_empty());
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
