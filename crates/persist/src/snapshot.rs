//! Atomic whole-state snapshots.
//!
//! File layout:
//!
//! ```text
//! [magic: 8 bytes "AHCKPT\x00\x01"] [crc32(body): u32 LE] [body: State]
//! ```
//!
//! The file's bytes are an [`Image`]: of a whole [`State`]
//! ([`Image::of`]), or of a map body assembled field by field from
//! values encoded now and bytes encoded earlier ([`Fields`]). An image
//! holds bytes encoded earlier as shared pieces, not copies, so building
//! one costs what is encoded now, and the bytes it shares stay alive as
//! long as it does. Every image is written by `write_image`. Writes
//! are atomic: the bytes go to a `.tmp` sibling, are fsynced, and the
//! file is renamed into place (rename is atomic on POSIX filesystems),
//! so a crash leaves either the old snapshot or the new one — never a
//! half-written file under the real name. Loads verify magic and
//! checksum and surface [`PersistError::Corrupt`] so callers can
//! quarantine the file and fall back to an older snapshot.

use crate::crc::{crc32, crc32_pieces};
use crate::state::State;
use crate::PersistError;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// Snapshot file magic: format name + version byte.
pub(crate) const MAGIC: &[u8; 8] = b"AHCKPT\x00\x01";

/// Bytes before the body: the magic, then the body's CRC.
const HEADER_LEN: usize = MAGIC.len() + 4;

/// Write buffer of [`write_image`]: it gathers an image's small pieces
/// into few `write` calls.
const WRITE_BUFFER: usize = 64 * 1024;

/// A run of an image's bytes after its head.
#[derive(Debug)]
enum Piece {
    /// Encoded for this image.
    Owned(Vec<u8>),
    /// Encoded earlier and shared with whoever keeps it for later images.
    Shared(Arc<[u8]>),
}

impl Piece {
    fn as_slice(&self) -> &[u8] {
        match self {
            Piece::Owned(bytes) => bytes,
            Piece::Shared(bytes) => bytes,
        }
    }
}

/// A whole snapshot file: the magic, the body's CRC, then the body, in
/// pieces. Only [`Image::of`] and [`Fields::finish`] make one, so the
/// CRC always matches.
#[derive(Debug)]
pub struct Image {
    /// The magic, the CRC slot, then the body's first bytes.
    head: Vec<u8>,
    /// The rest of the body, in order.
    rest: Vec<Piece>,
}

impl Image {
    /// The image of `state`, built in one exactly sized buffer: the body
    /// is encoded straight after a zeroed CRC slot, which is then
    /// patched in place.
    pub fn of(state: &State) -> Image {
        let mut head = Vec::with_capacity(HEADER_LEN + state.encoded_len());
        head.extend_from_slice(MAGIC);
        head.extend_from_slice(&[0; 4]);
        state.encode_into(&mut head);
        Image {
            head,
            rest: Vec::new(),
        }
        .seal()
    }

    /// Patch the CRC slot with the checksum of the body after it.
    fn seal(mut self) -> Image {
        let body =
            std::iter::once(&self.head[HEADER_LEN..]).chain(self.rest.iter().map(Piece::as_slice));
        let crc = crc32_pieces(body);
        self.head[MAGIC.len()..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        self
    }

    /// The file's bytes, piece by piece.
    fn pieces(&self) -> impl Iterator<Item = &[u8]> {
        std::iter::once(self.head.as_slice()).chain(self.rest.iter().map(Piece::as_slice))
    }

    /// The file's bytes, copied into one buffer.
    pub fn to_vec(&self) -> Vec<u8> {
        self.pieces().flatten().copied().collect()
    }
}

/// Images are equal when their files are, however they are cut into
/// pieces.
impl PartialEq for Image {
    fn eq(&self, other: &Image) -> bool {
        self.pieces().flatten().eq(other.pieces().flatten())
    }
}

impl Eq for Image {}

/// A snapshot whose body is a map, built one field at a time. A field
/// is either a [`State`] encoded now or bytes that were encoded earlier,
/// so a caller that keeps the encodings of a growing history shares
/// them instead of rebuilding and re-encoding a tree. The file is the
/// one [`Image::of`] writes for the equivalent [`State::Map`], byte for
/// byte: the field count and the CRC are patched in place by
/// [`Fields::finish`].
#[derive(Debug)]
pub struct Fields {
    image: Image,
    count: usize,
}

/// The value of one field added by [`Fields::encoded`]: bytes encoded
/// now, and bytes encoded earlier that the image shares, in order.
pub struct Value<'a>(&'a mut Image);

impl Value<'_> {
    /// Where bytes encoded now go.
    pub fn bytes(&mut self) -> &mut Vec<u8> {
        let image = &mut *self.0;
        if matches!(image.rest.last(), Some(Piece::Shared(_))) {
            image.rest.push(Piece::Owned(Vec::new()));
        }
        match image.rest.last_mut() {
            Some(Piece::Owned(bytes)) => bytes,
            _ => &mut image.head,
        }
    }

    /// Append `bytes`, encoded earlier, without copying them: the image
    /// holds a reference until it is dropped.
    pub fn shared(&mut self, bytes: &Arc<[u8]>) {
        self.0.rest.push(Piece::Shared(Arc::clone(bytes)));
    }
}

impl Fields {
    /// Start an empty map body.
    pub fn new() -> Fields {
        let mut head = Vec::new();
        head.extend_from_slice(MAGIC);
        head.extend_from_slice(&[0; 4]);
        State::encode_map_header(0, &mut head);
        Fields {
            image: Image {
                head,
                rest: Vec::new(),
            },
            count: 0,
        }
    }

    /// Add the field `key`, encoding `value` now.
    pub fn state(&mut self, key: &str, value: &State) {
        self.encoded(key, |out| value.encode_into(out.bytes()));
    }

    /// Add the field `key`, whose value `encode` appends already
    /// encoded: exactly one `State`'s encoding, which may be assembled
    /// from pieces (see [`State::encode_list_header`]) and may share
    /// bytes encoded earlier ([`Value::shared`]).
    pub fn encoded(&mut self, key: &str, encode: impl FnOnce(&mut Value<'_>)) {
        let mut value = Value(&mut self.image);
        State::encode_key(key, value.bytes());
        encode(&mut value);
        self.count += 1;
    }

    /// Patch the field count into the map header and seal the image.
    pub fn finish(mut self) -> Image {
        let mut header = Vec::with_capacity(5);
        State::encode_map_header(self.count, &mut header);
        self.image.head[HEADER_LEN..HEADER_LEN + header.len()].copy_from_slice(&header);
        self.image.seal()
    }
}

impl Default for Fields {
    fn default() -> Fields {
        Fields::new()
    }
}

/// Write `state` to `path` atomically (see `write_image`).
pub fn write(path: &Path, state: &State) -> Result<(), PersistError> {
    write_image(path, &Image::of(state))
}

/// Write `image` to `path` atomically: the bytes go to a `.tmp` sibling,
/// which is fsynced and then renamed into place, and the directory is
/// fsynced to persist the rename. Every snapshot file is written here.
pub(crate) fn write_image(path: &Path, image: &Image) -> Result<(), PersistError> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = BufWriter::with_capacity(WRITE_BUFFER, File::create(&tmp)?);
        for piece in image.pieces() {
            file.write_all(piece)?;
        }
        file.into_inner().map_err(|e| e.into_error())?.sync_all()?;
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
    fn a_body_built_field_by_field_is_the_image_of_its_map() {
        let record = |i: u64| State::map().with("iteration", State::U64(i));
        let records = [record(0), record(1), record(2)];
        let tree = State::map()
            .with("kind", State::Str("tune".into()))
            .with("empty_map", State::map())
            .with("records", State::List(records.to_vec()))
            .with("none", State::List(Vec::new()))
            .with("wips", State::F64(98.5));
        // `records` is assembled from a list header and the items'
        // earlier encodings; `none` is a pre-encoded empty list.
        let mut items = Vec::new();
        for r in &records {
            r.encode_into(&mut items);
        }
        let mut fields = Fields::new();
        fields.state("kind", &State::Str("tune".into()));
        fields.encoded("empty_map", |out| State::map().encode_into(out.bytes()));
        fields.encoded("records", |out| {
            State::encode_list_header(records.len(), out.bytes());
            out.shared(&Arc::from(&items[..5]));
            out.shared(&Arc::from(&items[5..]));
        });
        fields.encoded("none", |out| State::encode_list_header(0, out.bytes()));
        fields.state("wips", &State::F64(98.5));
        let image = fields.finish();
        assert_eq!(image, Image::of(&tree));
        assert_eq!(image.to_vec(), Image::of(&tree).to_vec());

        let path = temp_path("fields.ckpt");
        write_image(&path, &image).unwrap();
        assert_eq!(load(&path).unwrap(), tree);
        std::fs::remove_file(&path).unwrap();

        // No fields at all is the empty map.
        let empty = Fields::new().finish();
        assert_eq!(empty, Image::of(&State::map()));
        write_image(&path, &empty).unwrap();
        assert_eq!(load(&path).unwrap(), State::map());
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
