//! CRC-32 (IEEE 802.3 polynomial, reflected) for frame and snapshot
//! integrity checks.
//!
//! Slice-by-16: sixteen 256-entry tables, built at compile time, fold
//! sixteen input bytes per step with sixteen independent lookups instead
//! of a chain of sixteen dependent ones. Table `k` maps a byte to its CRC
//! contribution when `k` more zero bytes follow it, so table 0 is the
//! classic byte-at-a-time table, which also finishes the tail shorter
//! than one block. The values are the standard IEEE CRC-32 (zip, gzip,
//! Ethernet), so every journal frame and snapshot written by the
//! byte-at-a-time loop still verifies.

const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the main loop.
const SLICES: usize = 16;

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = build_tables();

/// CRC-32 of `bytes` (IEEE, as used by zip/gzip/Ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_pieces([bytes])
}

/// CRC-32 of the concatenation of `pieces`, which are never copied
/// into one buffer.
pub fn crc32_pieces<'a>(pieces: impl IntoIterator<Item = &'a [u8]>) -> u32 {
    !pieces.into_iter().fold(!0u32, update)
}

/// Fold `bytes` into the running (inverted) CRC `crc`.
fn update(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(SLICES);
    for b in &mut blocks {
        // The running CRC folds into the block's first four bytes; byte
        // `j` is followed by `SLICES - 1 - j` more, hence its table.
        let mut block = [0u8; SLICES];
        block.copy_from_slice(b);
        let head = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        block[..4].copy_from_slice(&head.to_le_bytes());
        crc = (0..SLICES).fold(0, |acc, j| acc ^ TABLES[SLICES - 1 - j][block[j] as usize]);
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop `crc32` replaced, kept as its oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE polynomial.
        for f in [crc32, crc32_bytewise] {
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b""), 0);
            assert_eq!(f(b"a"), 0xE8B7_BE43);
            assert_eq!(
                f(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
    }

    #[test]
    fn matches_bytewise_oracle() {
        // Deterministic pseudo-random bytes (Fibonacci hashing).
        let data: Vec<u8> = (0..1u32 << 20)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        // Every length 0..=64 at every offset within one block.
        for offset in 0..SLICES {
            for len in 0..=64 {
                let slice = &data[offset..offset + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "{offset}+{len}");
            }
        }
        // One mebibyte, aligned and not.
        assert_eq!(crc32(&data), crc32_bytewise(&data));
        assert_eq!(crc32(&data[3..]), crc32_bytewise(&data[3..]));
    }

    #[test]
    fn pieces_fold_like_their_concatenation() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        let whole = crc32(&data);
        for cut in [0, 1, 15, 16, 17, 500, 999, 1000] {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_pieces([a, b]), whole, "cut at {cut}");
            assert_eq!(crc32_pieces([a, &[][..], b]), whole, "cut at {cut}");
        }
        assert_eq!(crc32_pieces(data.chunks(3)), whole);
        assert_eq!(crc32_pieces(std::iter::empty()), crc32(b""));
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"checkpoint payload");
        let mut flipped = b"checkpoint payload".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(crc32(&flipped), base);
    }
}
