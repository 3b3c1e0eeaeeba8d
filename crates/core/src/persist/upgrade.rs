//! The one reader of the two earlier `.chl` layouts: [`upgrade`] rewrites a
//! v1 or v2 file as v3 (`chl upgrade <in.chl> <out.chl>`), and no loader
//! reads either.
//!
//! ## Version 2
//!
//! Version 3 without `crc_shard` and `crc_header`: a 40-byte header (`magic
//! | version | n | m | flags | crc_ranking | crc_offsets | crc_entries`),
//! then the same 8-byte-aligned sections from offset 40. The flags word
//! knows only bit 0, the compressed entries section. Upgrading inserts the
//! two words, which moves every section back by 8 bytes, a multiple of the
//! alignment; each section CRC covers the same bytes as before and stays
//! valid.
//!
//! ## Version 1
//!
//! ```text
//! offset  size        field
//! 0       4           magic    "CHLI"
//! 4       4           version  u32, 1
//! 8       8           n        u64
//! 16      8           m        u64
//! 24      4           crc32    u32, CRC-32 of every byte after the header
//! 28      n * 4       ranking
//! ..      (n+1) * 8   offsets
//! ..      m * 12      entries  (u32 hub, u64 distance) packed pairs
//! ```
//!
//! Upgrading checks the whole-payload CRC, copies the ranking and offsets,
//! and widens each entry into the 16-byte record of the current layout.

use super::{
    blank_file, check_len, crc32, file_word, parse_header, plan, seal, seal_header,
    validate_layout, AlignedBytes, PersistError, ENTRY_LEN, FLAG_COMPRESSED_ENTRIES, MAGIC,
    VERSION,
};

const VERSION_V1: u32 = 1;
const VERSION_V2: u32 = 2;
const HEADER_LEN_V1: usize = 28;
const HEADER_LEN_V2: usize = 40;
const ENTRY_LEN_V1: usize = 12;

/// The format versions only [`upgrade`] reads.
pub(super) const LEGACY: [u32; 2] = [VERSION_V1, VERSION_V2];

/// Rewrites `.chl` bytes of any version as the current one ([`VERSION`]):
/// a v1 or v2 file is converted, a v3 file comes back unchanged. The result
/// is what the writer produces for the same index, and it passes the
/// validator every loader runs before it is returned, so a corrupt input
/// is a typed error here rather than a file that fails to load later.
pub fn upgrade(data: &[u8]) -> Result<Vec<u8>, PersistError> {
    let upgraded = match parse_header(data) {
        Err(PersistError::UpgradeRequired {
            version: VERSION_V1,
        }) => from_v1(data)?,
        Err(PersistError::UpgradeRequired { .. }) => from_v2(data)?,
        header => {
            header?;
            data.to_vec()
        }
    };
    validate_layout(&AlignedBytes::from_slice(&upgraded), None)?;
    Ok(upgraded)
}

/// Inserts `crc_shard = 0` and `crc_header` after the 40-byte v2 header.
fn from_v2(data: &[u8]) -> Result<Vec<u8>, PersistError> {
    let (head, payload) = data
        .split_at_checked(HEADER_LEN_V2)
        .ok_or(PersistError::Truncated {
            expected: HEADER_LEN_V2,
            found: data.len(),
        })?;
    let flags = file_word(head, 24..28)? as u32;
    if flags & !FLAG_COMPRESSED_ENTRIES != 0 {
        return Err(PersistError::UnsupportedFlags { found: flags });
    }
    // n, m, flags and the three section CRCs.
    let fields = head.get(8..).unwrap_or_default();
    let version = VERSION.to_le_bytes();
    let mut upgraded = [MAGIC.as_slice(), &version, fields, &[0; 8], payload].concat();
    seal_header(&mut upgraded);
    Ok(upgraded)
}

/// Checks the v1 payload CRC and lays the sections out anew, each entry
/// widened into a 16-byte record.
#[expect(
    clippy::indexing_slicing,
    reason = "the v1 ranges end at data.len(), which check_len proves, and the rows are those of \
              the Layout blank_file sized the buffer to"
)]
fn from_v1(data: &[u8]) -> Result<Vec<u8>, PersistError> {
    let word = |at| file_word(data, at);
    let (n, m, stored) = (word(8..16)?, word(16..24)?, word(24..28)? as u32);
    let layout = plan(n, m, 0, |_, _| Ok(0))?;
    // The v1 sections lie back to back after the header, as long as their
    // unpadded arrays in the current layout except for the narrower entries.
    let ranking = HEADER_LEN_V1..HEADER_LEN_V1 + layout.ranking.data.len();
    let offsets = ranking.end..ranking.end + layout.offsets.data.len();
    let entries = offsets.end..offsets.end + layout.m * ENTRY_LEN_V1;
    check_len(entries.end, data.len())?;
    let computed = crc32(&data[HEADER_LEN_V1..]);
    if computed != stored {
        return Err(PersistError::ChecksumMismatch { stored, computed });
    }
    let mut upgraded = blank_file(&layout, 0);
    upgraded[layout.ranking.data.clone()].copy_from_slice(&data[ranking]);
    upgraded[layout.offsets.data.clone()].copy_from_slice(&data[offsets]);
    let records = upgraded[layout.entries.data.clone()].chunks_exact_mut(ENTRY_LEN);
    for (record, packed) in records.zip(data[entries].chunks_exact(ENTRY_LEN_V1)) {
        let (hub, dist) = packed.split_at(4);
        record[..4].copy_from_slice(hub);
        record[8..].copy_from_slice(dist);
    }
    seal(&mut upgraded, &layout);
    Ok(upgraded)
}
