//! The one reader of the three earlier `.chl` layouts: [`upgrade`] rewrites a
//! v1, v2 or v3 file as v4 (`chl upgrade <in.chl> <out.chl>`), and no loader
//! reads any of them. Each conversion reaches the next version: v1 and v2
//! become v3, and v3 becomes v4.
//!
//! ## Version 3
//!
//! Version 4 with 16-byte entry records: `u32 hub | u32 zero | u64
//! distance`, `m * 16` bytes, the padding word required zero. The header,
//! ranking, offsets, path, shard and compressed entries sections are those
//! of version 4. Upgrading checks every v3 section's CRC and zero bytes,
//! plans the v4 file, copies those sections byte for byte (a compressed
//! skip table and blob included) and narrows each flat record to
//! `u32 hub | u32 distance`. A non-zero padding word is
//! [`PersistError::NonZeroPadding`], and a distance past `u32::MAX` is
//! [`PersistError::DistanceOverflow`]: the file is refused, never
//! truncated. A compressed blob keeps its bytes, so a distance past
//! `u32::MAX` in it fails the validator of the output as
//! [`PersistError::Malformed`].
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
//! and widens each entry into the 16-byte record of version 3.

use std::ops::Range;

use chl_graph::types::VertexId;

use super::{
    blank_file, check_len, check_sections, crc32, file_word, flat_record, parse_fields,
    parse_header, plan, seal, seal_header, validate_layout, zero_bytes, AlignedBytes, Layout,
    PersistError, Section, ENTRY_LEN, FLAG_COMPRESSED_ENTRIES, MAGIC, VERSION,
};
use crate::labels::FlatEntry;

const VERSION_V1: u32 = 1;
const VERSION_V2: u32 = 2;
const VERSION_V3: u32 = 3;
const HEADER_LEN_V1: usize = 28;
const HEADER_LEN_V2: usize = 40;
const ENTRY_LEN_V1: usize = 12;
const ENTRY_LEN_V3: usize = 16;

/// The format versions only [`upgrade`] reads.
pub(super) const LEGACY: [u32; 3] = [VERSION_V1, VERSION_V2, VERSION_V3];

/// Rewrites `.chl` bytes of any version as the current one ([`VERSION`]):
/// a v1, v2 or v3 file is converted, a current file comes back unchanged.
/// The result is what the writer produces for the same index, and it passes
/// the validator every loader runs before it is returned, so a corrupt input
/// is a typed error here rather than a file that fails to load later.
pub fn upgrade(data: &[u8]) -> Result<Vec<u8>, PersistError> {
    let upgraded = match parse_header(data) {
        Err(PersistError::UpgradeRequired {
            version: VERSION_V1,
        }) => from_v3(&from_v1(data)?)?,
        Err(PersistError::UpgradeRequired {
            version: VERSION_V2,
        }) => from_v3(&from_v2(data)?)?,
        Err(PersistError::UpgradeRequired {
            version: VERSION_V3,
        }) => from_v3(data)?,
        header => {
            header?;
            data.to_vec()
        }
    };
    validate_layout(&AlignedBytes::from_slice(&upgraded), None)?;
    Ok(upgraded)
}

/// Checks the v3 sections as the v3 loader did (CRCs, padding, reserved
/// word) and rewrites the file with 8-byte records: each section but the
/// flat entries is copied as it is, each flat record is narrowed.
#[expect(
    clippy::indexing_slicing,
    reason = "rows of two Layouts of the same dimensions: the v3 one checked against data.len(), \
              the v4 one sizing the buffer; a row's prelude and array lie inside its span"
)]
fn from_v3(data: &[u8]) -> Result<Vec<u8>, PersistError> {
    let header = parse_fields(data)?;
    let (n, m, flags) = (header.num_vertices, header.num_entries, header.flags);
    // The file's self-describing words (blob length, owned count), in the
    // order the planner asks for them; v4 places them anew.
    let mut words = Vec::new();
    let v3 = plan(n, m, flags, ENTRY_LEN_V3, |_, at| {
        let word = file_word(data, at)?;
        words.push(word);
        Ok(word)
    })?;
    check_len(v3.len, data.len())?;
    check_sections(data, &v3)?;
    let mut words = words.into_iter();
    let v4 = plan(n, m, flags, ENTRY_LEN, |_, _| {
        Ok(words.next().unwrap_or_default())
    })?;
    let mut upgraded = blank_file(&v4, VERSION, flags);
    for (old, new) in v3.rows().zip(v4.rows()) {
        let out = &mut upgraded[new.span.start..new.data.end];
        if old.section == Section::Entries && !v3.compressed {
            narrow(data, old.data.clone(), out, &v3)?;
        } else {
            out.copy_from_slice(&data[old.span.start..old.data.end]);
        }
    }
    seal(&mut upgraded, &v4);
    Ok(upgraded)
}

/// Narrows the v3 records at `records` into the 8-byte records of `out`,
/// refusing a non-zero padding word or a distance past `u32::MAX`.
fn narrow(
    data: &[u8],
    records: Range<usize>,
    out: &mut [u8],
    v3: &Layout,
) -> Result<(), PersistError> {
    let starts = records.clone().step_by(ENTRY_LEN_V3);
    for (at, record) in starts.zip(out.chunks_exact_mut(ENTRY_LEN)) {
        zero_bytes(data, at + 4..at + 8)?;
        let hub = file_word(data, at..at + 4)? as u32;
        let dist = file_word(data, at + 8..at + ENTRY_LEN_V3)?;
        let dist = u32::try_from(dist).map_err(|_| PersistError::DistanceOverflow {
            vertex: owner(data, v3, ((at - records.start) / ENTRY_LEN_V3) as u64),
            hub,
            dist,
        })?;
        record.copy_from_slice(&flat_record(FlatEntry::new(hub, dist)));
    }
    Ok(())
}

/// The vertex whose run holds entry `entry`: the first `v` whose offsets
/// slot `v + 1` lies past it. Read only to name a refused record.
fn owner(data: &[u8], v3: &Layout, entry: u64) -> VertexId {
    let slots = v3.offsets.data.clone().step_by(8).skip(1);
    slots
        .map(|at| file_word(data, at..at + 8).unwrap_or(u64::MAX))
        .position(|end| end > entry)
        .unwrap_or(0) as VertexId
}

/// Inserts `crc_shard = 0` and `crc_header` after the 40-byte v2 header,
/// which makes it a v3 file.
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
    let version = VERSION_V3.to_le_bytes();
    let mut upgraded = [MAGIC.as_slice(), &version, fields, &[0; 8], payload].concat();
    seal_header(&mut upgraded);
    Ok(upgraded)
}

/// Checks the v1 payload CRC and lays the sections out anew as a v3 file,
/// each entry widened into a 16-byte record.
#[expect(
    clippy::indexing_slicing,
    reason = "the v1 ranges end at data.len(), which check_len proves, and the rows are those of \
              the Layout blank_file sized the buffer to"
)]
fn from_v1(data: &[u8]) -> Result<Vec<u8>, PersistError> {
    let word = |at| file_word(data, at);
    let (n, m, stored) = (word(8..16)?, word(16..24)?, word(24..28)? as u32);
    let layout = plan(n, m, 0, ENTRY_LEN_V3, |_, _| Ok(0))?;
    // The v1 sections lie back to back after the header, as long as their
    // unpadded arrays in the v3 layout except for the narrower entries.
    let ranking = HEADER_LEN_V1..HEADER_LEN_V1 + layout.ranking.data.len();
    let offsets = ranking.end..ranking.end + layout.offsets.data.len();
    let entries = offsets.end..offsets.end + layout.m * ENTRY_LEN_V1;
    check_len(entries.end, data.len())?;
    let computed = crc32(&data[HEADER_LEN_V1..]);
    if computed != stored {
        return Err(PersistError::ChecksumMismatch { stored, computed });
    }
    let mut upgraded = blank_file(&layout, VERSION_V3, 0);
    upgraded[layout.ranking.data.clone()].copy_from_slice(&data[ranking]);
    upgraded[layout.offsets.data.clone()].copy_from_slice(&data[offsets]);
    let records = upgraded[layout.entries.data.clone()].chunks_exact_mut(ENTRY_LEN_V3);
    for (record, packed) in records.zip(data[entries].chunks_exact(ENTRY_LEN_V1)) {
        let (hub, dist) = packed.split_at(4);
        record[..4].copy_from_slice(hub);
        record[8..].copy_from_slice(dist);
    }
    seal(&mut upgraded, &layout);
    Ok(upgraded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{from_bytes, to_bytes};

    const V3_FLAT: &[u8] = include_bytes!("../../tests/fixtures/golden.v3-flat.chl");
    const V4_FLAT: &[u8] = include_bytes!("../../tests/fixtures/golden.v4-flat.chl");
    const V3_PATHS: &[u8] = include_bytes!("../../tests/fixtures/golden.v3-paths.chl");

    /// The v3 layout of a v3 buffer.
    fn v3_layout(buf: &[u8]) -> Layout {
        let header = parse_fields(buf).unwrap();
        plan(
            header.num_vertices,
            header.num_entries,
            header.flags,
            ENTRY_LEN_V3,
            |_, at| file_word(buf, at),
        )
        .unwrap()
    }

    /// Forges the first record of vertex 5's run in the v3 fixture with
    /// `edit`, then reseals every CRC.
    fn forged_v3(edit: impl FnOnce(&mut [u8])) -> (Vec<u8>, u32) {
        let mut buf = V3_FLAT.to_vec();
        let layout = v3_layout(&buf);
        let slot = layout.offsets.data.start + 5 * 8;
        let first = file_word(&buf, slot..slot + 8).unwrap() as usize;
        let at = layout.entries.data.start + first * ENTRY_LEN_V3;
        let hub = file_word(&buf, at..at + 4).unwrap() as u32;
        edit(&mut buf[at..at + ENTRY_LEN_V3]);
        seal(&mut buf, &layout);
        (buf, hub)
    }

    #[test]
    fn v3_upgrades_to_v4_by_narrowing_each_record() {
        let upgraded = upgrade(V3_FLAT).unwrap();
        assert_eq!(upgraded, V4_FLAT);
        assert_eq!(
            upgraded.len() + 8 * from_bytes(V4_FLAT).unwrap().total_labels(),
            V3_FLAT.len()
        );
        // A current file upgrades to itself.
        assert_eq!(upgrade(V4_FLAT).unwrap(), V4_FLAT);
        assert_eq!(to_bytes(&from_bytes(&upgraded).unwrap()), upgraded);
    }

    #[test]
    fn a_v3_distance_past_u32_is_refused_not_truncated() {
        let (forged, hub) = forged_v3(|record| {
            record[8..].copy_from_slice(&(1u64 << 32).to_le_bytes());
        });
        assert!(
            matches!(
                upgrade(&forged),
                Err(PersistError::DistanceOverflow { vertex: 5, hub: h, dist }) if h == hub && dist == 1 << 32
            ),
            "{:?}",
            upgrade(&forged)
        );
        // u32::MAX itself still fits.
        let (fits, _) = forged_v3(|record| {
            record[8..].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
        });
        // The distance no longer matches the paths a canonical labeling
        // holds, but the record narrows: the upgrade's output validates.
        assert!(upgrade(&fits).is_ok());
    }

    #[test]
    fn a_v3_padding_word_is_refused() {
        let (forged, _) = forged_v3(|record| record[6] = 0xCD);
        assert!(matches!(
            upgrade(&forged),
            Err(PersistError::NonZeroPadding { .. })
        ));
        // The zero runs v4 keeps are checked on the input too: here the
        // path section's reserved word, resealed.
        let mut forged = V3_PATHS.to_vec();
        let layout = v3_layout(&forged);
        let reserved = layout.paths.as_ref().unwrap().zeros.clone();
        forged[reserved.start] = 0xCD;
        seal(&mut forged, &layout);
        assert!(matches!(
            upgrade(&forged),
            Err(PersistError::NonZeroPadding { offset }) if offset == reserved.start
        ));
    }

    #[test]
    fn a_corrupt_v3_section_fails_its_crc() {
        let layout = v3_layout(V3_FLAT);
        let mut flipped = V3_FLAT.to_vec();
        flipped[layout.entries.data.start + 9] ^= 1;
        assert!(matches!(
            upgrade(&flipped),
            Err(PersistError::SectionChecksumMismatch {
                section: Section::Entries,
                ..
            })
        ));
        assert!(matches!(
            upgrade(&V3_FLAT[..V3_FLAT.len() - 8]),
            Err(PersistError::Truncated { .. })
        ));
    }
}
