//! `chl inspect`: print a `.chl` file's header and size statistics without
//! loading the payload — O(header bytes) even on a multi-GB index — plus an
//! opt-in full integrity check and label-size histogram (`--histogram`).

use chl_core::flat::FlatIndex;
use chl_core::persist;
use chl_graph::types::VertexId;
use chl_query::QdolShardMap;

use crate::opts::Opts;
use crate::CliError;

pub const USAGE: &str = "\
usage: chl inspect <index.chl> [--histogram]

Prints the on-disk header and footprint statistics of a saved index. The
default reads only the fixed header, the words that fix the file's length
(a truncated file fails) and, for shard files, the small CRC-verified
shard section, so inspecting a multi-GB file is instant;
--histogram additionally loads and fully validates the payload to print
the label-size histogram. On a shard file the histogram covers only the
vertices the shard owns.

options:
  --histogram         load the payload: verify integrity, print max label
                      size, run-length percentiles (p50/p99/max) and the
                      label-size histogram";

pub fn run(args: &[String]) -> Result<(), CliError> {
    let opts = Opts::parse(args, &[], &["histogram"])?;
    let path = opts.positional(0, "index file argument")?.to_string();
    opts.reject_extra_positionals(1)?;

    let file_len = std::fs::metadata(&path)
        .map_err(|e| format!("cannot stat {path}: {e}"))?
        .len();
    let header =
        persist::load_header(&path).map_err(|e| format!("cannot read header of {path}: {e}"))?;
    // The length the header plans, from at most two words of the file: a
    // truncated or padded file fails here, as its full load would.
    persist::check_file_len(&path, &header).map_err(|e| format!("cannot inspect {path}: {e}"))?;
    println!("file:             {path} ({file_len} bytes)");
    println!("format version:   {}", header.version);
    println!("vertices:         {}", header.num_vertices);
    println!("label entries:    {}", header.num_entries);
    // The entries encoding and its on-disk vs decoded sizes come from the
    // header + file length alone, so this stays O(header) on multi-GB files.
    let encoded = header.entries_section_len();
    let decoded = header.decoded_entries_len();
    if header.is_compressed() {
        let ratio = decoded as f64 / encoded.max(1) as f64;
        println!(
            "entries encoding: delta+varint compressed (flags {:#x})",
            header.flags
        );
        println!(
            "entries on disk:  {encoded} bytes encoded ({decoded} bytes decoded, {ratio:.2}x)"
        );
    } else {
        println!(
            "entries encoding: flat ({} bytes per entry)",
            persist::ENTRY_LEN
        );
        println!("entries on disk:  {encoded} bytes");
    }
    println!(
        "path data:        {}",
        if header.is_paths() {
            "present (per-entry parent records; 'chl paths' can answer)"
        } else {
            "absent (build with 'chl build --paths' to enable reconstruction)"
        }
    );
    println!(
        "section checksums: ranking {:#010x}, offsets {:#010x}, entries {:#010x}",
        header.crc_ranking, header.crc_offsets, header.crc_entries
    );
    // A shard file identifies itself: one extra small read verifies the
    // shard section CRC and recovers which slice of the cluster this is,
    // without touching the (potentially huge) label payload.
    let mut owned = 0u64;
    if header.is_sharded() {
        let spec = persist::load_shard_spec(&path)
            .map_err(|e| format!("cannot read shard section of {path}: {e}"))?
            .ok_or_else(|| format!("{path}: flags claim a shard section but none is present"))?;
        let map = QdolShardMap::new(spec.shard_count as usize, header.num_vertices as usize);
        if map.zeta() == spec.zeta as usize {
            let (pi, pj) = map.pair_of_shard(spec.shard_id as usize);
            println!(
                "shard:            {} of {} (QDOL zeta {}, partition pair ({pi}, {pj}))",
                spec.shard_id, spec.shard_count, spec.zeta
            );
        } else {
            println!(
                "shard:            {} of {} (QDOL zeta {})",
                spec.shard_id, spec.shard_count, spec.zeta
            );
        }
        println!(
            "owned positions:  {} of {} vertices",
            spec.owned_count(),
            header.num_vertices
        );
        owned = spec.owned_count() as u64;
    }
    let n = header.num_vertices;
    let m = header.num_entries;
    if n > 0 {
        println!("avg label size:   {:.2} per vertex", m as f64 / n as f64);
    }
    // Footprint when served owned, derived from the header alone — the sum
    // `FlatIndex::memory_bytes` reports after a load: offsets (n+1) * 8,
    // entries m * ENTRY_LEN (decoded, whatever the on-disk encoding), ranking order
    // + position 8 per vertex, parent records 4 per label when the file has
    // path data, and a shard's owned list 4 per owned vertex. Saturating: a
    // hostile header must not wrap the arithmetic here.
    let parents = if header.is_paths() { m } else { 0 };
    let estimated = n
        .saturating_add(1)
        .saturating_mul(8)
        .saturating_add(m.saturating_mul(persist::ENTRY_LEN as u64))
        .saturating_add(n.saturating_mul(8))
        .saturating_add(parents.saturating_mul(4))
        .saturating_add(owned.saturating_mul(4));
    let mib = estimated as f64 / (1024.0 * 1024.0);
    println!(
        "serving footprint: {estimated} bytes ({mib:.2} MiB owned; zero-copy --mmap \
         serves the {file_len}-byte file image instead)"
    );

    if !opts.switch("histogram") {
        println!(
            "integrity:        header only, length ok (run with --histogram for a full check)"
        );
        return Ok(());
    }

    // The full load re-validates length, checksums and invariants, so
    // --histogram doubles as an integrity check.
    let index = FlatIndex::load(&path).map_err(|e| format!("cannot load index {path}: {e}"))?;
    println!("integrity:        ok");
    println!("max label size:   {}", index.max_label_size());
    // Two storage shapes exist for the same index: the decoded in-memory
    // one (what serving owned costs) and the bytes actually on disk (what
    // --mmap serves). Reporting only the flat figure used to over-report
    // compressed files severalfold.
    println!(
        "memory footprint: {} bytes resident when served owned",
        index.memory_bytes()
    );
    println!(
        "on-disk storage:  {} bytes in the entries section ({})",
        header.entries_section_len(),
        if header.is_compressed() {
            "delta+varint compressed; --mmap serves this"
        } else {
            "flat records"
        }
    );

    // Run-length percentiles tell you which join tier the query kernel will
    // spend its time in (similar-length runs -> branchless scan, heavy skew
    // -> galloping).
    let sizes: Vec<usize> = match index.shard() {
        Some(spec) => spec
            .owned
            .iter()
            .map(|&v| index.labels_of(v).len())
            .collect(),
        None => (0..index.num_vertices() as VertexId)
            .map(|v| index.labels_of(v).len())
            .collect(),
    };
    if let Some((min, p50, p99, max)) = run_length_percentiles(sizes) {
        println!("run lengths:      min {min}, p50 {p50}, p99 {p99}, max {max}");
    }

    let histogram = label_size_histogram(&index);
    if index.shard().is_some() {
        println!("label-size histogram (owned vertices per bucket):");
    } else {
        println!("label-size histogram (vertices per bucket):");
    }
    for (label, count) in &histogram {
        if *count > 0 {
            println!("  {label:>12}  {count}");
        }
    }
    Ok(())
}

/// Sorts the per-vertex run lengths and reads off (min, p50, p99, max)
/// by nearest-rank on the sorted order; `None` when there are no vertices.
fn run_length_percentiles(mut sizes: Vec<usize>) -> Option<(usize, usize, usize, usize)> {
    sizes.sort_unstable();
    let (&min, &max) = (sizes.first()?, sizes.last()?);
    let pct = |p: f64| {
        let rank = ((sizes.len() - 1) as f64 * p).round() as usize;
        sizes.get(rank).copied().unwrap_or(max)
    };
    Some((min, pct(0.50), pct(0.99), max))
}

/// Buckets vertices by label-set size: 0, 1, 2, then doubling ranges.
/// A shard file counts only the vertices it owns — foreign positions have
/// structurally empty runs and would otherwise drown the `0` bucket.
fn label_size_histogram(index: &FlatIndex) -> Vec<(String, usize)> {
    // 0 -> 0, 1 -> 1, 2 -> 2, 3..=4 -> 3, 5..=8 -> 4, 9..=16 -> 5, ...
    fn bucket_of(size: usize) -> usize {
        match size {
            0 => 0,
            1 => 1,
            2 => 2,
            s => 3 + (usize::BITS - (s - 1).leading_zeros()) as usize - 2,
        }
    }
    let vertices: Vec<VertexId> = match index.shard() {
        Some(spec) => spec.owned.clone(),
        None => (0..index.num_vertices() as VertexId).collect(),
    };
    let mut buckets: Vec<(String, usize)> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    for v in vertices {
        let b = bucket_of(index.labels_of(v).len());
        if counts.len() <= b {
            counts.resize(b + 1, 0);
        }
        counts[b] += 1;
    }
    for (b, &count) in counts.iter().enumerate() {
        let label = match b {
            0 => "0".to_string(),
            1 => "1".to_string(),
            2 => "2".to_string(),
            b => format!("{}-{}", (1usize << (b - 2)) + 1, 1usize << (b - 1)),
        };
        buckets.push((label, count));
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use chl_core::labels::{LabelEntry, LabelSet};
    use chl_ranking::Ranking;

    #[test]
    fn histogram_buckets_cover_doubling_ranges() {
        // Vertex label counts: 0, 1, 2, 3, 5, 9 across six vertices.
        let mut labels = vec![LabelSet::new(); 16];
        for (v, count) in [(0usize, 0u32), (1, 1), (2, 2), (3, 3), (4, 5), (5, 9)] {
            let entries = (0..count).map(|h| LabelEntry::new(h, u64::from(h) + 1));
            labels[v] = LabelSet::from_entries(entries.collect());
        }
        let flat = FlatIndex::new(labels, Ranking::identity(16)).unwrap();
        let hist = label_size_histogram(&flat);
        let get = |label: &str| {
            hist.iter()
                .find(|(l, _)| l == label)
                .map(|&(_, c)| c)
                .unwrap_or(0)
        };
        assert_eq!(get("0"), 11); // vertices 0 and 6..=15
        assert_eq!(get("1"), 1);
        assert_eq!(get("2"), 1);
        assert_eq!(get("3-4"), 1);
        assert_eq!(get("5-8"), 1);
        assert_eq!(get("9-16"), 1);
    }

    #[test]
    fn percentiles_use_nearest_rank_on_sorted_lengths() {
        assert_eq!(run_length_percentiles(vec![]), None);
        assert_eq!(run_length_percentiles(vec![7]), Some((7, 7, 7, 7)));
        // 1..=100 shuffled: p50 lands on rank 50 (value 51 at 0-based index
        // round(99 * 0.5) = 50), p99 on index round(99 * 0.99) = 98.
        let mut lengths: Vec<usize> = (1..=100).rev().collect();
        lengths.swap(3, 77);
        assert_eq!(run_length_percentiles(lengths), Some((1, 51, 99, 100)));
    }
}
