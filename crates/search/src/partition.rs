//! Static partitioning — HotBot's data layout.
//!
//! §3.2: documents are distributed randomly across partitions, each
//! partition is bound to one node, and every query fans out to all live
//! partitions. A dead partition's documents are simply missing from
//! results until it returns (graceful degradation: "it is acceptable to
//! lose part of the database temporarily"). The fan-out and collation
//! live in HotBot's front end; this module owns only the placement.

/// Partition that document `doc_id` lands on among `partitions`
/// ("distributes documents randomly": a stable splitmix hash of the id).
pub fn partition_of(doc_id: u64, partitions: usize) -> usize {
    let mut z = doc_id.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    ((z ^ (z >> 31)) % partitions as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::CorpusGenerator;

    #[test]
    fn placement_is_roughly_balanced() {
        let mut counts = [0u32; 26];
        for doc in CorpusGenerator::with_defaults(42).generate(2600) {
            counts[partition_of(doc.id, 26)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (50..=150).contains(&c),
                "partition {i} holds {c} of 2600 docs"
            );
        }
    }
}
