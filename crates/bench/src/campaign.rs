//! The standard sweep matrix that perfbench's `sweep-short` workload
//! runs through the campaign pool.

use shelfsim::SweepSpec;

/// The standard campaign-throughput matrix: 4 designs × (14 two-thread
/// mixes + 14 four-thread mixes + the single-thread STP references those
/// mixes imply) — 220 runs at the default seed.
pub fn campaign_matrix(measure: u64, seed: u64) -> SweepSpec {
    SweepSpec {
        designs: ["base64", "shelf-cons", "shelf-opt", "base128"]
            .map(str::to_owned)
            .to_vec(),
        thread_counts: vec![2, 4],
        mixes_per_count: 14,
        seed,
        warmup: 500,
        measure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_meets_the_acceptance_floor() {
        let sweep = campaign_matrix(3_000, 7);
        let runs = sweep.expand();
        assert!(runs.len() >= 200, "matrix has only {} runs", runs.len());
        // Every design carries single-thread STP references.
        for d in &sweep.designs {
            assert!(runs.iter().any(|r| &r.design == d && r.mix.len() == 1));
        }
    }
}
