//! `WeightedCdf` against a reference model: one ordered map from series
//! length to series count, the representation it replaced. Every query
//! must agree on random series, short ones and very long ones alike.

use proptest::prelude::*;
use shelfsim_stats::WeightedCdf;
use std::collections::BTreeMap;

/// The reference: every length in one `BTreeMap`.
#[derive(Clone, Debug, Default, PartialEq)]
struct Reference {
    counts: BTreeMap<u64, u64>,
    total_weight: u64,
}

impl Reference {
    fn record(&mut self, length: u64) {
        if length == 0 {
            return;
        }
        *self.counts.entry(length).or_insert(0) += 1;
        self.total_weight += length;
    }

    fn merge(&mut self, other: &Reference) {
        for (&len, &n) in &other.counts {
            *self.counts.entry(len).or_insert(0) += n;
            self.total_weight += len * n;
        }
    }

    fn num_series(&self) -> u64 {
        self.counts.values().sum()
    }

    fn fraction_at_or_below(&self, length: u64) -> f64 {
        if self.total_weight == 0 {
            return 0.0;
        }
        let below: u64 = self.counts.range(..=length).map(|(&l, &n)| l * n).sum();
        below as f64 / self.total_weight as f64
    }

    fn quantile(&self, q: f64) -> Option<u64> {
        if self.total_weight == 0 {
            return None;
        }
        if q == 0.0 {
            return self.counts.keys().next().copied();
        }
        let target = (q * self.total_weight as f64).ceil() as u64;
        let mut acc = 0u64;
        for (&len, &n) in &self.counts {
            acc += len * n;
            if acc >= target {
                return Some(len);
            }
        }
        self.counts.keys().next_back().copied()
    }

    fn max_length(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    fn weighted_mean_length(&self) -> f64 {
        if self.total_weight == 0 {
            return 0.0;
        }
        let sq: u64 = self.counts.iter().map(|(&l, &n)| l * l * n).sum();
        sq as f64 / self.total_weight as f64
    }

    fn mean_length(&self) -> f64 {
        let n = self.num_series();
        if n == 0 {
            return 0.0;
        }
        self.total_weight as f64 / n as f64
    }
}

/// Series lengths: empty series, the short lengths nearly every real
/// series has, lengths around any small-table boundary, and very long
/// series.
fn length() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..16,
        1u64..600,
        48u64..80,
        1_000u64..1_000_000,
    ]
}

fn build(lengths: &[u64]) -> (WeightedCdf, Reference) {
    let mut cdf = WeightedCdf::new();
    let mut reference = Reference::default();
    for &l in lengths {
        cdf.record(l);
        reference.record(l);
    }
    (cdf, reference)
}

fn assert_agrees(cdf: &WeightedCdf, reference: &Reference, probes: &[u64], q: f64) {
    assert_eq!(cdf.total_weight(), reference.total_weight);
    assert_eq!(cdf.num_series(), reference.num_series());
    assert_eq!(cdf.max_length(), reference.max_length());
    assert_eq!(cdf.mean_length(), reference.mean_length());
    assert_eq!(cdf.weighted_mean_length(), reference.weighted_mean_length());
    for qq in [0.0, q, 0.5, 1.0] {
        assert_eq!(cdf.quantile(qq), reference.quantile(qq), "q = {qq}");
    }
    let lengths = reference.counts.keys().copied();
    for l in probes
        .iter()
        .copied()
        .chain(lengths)
        .chain([0, 1, u64::MAX])
    {
        assert_eq!(
            cdf.fraction_at_or_below(l),
            reference.fraction_at_or_below(l),
            "length {l}"
        );
    }
}

proptest! {
    #[test]
    fn queries_match_the_reference(
        lengths in prop::collection::vec(length(), 0..300),
        probes in prop::collection::vec(0u64..2_000_000, 0..20),
        q in 0.0f64..=1.0,
    ) {
        let (cdf, reference) = build(&lengths);
        assert_agrees(&cdf, &reference, &probes, q);
    }

    #[test]
    fn merge_and_equality_match_the_reference(
        a in prop::collection::vec(length(), 0..200),
        b in prop::collection::vec(length(), 0..200),
        q in 0.0f64..=1.0,
    ) {
        let (mut cdf_a, mut ref_a) = build(&a);
        let (cdf_b, ref_b) = build(&b);
        prop_assert_eq!(cdf_a == cdf_b, ref_a == ref_b);

        // The same series in another order, or recorded in two halves and
        // merged, give an equal distribution.
        let reversed: Vec<u64> = a.iter().rev().copied().collect();
        prop_assert!(build(&reversed).0 == cdf_a);
        let (head, tail) = a.split_at(a.len() / 2);
        let mut halves = build(head).0;
        halves.merge(&build(tail).0);
        prop_assert!(halves == cdf_a);

        cdf_a.merge(&cdf_b);
        ref_a.merge(&ref_b);
        assert_agrees(&cdf_a, &ref_a, &b, q);
        let both: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert!(build(&both).0 == cdf_a);
    }
}
