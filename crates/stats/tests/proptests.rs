//! Property-based tests for the statistical core.

use owl_stats::{
    class_mi_bits, ks_two_sample, welch_t_test, Ecdf, Histogram, TransitionMatrix, WeightedSamples,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{BuildHasher, Hash, RandomState};

/// The naive reference model for both hybrid tables: a `BTreeMap` that
/// drops zero-count records, exactly like the pre-hybrid storage did.
fn model_of<K: Ord + Copy>(ops: &[(K, u64)]) -> BTreeMap<K, u64> {
    let mut m = BTreeMap::new();
    for &(k, c) in ops {
        if c > 0 {
            *m.entry(k).or_insert(0) += c;
        }
    }
    m
}

/// Hashes a value with one fixed `RandomState`, so two observationally
/// equal values must collide. The model comparison relies on the hybrid
/// tables' documented bit-compatibility with a derived `BTreeMap` hash.
fn hash_pair<A: Hash, B: Hash>(s: &RandomState, a: &A, b: &B) -> (u64, u64) {
    (s.hash_one(a), s.hash_one(b))
}

/// Builds a histogram from `ops`, normalising mid-stream at `split` to
/// exercise the buffered→sorted fold on a half-built table.
fn build_hist(ops: &[(u64, u64)], split: usize) -> Histogram {
    let mut h = Histogram::new();
    for (i, &(v, c)) in ops.iter().enumerate() {
        if i == split {
            h.normalize();
        }
        h.record(v, c);
    }
    h
}

fn build_matrix(ops: &[((u32, u32), u64)], split: usize) -> TransitionMatrix {
    let mut t = TransitionMatrix::new();
    for (i, &((s, d), c)) in ops.iter().enumerate() {
        if i == split {
            t.normalize();
        }
        t.record(s, d, c);
    }
    t
}

fn arb_samples() -> impl Strategy<Value = WeightedSamples> {
    prop::collection::vec((-1_000i64..1_000, 1u64..20), 1..64)
        .prop_map(|v| WeightedSamples::from_pairs(v.into_iter().map(|(x, w)| (x as f64, w))))
}

/// Non-negative sample values: small integers and eighths (so the two
/// sides share support points), `-0.0`, and magnitudes above 2^53, both
/// clustered (distinct integers that collapse to one `f64`) and spread.
fn arb_nonneg_samples() -> impl Strategy<Value = WeightedSamples> {
    prop::collection::vec(((0u8..5, 0u64..24, any::<u64>()), 1u64..1_000), 1..48).prop_map(|v| {
        WeightedSamples::from_pairs(v.into_iter().map(|((kind, small, big), w)| {
            let x = match kind {
                0 => small as f64,
                1 => small as f64 / 8.0,
                2 => -0.0,
                3 => (u64::MAX - small * 300) as f64,
                _ => big as f64,
            };
            (x, w)
        }))
    })
}

/// The `BTreeMap` estimator that `class_mi_bits` replaced, kept as its
/// oracle: per-side maps keyed by bit pattern (`-0.0` folded into `+0.0`),
/// a `BTreeSet` union, and the mixture collected into a `Vec`.
fn class_mi_bits_oracle(x: &WeightedSamples, y: &WeightedSamples) -> f64 {
    fn entropy_bits<'a>(counts: impl Iterator<Item = &'a f64>, total: f64) -> f64 {
        if total <= 0.0 {
            return 0.0;
        }
        counts
            .filter(|&&c| c > 0.0)
            .map(|&c| {
                let p = c / total;
                -p * p.log2()
            })
            .sum()
    }
    let key = |v: f64| {
        if v == 0.0 {
            0.0f64.to_bits()
        } else {
            v.to_bits()
        }
    };
    match (x.is_empty(), y.is_empty()) {
        (true, true) => return 0.0,
        (true, false) | (false, true) => return 1.0,
        (false, false) => {}
    }
    let (nx, ny) = (x.total_weight() as f64, y.total_weight() as f64);
    let mut px: BTreeMap<u64, f64> = BTreeMap::new();
    let mut py: BTreeMap<u64, f64> = BTreeMap::new();
    for &(v, w) in x.pairs() {
        *px.entry(key(v)).or_insert(0.0) += w as f64 / nx;
    }
    for &(v, w) in y.pairs() {
        *py.entry(key(v)).or_insert(0.0) += w as f64 / ny;
    }
    let support: BTreeSet<u64> = px.keys().chain(py.keys()).copied().collect();
    let mix: Vec<f64> = support
        .iter()
        .map(|k| 0.5 * px.get(k).copied().unwrap_or(0.0) + 0.5 * py.get(k).copied().unwrap_or(0.0))
        .collect();
    let h_mix = entropy_bits(mix.iter(), mix.iter().sum());
    let h_x = entropy_bits(px.values(), 1.0);
    let h_y = entropy_bits(py.values(), 1.0);
    (h_mix - 0.5 * h_x - 0.5 * h_y).clamp(0.0, 1.0)
}

proptest! {
    /// An ECDF is monotone non-decreasing and bounded by [0, 1].
    #[test]
    fn ecdf_is_monotone_and_bounded(s in arb_samples()) {
        let e = Ecdf::from_samples(&s);
        let mut prev = 0.0;
        for &(x, f) in e.steps() {
            prop_assert!(f >= prev, "non-monotone at {x}");
            prop_assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        prop_assert!((prev - 1.0).abs() < 1e-12, "ECDF must end at 1");
    }

    /// The KS distance is symmetric and within [0, 1].
    #[test]
    fn ks_statistic_symmetric_and_bounded(a in arb_samples(), b in arb_samples()) {
        let xy = ks_two_sample(&a, &b, 0.95);
        let yx = ks_two_sample(&b, &a, 0.95);
        prop_assert!((xy.statistic - yx.statistic).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&xy.statistic));
        prop_assert!((0.0..=1.0).contains(&xy.p_value));
    }

    /// A sample never deviates from itself.
    #[test]
    fn ks_self_test_never_rejects(a in arb_samples()) {
        let out = ks_two_sample(&a, &a, 0.95);
        prop_assert_eq!(out.statistic, 0.0);
        prop_assert!(!out.rejected);
    }

    /// Splitting one sample into scaled copies keeps the distribution, so the
    /// KS statistic of a sample vs. its k-fold duplicate is zero.
    #[test]
    fn ks_invariant_under_weight_scaling(a in arb_samples(), k in 2u64..5) {
        let scaled = WeightedSamples::from_pairs(
            a.pairs().iter().map(|&(x, w)| (x, w * k)),
        );
        let out = ks_two_sample(&a, &scaled, 0.95);
        prop_assert_eq!(out.statistic, 0.0);
    }

    /// Merging histograms is commutative and preserves totals.
    #[test]
    fn histogram_merge_commutes(
        a in prop::collection::vec((0u64..100, 1u64..10), 0..32),
        b in prop::collection::vec((0u64..100, 1u64..10), 0..32),
    ) {
        let ha: Histogram = a.iter().copied().collect();
        let hb: Histogram = b.iter().copied().collect();
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.total(), ha.total() + hb.total());
    }

    /// Welch's t statistic is antisymmetric in its arguments.
    #[test]
    fn welch_antisymmetric(a in arb_samples(), b in arb_samples()) {
        let xy = welch_t_test(&a, &b, 4.5);
        let yx = welch_t_test(&b, &a, 4.5);
        if xy.statistic.is_finite() {
            prop_assert!((xy.statistic + yx.statistic).abs() < 1e-9);
        }
        prop_assert_eq!(xy.rejected, yx.rejected);
    }

    /// The hybrid-storage `Histogram` is observationally identical to the
    /// naive `BTreeMap` model: iteration order, point lookups, totals,
    /// serde bytes, and `Hash`, at every buffered/normalised state. A
    /// warp access recorded through `record_lanes` — empty, up to 64
    /// lanes or wider, with duplicates (`narrow` folds values together),
    /// after per-key writes still in the append buffer — matches
    /// `record(v, 1)` per lane.
    #[test]
    fn histogram_matches_btreemap_model(
        ops in prop::collection::vec((0u64..48, 0u64..6), 0..80),
        split in 0usize..80,
        rot in 0usize..80,
        lanes in prop::collection::vec(0u64..48, 0..150),
        narrow in 1u64..48,
    ) {
        let lanes: Vec<u64> = lanes.iter().map(|v| v % narrow).collect();
        let mut h = build_hist(&ops, split);
        h.record_lanes(lanes.iter().copied());
        let mut per_value = build_hist(&ops, split);
        for &v in &lanes {
            per_value.record(v, 1);
        }
        prop_assert_eq!(&h, &per_value);
        let ops: Vec<(u64, u64)> = ops.iter().copied().chain(lanes.iter().map(|&v| (v, 1))).collect();
        let model = model_of(&ops);

        // Iteration order and content.
        prop_assert_eq!(
            h.iter().collect::<Vec<_>>(),
            model.iter().map(|(&v, &c)| (v, c)).collect::<Vec<_>>()
        );
        // Point lookups, including absent keys; maintained aggregates.
        for v in 0..48 {
            prop_assert_eq!(h.count(v), model.get(&v).copied().unwrap_or(0));
        }
        prop_assert_eq!(h.total(), model.values().sum::<u64>());
        prop_assert_eq!(h.distinct(), model.len());

        // Serde bytes equal the model's map form, key order and all.
        let expected_json = format!(
            "{{\"bins\":{{{}}}}}",
            model.iter().map(|(v, c)| format!("\"{v}\":{c}"))
                .collect::<Vec<_>>().join(",")
        );
        prop_assert_eq!(serde_json::to_string(&h).unwrap(), expected_json);

        // Hash is bit-compatible with hashing the model map directly (the
        // previous representation was a single derived `BTreeMap` field),
        // and insensitive to insertion order and normalisation state.
        let state = RandomState::new();
        let (hh, hm) = hash_pair(&state, &h, &model);
        prop_assert_eq!(hh, hm);
        let rot = rot.min(ops.len());
        let mut rotated = ops.clone();
        rotated.rotate_left(rot);
        let h2 = build_hist(&rotated, usize::MAX);
        prop_assert_eq!(&h, &h2);
        let (ha, hb) = hash_pair(&state, &h, &h2);
        prop_assert_eq!(ha, hb);
    }

    /// Merging two hybrid histograms equals merging their models.
    #[test]
    fn histogram_merge_matches_btreemap_model(
        ops in prop::collection::vec((0u64..48, 0u64..6), 0..80),
        cut in 0usize..80,
        split in 0usize..80,
    ) {
        let cut = cut.min(ops.len());
        let mut merged = build_hist(&ops[..cut], split);
        merged.merge(&build_hist(&ops[cut..], split / 2));
        prop_assert_eq!(
            merged.iter().collect::<Vec<_>>(),
            model_of(&ops).iter().map(|(&v, &c)| (v, c)).collect::<Vec<_>>()
        );
    }

    /// The hybrid-storage `TransitionMatrix` is observationally identical
    /// to the naive `BTreeMap<(u32, u32), u64>` model, including its
    /// entry-list serde form and the maintained `executions` total.
    #[test]
    fn transition_matrix_matches_btreemap_model(
        ops in prop::collection::vec(((0u32..6, 0u32..6), 0u64..6), 0..80),
        split in 0usize..80,
        cut in 0usize..80,
    ) {
        let model = model_of(&ops);
        let t = build_matrix(&ops, split);

        prop_assert_eq!(
            t.iter().collect::<Vec<_>>(),
            model.iter().map(|(&k, &c)| (k, c)).collect::<Vec<_>>()
        );
        for s in 0..6 {
            for d in 0..6 {
                prop_assert_eq!(t.count(s, d), model.get(&(s, d)).copied().unwrap_or(0));
            }
        }
        prop_assert_eq!(t.executions(), model.values().sum::<u64>());

        // Serde bytes equal the model's entry-list form.
        let expected_json = format!(
            "{{\"counts\":[{}]}}",
            model.iter().map(|(&(s, d), c)| format!("[[{s},{d}],{c}]"))
                .collect::<Vec<_>>().join(",")
        );
        prop_assert_eq!(serde_json::to_string(&t).unwrap(), expected_json.clone());
        let back: TransitionMatrix = serde_json::from_str(&expected_json).unwrap();
        prop_assert_eq!(&back, &t);

        // Hash is bit-compatible with the model map and agrees across
        // normalisation states.
        let state = RandomState::new();
        let (ht, hm) = hash_pair(&state, &t, &model);
        prop_assert_eq!(ht, hm);
        let mut normalized = t.clone();
        normalized.normalize();
        let (ha, hb) = hash_pair(&state, &t, &normalized);
        prop_assert_eq!(ha, hb);

        // Merge of a split build equals the whole-model build.
        let cut = cut.min(ops.len());
        let mut merged = build_matrix(&ops[..cut], split);
        merged.merge(&build_matrix(&ops[cut..], split / 2));
        prop_assert_eq!(&merged, &t);
    }

    /// The merge-walk MI estimator is bit-identical to the `BTreeMap`
    /// oracle on non-negative values, in both argument orders.
    #[test]
    fn class_mi_bits_matches_btreemap_oracle(a in arb_nonneg_samples(), b in arb_nonneg_samples()) {
        prop_assert_eq!(class_mi_bits(&a, &b).to_bits(), class_mi_bits_oracle(&a, &b).to_bits());
        prop_assert_eq!(class_mi_bits(&b, &a).to_bits(), class_mi_bits_oracle(&b, &a).to_bits());
        prop_assert_eq!(class_mi_bits(&a, &a).to_bits(), class_mi_bits_oracle(&a, &a).to_bits());
    }

    /// The KS statistic's cumulative walk is bit-identical to the supremum
    /// distance of the two `Ecdf`s it no longer builds.
    #[test]
    fn ks_statistic_matches_ecdf_sup_distance(
        a in arb_samples(),
        b in arb_samples(),
        c in arb_nonneg_samples(),
        d in arb_nonneg_samples(),
    ) {
        for (x, y) in [(&a, &b), (&b, &a), (&c, &d), (&a, &c), (&a, &a)] {
            let walk = ks_two_sample(x, y, 0.95).statistic;
            let ecdf = Ecdf::from_samples(x).sup_distance(&Ecdf::from_samples(y));
            prop_assert_eq!(walk.to_bits(), ecdf.to_bits());
        }
    }

    /// `TransitionMatrix::to_samples` skips the intermediate histogram
    /// without changing its output, also where boundary-block encodings
    /// above 2^53 collapse to one `f64`.
    #[test]
    fn transition_samples_match_histogram_samples(
        ops in prop::collection::vec(((0u32..8, 0u32..8), 0u64..6), 0..80),
        split in 0usize..80,
    ) {
        let block = |b: u32| if b < 5 { b } else { u32::MAX - (b - 5) };
        let ops: Vec<_> = ops.into_iter().map(|((s, d), c)| ((block(s), block(d)), c)).collect();
        let t = build_matrix(&ops, split);
        prop_assert_eq!(t.to_samples(), t.to_histogram().to_samples());
    }

    /// `eval` agrees with the brute-force definition of the ECDF.
    #[test]
    fn ecdf_eval_matches_definition(s in arb_samples(), t in -1_200i64..1_200) {
        let e = Ecdf::from_samples(&s);
        let t = t as f64;
        let le: u64 = s.pairs().iter().filter(|&&(x, _)| x <= t).map(|&(_, w)| w).sum();
        let expected = le as f64 / s.total_weight() as f64;
        prop_assert!((e.eval(t) - expected).abs() < 1e-12);
    }
}
