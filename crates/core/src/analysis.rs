//! Phase 3 — leakage analysis (paper §VII).
//!
//! Given evidence merged from repeated fixed-input runs (`E_fix`) and
//! repeated random-input runs (`E_rnd`), the leak tests decide which
//! differences are statistically input-dependent:
//!
//! * **kernel leaks** — unaligned invocations, presence-count
//!   distributions failing the KS test, differing launch geometries, or
//!   differing allocation behaviour;
//! * **device control-flow leaks** — a node's `(prev, next)` transition
//!   distribution fails the KS test (eqs. (5)–(8));
//! * **device data-flow leaks** — a memory instruction's address histogram
//!   at some visit ordinal fails the KS test; surplus visits on one side
//!   are control-flow effects and are left to the transition test, exactly
//!   as the paper prescribes.
//!
//! Features whose distributions match between fixed and random inputs are
//! attributed to non-deterministic execution noise and *not* reported —
//! this is the paper's false-positive defence.

use crate::engine::Engine;
use crate::evidence::Evidence;
use crate::report::{keep_strongest, Leak, LeakKind, LeakLocation, LeakReport};
use owl_dcfg::diff::{myers_align, AlignOp};
use owl_dcfg::Node;
use owl_stats::mi::class_mi_bits;
use owl_stats::{EngineOutcome, Histogram, WeightedSamples};
use std::cmp::Ordering;

/// Parameters of the analysis phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisConfig {
    /// Confidence level of the KS tests (the paper uses 0.95).
    pub alpha: f64,
    /// The analysis engine deciding per-feature input dependence
    /// ([`Engine::Ks`] unless overridden).
    pub method: Engine,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            alpha: 0.95,
            method: Engine::Ks,
        }
    }
}

/// A rejecting comparison, kept with the samples it was made on so that
/// the severity is computed only for the feature that is reported.
struct Rejection {
    out: EngineOutcome,
    fix: WeightedSamples,
    rnd: WeightedSamples,
}

impl Rejection {
    fn test(config: &AnalysisConfig, fix: WeightedSamples, rnd: WeightedSamples) -> Option<Self> {
        let out = config.method.compare(config.alpha, &fix, &rnd);
        out.rejected.then_some(Rejection { out, fix, rnd })
    }

    fn into_leak(self, kind: LeakKind, location: LeakLocation, detail: String) -> Leak {
        Leak {
            kind,
            location,
            statistic: self.out.statistic,
            p_value: self.out.p_value,
            // The engine's own severity estimate when it quantifies,
            // otherwise an independent MI estimate.
            severity_bits: self
                .out
                .bits
                .unwrap_or_else(|| class_mi_bits(&self.fix, &self.rnd)),
            detail,
        }
    }
}

/// A structural (non-statistical) leak: maximal deviation by construction.
fn structural(kind: LeakKind, location: LeakLocation, detail: String) -> Leak {
    Leak {
        kind,
        location,
        statistic: 1.0,
        p_value: 0.0,
        severity_bits: 1.0,
        detail,
    }
}

/// Runs the full leakage test of §VII-C.
///
/// The walk pushes leaks in walk order — allocations, then each aligned
/// invocation with its nodes and instructions in ascending order — and
/// deduplicates them by location once at the end, with the rule of
/// [`LeakReport::merge`].
pub fn leakage_test(fix: &Evidence, rnd: &Evidence, config: &AnalysisConfig) -> LeakReport {
    let mut report = LeakReport::default();

    test_mallocs(fix, rnd, &mut report);

    // Align the two evidence sequences on invocation keys.
    let fix_keys: Vec<_> = fix.invocations.iter().map(|i| &i.key).collect();
    let rnd_keys: Vec<_> = rnd.invocations.iter().map(|i| &i.key).collect();
    let ops = myers_align(&fix_keys, &rnd_keys);
    report.tested_invocations = ops.len();

    for op in ops {
        match op {
            AlignOp::DeleteA(i) => report.leaks.push(structural(
                LeakKind::Kernel,
                LeakLocation::Invocation(fix.invocations[i].key.clone()),
                "kernel invoked under fixed inputs but not under random inputs".into(),
            )),
            AlignOp::InsertB(j) => report.leaks.push(structural(
                LeakKind::Kernel,
                LeakLocation::Invocation(rnd.invocations[j].key.clone()),
                "kernel invoked under random inputs but not under fixed inputs".into(),
            )),
            AlignOp::Match(i, j) => test_matched_invocation(fix, i, rnd, j, config, &mut report),
        }
    }
    let walk = std::mem::take(&mut report.leaks);
    keep_strongest(&mut report.leaks, walk);
    report
}

fn test_mallocs(fix: &Evidence, rnd: &Evidence, report: &mut LeakReport) {
    if fix.runs == 0 || rnd.runs == 0 {
        return;
    }
    for (m, f, r) in merge_join(&fix.mallocs, &rnd.mallocs) {
        let f = f.copied().unwrap_or(0) as f64 / fix.runs as f64;
        let r = r.copied().unwrap_or(0) as f64 / rnd.runs as f64;
        if (f - r).abs() > f64::EPSILON {
            report.leaks.push(structural(
                LeakKind::Kernel,
                LeakLocation::Alloc(m.call_site),
                format!(
                    "allocation of {} bytes averages {f:.2}/run fixed vs {r:.2}/run random",
                    m.size
                ),
            ));
        }
    }
}

fn test_matched_invocation(
    fix: &Evidence,
    i: usize,
    rnd: &Evidence,
    j: usize,
    config: &AnalysisConfig,
    report: &mut LeakReport,
) {
    let fi = &fix.invocations[i];
    let rj = &rnd.invocations[j];
    let key = &fi.key;

    // Launch geometry must not depend on the secret.
    if fi.configs != rj.configs {
        report.leaks.push(structural(
            LeakKind::Kernel,
            LeakLocation::Invocation(key.clone()),
            "launch geometry differs between fixed and random inputs".into(),
        ));
    }

    // Presence distribution (invocation-count differences show up as
    // presence gaps at aligned positions).
    let fp = presence_samples(fi.present_runs, fix.runs);
    let rp = presence_samples(rj.present_runs, rnd.runs);
    if let Some(rejection) = Rejection::test(config, fp, rp) {
        report.leaks.push(rejection.into_leak(
            LeakKind::Kernel,
            LeakLocation::Invocation(key.clone()),
            format!(
                "invocation present in {}/{} fixed vs {}/{} random runs",
                fi.present_runs, fix.runs, rj.present_runs, rnd.runs
            ),
        ));
    }

    // Device control-flow test: per node, per eq. (8), the flattened
    // transition matrix histograms.
    let transitions = |n: Option<&Node>| n.map(|n| n.transitions.to_samples()).unwrap_or_default();
    for (&bb, fnode, rnode) in merge_join(&fi.adcfg.nodes, &rj.adcfg.nodes) {
        report.tested_nodes += 1;
        if let Some(rejection) = Rejection::test(config, transitions(fnode), transitions(rnode)) {
            report.leaks.push(rejection.into_leak(
                LeakKind::ControlFlow,
                LeakLocation::Block(key.clone(), bb),
                "control-flow transition distribution differs".into(),
            ));
        }

        // Device data-flow test: per instruction, per visit ordinal.
        for (&inst, fvisits, rvisits) in merge_join(
            fnode.into_iter().flat_map(|n| &n.mem),
            rnode.into_iter().flat_map(|n| &n.mem),
        ) {
            report.tested_instructions += 1;
            let location = || LeakLocation::Instruction(key.clone(), bb, inst);
            let (Some(fv), Some(rv)) = (fvisits, rvisits) else {
                // The access executed only under one input class — with
                // identical control flow this is predication, a
                // data-dependent access pattern.
                report.leaks.push(structural(
                    LeakKind::DataFlow,
                    location(),
                    "memory access executes only under one input class".into(),
                ));
                continue;
            };
            let address = worst_visit(config, fv, rv);
            // The per-warp access-cost feature (coalesced transactions /
            // bank conflicts): warp aggregation of addresses can hide
            // per-event grouping that this catches.
            let cost = match (
                fnode.and_then(|n| n.cost.get(&inst)),
                rnode.and_then(|n| n.cost.get(&inst)),
            ) {
                (Some(fc), Some(rc)) => worst_visit(config, fc, rc),
                _ => None,
            };
            // Both features report at one location, so resolve the pair
            // here by the rule of `keep_strongest` (the address unless the
            // cost is strictly stronger): only the kept feature pays for
            // its severity estimate.
            let kept = match (address, cost) {
                (Some(address), Some(cost)) if cost.1.out.p_value < address.1.out.p_value => {
                    Some(("memory transaction cost", cost))
                }
                (Some(address), _) => Some(("address", address)),
                (None, cost) => cost.map(|cost| ("memory transaction cost", cost)),
            };
            if let Some((feature, (jj, rejection))) = kept {
                report.leaks.push(rejection.into_leak(
                    LeakKind::DataFlow,
                    location(),
                    format!("{feature} distribution differs at visit {jj}"),
                ));
            }
        }
    }
}

/// The strongest rejection among one instruction's per-visit histograms,
/// with its visit ordinal; the first visit wins ties. Ordinals pair in
/// access order; surplus ordinals stem from control flow and are covered
/// by the transition test.
fn worst_visit(
    config: &AnalysisConfig,
    fix: &[Histogram],
    rnd: &[Histogram],
) -> Option<(usize, Rejection)> {
    let mut worst: Option<(usize, Rejection)> = None;
    for (jj, (fh, rh)) in fix.iter().zip(rnd).enumerate() {
        if let Some(rejection) = Rejection::test(config, fh.to_samples(), rh.to_samples()) {
            if worst
                .as_ref()
                .is_none_or(|(_, w)| rejection.out.p_value < w.out.p_value)
            {
                worst = Some((jj, rejection));
            }
        }
    }
    worst
}

/// Walks the union of two ascending, duplicate-free key sequences (such as
/// two `BTreeMap`s) in ascending key order, pairing each key with its
/// value on either side.
fn merge_join<K: Ord, V>(
    fix: impl IntoIterator<Item = (K, V)>,
    rnd: impl IntoIterator<Item = (K, V)>,
) -> impl Iterator<Item = (K, Option<V>, Option<V>)> {
    let (mut fix, mut rnd) = (fix.into_iter().peekable(), rnd.into_iter().peekable());
    std::iter::from_fn(move || {
        let order = match (fix.peek(), rnd.peek()) {
            (Some((f, _)), Some((r, _))) => f.cmp(r),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return None,
        };
        Some(match order {
            Ordering::Less => fix.next().map(|(k, f)| (k, Some(f), None))?,
            Ordering::Greater => rnd.next().map(|(k, r)| (k, None, Some(r)))?,
            Ordering::Equal => {
                let ((k, f), (_, r)) = (fix.next()?, rnd.next()?);
                (k, Some(f), Some(r))
            }
        })
    })
}

fn presence_samples(present: u64, runs: u64) -> WeightedSamples {
    let mut h = Histogram::new();
    h.record(1, present);
    h.record(0, runs.saturating_sub(present));
    h.to_samples()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{InvocationKey, KernelInvocation, ProgramTrace};
    use owl_dcfg::AdcfgBuilder;
    use owl_host::CallSite;

    const N_RUNS: usize = 50;

    fn key(line: u32, kernel: &str) -> InvocationKey {
        InvocationKey {
            call_site: CallSite {
                file: "f.rs",
                line,
                column: 1,
            },
            kernel: kernel.into(),
        }
    }

    /// Builds a one-invocation trace where warp 0 walks `walk` and touches
    /// `addr` at bb `walk[0]`, instruction 0.
    fn trace_walk_addr(walk: &[u32], addr: u64) -> ProgramTrace {
        let mut b = AdcfgBuilder::new();
        for (i, &bb) in walk.iter().enumerate() {
            b.enter_block(0, bb);
            if i == 0 {
                b.record_access(0, 0, [addr]);
            }
        }
        ProgramTrace {
            invocations: vec![KernelInvocation::new(
                key(1, "k"),
                ((1, 1, 1), (32, 1, 1)),
                b.finish(),
            )],
            mallocs: vec![],
        }
    }

    fn evidence_from(f: impl Fn(u64) -> ProgramTrace) -> Evidence {
        Evidence::from_traces((0..N_RUNS as u64).map(f))
    }

    #[test]
    fn identical_behaviour_is_clean() {
        let fix = evidence_from(|_| trace_walk_addr(&[0, 1, 2], 0x40));
        let rnd = evidence_from(|_| trace_walk_addr(&[0, 1, 2], 0x40));
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        assert!(report.is_clean(), "unexpected leaks: {report}");
        assert_eq!(report.tested_invocations, 1);
        assert!(report.tested_nodes >= 3);
    }

    #[test]
    fn input_dependent_address_is_data_flow_leak() {
        // Fixed: always offset 0x40. Random: spread over the table.
        let fix = evidence_from(|_| trace_walk_addr(&[0, 1], 0x40));
        let rnd = evidence_from(|r| trace_walk_addr(&[0, 1], (r % 32) * 8));
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        assert_eq!(report.count(LeakKind::DataFlow), 1, "{report}");
        assert_eq!(report.count(LeakKind::ControlFlow), 0, "{report}");
        match &report.leaks[0].location {
            LeakLocation::Instruction(_, bb, inst) => {
                assert_eq!((*bb, *inst), (0, 0));
            }
            other => panic!("wrong location {other:?}"),
        }
    }

    #[test]
    fn random_noise_is_not_flagged() {
        // The program has a nondeterministic address (e.g. randomised
        // defence): the distribution is the same under fixed and random
        // inputs, so Owl must not flag it.
        let fix = evidence_from(|r| trace_walk_addr(&[0, 1], (r.wrapping_mul(7) % 32) * 8));
        let rnd = evidence_from(|r| trace_walk_addr(&[0, 1], (r.wrapping_mul(13) % 32) * 8));
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        assert!(report.is_clean(), "noise misdetected: {report}");
    }

    #[test]
    fn input_dependent_branch_is_control_flow_leak() {
        // Fixed: always takes block 1. Random: takes 1 or 2 evenly.
        let fix = evidence_from(|_| trace_walk_addr(&[0, 1, 3], 0x40));
        let rnd = evidence_from(|r| {
            trace_walk_addr(if r % 2 == 0 { &[0, 1, 3] } else { &[0, 2, 3] }, 0x40)
        });
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        assert!(report.count(LeakKind::ControlFlow) >= 1, "{report}");
        assert!(
            report
                .of_kind(LeakKind::ControlFlow)
                .any(|l| matches!(&l.location, LeakLocation::Block(_, bb) if *bb == 0 || *bb == 2)),
            "{report}"
        );
    }

    #[test]
    fn input_dependent_invocation_is_kernel_leak() {
        // Random inputs sometimes launch an extra kernel.
        let base = |_| trace_walk_addr(&[0], 0x40);
        let fix = evidence_from(base);
        let rnd = evidence_from(|r| {
            let mut t = trace_walk_addr(&[0], 0x40);
            if r % 2 == 0 {
                let mut b = AdcfgBuilder::new();
                b.enter_block(0, 0);
                t.invocations.push(KernelInvocation::new(
                    key(9, "extra"),
                    ((1, 1, 1), (32, 1, 1)),
                    b.finish(),
                ));
            }
            t
        });
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        assert!(report.count(LeakKind::Kernel) >= 1, "{report}");
        assert!(report
            .of_kind(LeakKind::Kernel)
            .any(|l| matches!(&l.location, LeakLocation::Invocation(k) if k.kernel == "extra")));
    }

    #[test]
    fn differing_geometry_is_kernel_leak() {
        let fix = evidence_from(|_| trace_walk_addr(&[0], 0x40));
        let rnd = evidence_from(|r| {
            let mut t = trace_walk_addr(&[0], 0x40);
            if r % 2 == 0 {
                t.invocations[0].config = ((2, 1, 1), (32, 1, 1));
            }
            t
        });
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        assert!(report.count(LeakKind::Kernel) >= 1, "{report}");
    }

    #[test]
    fn malloc_profile_difference_is_flagged() {
        let m = crate::trace::MallocRecord {
            call_site: CallSite {
                file: "f.rs",
                line: 77,
                column: 1,
            },
            size: 128,
        };
        let fix = evidence_from(|_| trace_walk_addr(&[0], 0x40));
        let rnd = evidence_from(|r| {
            let mut t = trace_walk_addr(&[0], 0x40);
            if r % 2 == 0 {
                t.mallocs.push(m);
            }
            t
        });
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        assert!(report
            .leaks
            .iter()
            .any(|l| matches!(l.location, LeakLocation::Alloc(_))));

        // Two sizes differing at one call site are one leak location.
        let alloc = |size| crate::trace::MallocRecord {
            call_site: CallSite {
                file: "f.rs",
                line: 7,
                column: 1,
            },
            size,
        };
        let with_malloc = |size| {
            let mut t = trace_walk_addr(&[0], 0x40);
            t.mallocs.push(alloc(size));
            t
        };
        let fix = Evidence::from_traces((0..20).map(|_| with_malloc(64)));
        let rnd =
            Evidence::from_traces((0..20).map(|r| with_malloc(if r % 2 == 0 { 64 } else { 128 })));
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        let allocs = report
            .leaks
            .iter()
            .filter(|l| matches!(l.location, LeakLocation::Alloc(_)))
            .count();
        assert_eq!(allocs, 1, "{report}");
    }

    #[test]
    fn loop_launches_dedup_to_one_kernel_leak() {
        // The same key appears thrice per run under random inputs only:
        // the report collapses them to one leak at the invocation site.
        let fix = evidence_from(|_| trace_walk_addr(&[0], 0x40));
        let rnd = evidence_from(|_| {
            let mut t = trace_walk_addr(&[0], 0x40);
            for _ in 0..3 {
                let mut b = AdcfgBuilder::new();
                b.enter_block(0, 0);
                t.invocations.push(KernelInvocation::new(
                    key(5, "looped"),
                    ((1, 1, 1), (32, 1, 1)),
                    b.finish(),
                ));
            }
            t
        });
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        let looped: Vec<_> = report
            .of_kind(LeakKind::Kernel)
            .filter(|l| matches!(&l.location, LeakLocation::Invocation(k) if k.kernel == "looped"))
            .collect();
        assert_eq!(looped.len(), 1, "{report}");
    }

    #[test]
    fn predicated_access_only_under_one_class_is_data_flow_leak() {
        let fix = evidence_from(|_| trace_walk_addr(&[0], 0x40));
        let rnd = evidence_from(|_| {
            // Same walk, but an extra access at instruction 5.
            let mut b = AdcfgBuilder::new();
            b.enter_block(0, 0);
            b.record_access(0, 0, [0x40]);
            b.record_access(0, 5, [0x80]);
            ProgramTrace {
                invocations: vec![KernelInvocation::new(
                    key(1, "k"),
                    ((1, 1, 1), (32, 1, 1)),
                    b.finish(),
                )],
                mallocs: vec![],
            }
        });
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        assert!(report
            .of_kind(LeakKind::DataFlow)
            .any(|l| matches!(l.location, LeakLocation::Instruction(_, 0, 5))));
    }

    /// One instruction whose address and access cost both reject: the pair
    /// resolves to one leak by `keep_strongest`'s rule.
    fn address_and_cost_leak(rnd_cost: impl Fn(u64) -> u32) -> Leak {
        let trace = |addr, cost| {
            let mut b = AdcfgBuilder::new();
            b.enter_block(0, 0);
            b.record_access(0, 0, [addr]);
            b.record_cost(0, 0, cost);
            ProgramTrace {
                invocations: vec![KernelInvocation::new(
                    key(1, "k"),
                    ((1, 1, 1), (32, 1, 1)),
                    b.finish(),
                )],
                mallocs: vec![],
            }
        };
        let fix = evidence_from(|_| trace(0x40, 1));
        let rnd = evidence_from(|r| trace(0x40 << (r % 2), rnd_cost(r)));
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        let leaks: Vec<_> = report.of_kind(LeakKind::DataFlow).collect();
        assert_eq!(leaks.len(), 1, "{report}");
        leaks[0].clone()
    }

    #[test]
    fn strictly_stronger_cost_is_the_reported_feature() {
        // The cost always differs (D = 1); the address half the time.
        let leak = address_and_cost_leak(|_| 2);
        assert!(
            leak.detail
                .starts_with("memory transaction cost distribution differs"),
            "{leak}"
        );
        assert_eq!(leak.statistic, 1.0);
    }

    #[test]
    fn address_wins_a_p_value_tie_with_cost() {
        // Both features differ half the time: equal D, equal p-value.
        let leak = address_and_cost_leak(|r| 1 + (r % 2) as u32);
        assert!(
            leak.detail.starts_with("address distribution differs"),
            "{leak}"
        );
        assert_eq!(leak.statistic, 0.5);
    }

    #[test]
    fn small_samples_do_not_reject() {
        // With 2 runs each, even disjoint addresses are not significant.
        let fix = Evidence::from_traces((0..2).map(|_| trace_walk_addr(&[0], 0x40)));
        let rnd = Evidence::from_traces((0..2).map(|r| trace_walk_addr(&[0], 0x100 + r * 8)));
        let report = leakage_test(&fix, &rnd, &AnalysisConfig::default());
        assert_eq!(report.count(LeakKind::DataFlow), 0, "{report}");
    }
}
