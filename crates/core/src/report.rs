//! Leak reports.

use crate::trace::InvocationKey;
use owl_host::CallSite;
use serde::Serialize;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// The category of a detected leak (paper §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum LeakKind {
    /// Kernel leakage: host code launches different kernels / different
    /// counts / different geometries depending on the input.
    Kernel,
    /// Device control-flow leakage: a basic block's transition behaviour
    /// depends on the input.
    ControlFlow,
    /// Device data-flow leakage: a memory instruction's address
    /// distribution depends on the input.
    DataFlow,
}

impl fmt::Display for LeakKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LeakKind::Kernel => "kernel",
            LeakKind::ControlFlow => "control-flow",
            LeakKind::DataFlow => "data-flow",
        };
        f.write_str(s)
    }
}

/// Where a leak was located.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum LeakLocation {
    /// A kernel invocation site (kernel leaks).
    Invocation(InvocationKey),
    /// A host allocation site (host behaviour observable from the GPU).
    Alloc(CallSite),
    /// A basic block within a kernel (control-flow leaks).
    Block(InvocationKey, u32),
    /// An instruction within a basic block (data-flow leaks).
    Instruction(InvocationKey, u32, u32),
}

impl fmt::Display for LeakLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeakLocation::Invocation(k) => write!(f, "{k}"),
            LeakLocation::Alloc(s) => write!(f, "malloc@{s}"),
            LeakLocation::Block(k, bb) => write!(f, "{k} bb{bb}"),
            LeakLocation::Instruction(k, bb, inst) => write!(f, "{k} bb{bb}:{inst}"),
        }
    }
}

/// One detected leak.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Leak {
    /// Leak category.
    pub kind: LeakKind,
    /// Static location of the leak.
    pub location: LeakLocation,
    /// The KS statistic of the failing test (1.0 for structural
    /// differences such as unaligned invocations).
    pub statistic: f64,
    /// The p-value of the failing test (0.0 for structural differences).
    pub p_value: f64,
    /// Estimated leakage in bits per observation: the mutual information
    /// between the input class and this feature (1.0 for structural
    /// differences — one observation pins the class).
    pub severity_bits: f64,
    /// Human-readable explanation.
    pub detail: String,
}

impl fmt::Display for Leak {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} (D = {:.4}, p = {:.4}, {:.3} bits): {}",
            self.kind, self.location, self.statistic, self.p_value, self.severity_bits, self.detail
        )
    }
}

/// The outcome of the leakage analysis phase.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LeakReport {
    /// The detected leaks, deduplicated by location.
    pub leaks: Vec<Leak>,
    /// How many aligned invocation positions were tested.
    pub tested_invocations: usize,
    /// How many A-DCFG nodes were tested.
    pub tested_nodes: usize,
    /// How many memory instructions were tested.
    pub tested_instructions: usize,
}

impl LeakReport {
    /// `true` when no leak was found.
    pub fn is_clean(&self) -> bool {
        self.leaks.is_empty()
    }

    /// Number of leaks of the given kind.
    pub fn count(&self, kind: LeakKind) -> usize {
        self.leaks.iter().filter(|l| l.kind == kind).count()
    }

    /// The leaks of one kind, in report order.
    pub fn of_kind(&self, kind: LeakKind) -> impl Iterator<Item = &Leak> {
        self.leaks.iter().filter(move |l| l.kind == kind)
    }

    /// Merges another report into this one, deduplicating by location (the
    /// paper screens leaks pointing at the same code location; in the
    /// simulator the block id *is* the static location).
    pub fn merge(&mut self, other: &LeakReport) {
        keep_strongest(&mut self.leaks, other.leaks.iter().cloned());
        self.tested_invocations = self.tested_invocations.max(other.tested_invocations);
        self.tested_nodes = self.tested_nodes.max(other.tested_nodes);
        self.tested_instructions = self.tested_instructions.max(other.tested_instructions);
    }
}

/// Appends `incoming` to `kept` in order, deduplicating by location: the
/// first occurrence of a location keeps its slot, and a later leak at the
/// same location replaces it only with a strictly smaller `p_value` (the
/// stronger signal).
pub(crate) fn keep_strongest(kept: &mut Vec<Leak>, incoming: impl IntoIterator<Item = Leak>) {
    let mut seen: BTreeMap<LeakLocation, usize> = kept
        .iter()
        .enumerate()
        .map(|(i, l)| (l.location.clone(), i))
        .collect();
    for leak in incoming {
        match seen.entry(leak.location.clone()) {
            Entry::Occupied(slot) => {
                let i = *slot.get();
                if leak.p_value < kept[i].p_value {
                    kept[i] = leak;
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(kept.len());
                kept.push(leak);
            }
        }
    }
}

impl LeakReport {
    /// Renders the report with each device leak annotated by the
    /// disassembly of the instruction (or block) it points at, given the
    /// kernels by name. Kernels not provided fall back to the plain
    /// location line.
    pub fn annotate(&self, kernels: &BTreeMap<String, &owl_gpu::KernelProgram>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{self}");
        for leak in &self.leaks {
            let (kernel, bb, inst) = match &leak.location {
                LeakLocation::Block(k, bb) => (k.kernel.as_str(), *bb, None),
                LeakLocation::Instruction(k, bb, inst) => (k.kernel.as_str(), *bb, Some(*inst)),
                _ => continue,
            };
            let Some(program) = kernels.get(kernel) else {
                continue;
            };
            match inst {
                Some(i) => {
                    if let Some(text) = owl_gpu::disasm::instruction_at(program, bb, i) {
                        let _ = writeln!(out, "  {kernel} bb{bb}:{i}  ⇒  {text}");
                    }
                }
                None => {
                    if let Some(block) = program.blocks.get(bb as usize) {
                        for (i, instr) in block.insts.iter().enumerate() {
                            let _ = writeln!(
                                out,
                                "  {kernel} bb{bb}:{i}  ⇒  {}",
                                owl_gpu::disasm::format_inst(instr)
                            );
                        }
                    }
                }
            }
        }
        out
    }
}

impl fmt::Display for LeakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} kernel leaks, {} control-flow leaks, {} data-flow leaks \
             (tested {} invocations, {} blocks, {} instructions)",
            self.count(LeakKind::Kernel),
            self.count(LeakKind::ControlFlow),
            self.count(LeakKind::DataFlow),
            self.tested_invocations,
            self.tested_nodes,
            self.tested_instructions,
        )?;
        for leak in &self.leaks {
            writeln!(f, "  {leak}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> InvocationKey {
        InvocationKey {
            call_site: CallSite {
                file: "f.rs",
                line: 1,
                column: 1,
            },
            kernel: "k".into(),
        }
    }

    fn leak(kind: LeakKind, location: LeakLocation, p: f64) -> Leak {
        Leak {
            kind,
            location,
            statistic: 1.0 - p,
            p_value: p,
            severity_bits: 1.0 - p,
            detail: "test".into(),
        }
    }

    #[test]
    fn counts_by_kind() {
        let mut r = LeakReport::default();
        r.leaks
            .push(leak(LeakKind::Kernel, LeakLocation::Invocation(key()), 0.0));
        r.leaks.push(leak(
            LeakKind::DataFlow,
            LeakLocation::Instruction(key(), 1, 0),
            0.01,
        ));
        assert_eq!(r.count(LeakKind::Kernel), 1);
        assert_eq!(r.count(LeakKind::DataFlow), 1);
        assert_eq!(r.count(LeakKind::ControlFlow), 0);
        assert!(!r.is_clean());
    }

    #[test]
    fn merge_dedups_by_location_and_keeps_strongest() {
        let loc = LeakLocation::Block(key(), 4);
        let mut a = LeakReport {
            leaks: vec![leak(LeakKind::ControlFlow, loc.clone(), 0.04)],
            ..Default::default()
        };
        let b = LeakReport {
            leaks: vec![
                leak(LeakKind::ControlFlow, loc.clone(), 0.001),
                leak(LeakKind::Kernel, LeakLocation::Invocation(key()), 0.0),
            ],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.leaks.len(), 2);
        let merged = a.leaks.iter().find(|l| l.location == loc).unwrap();
        assert_eq!(merged.p_value, 0.001);
    }

    #[test]
    fn display_is_informative() {
        let r = LeakReport {
            leaks: vec![leak(LeakKind::Kernel, LeakLocation::Invocation(key()), 0.0)],
            tested_invocations: 3,
            tested_nodes: 10,
            tested_instructions: 20,
        };
        let s = r.to_string();
        assert!(s.contains("1 kernel leaks"));
        assert!(s.contains("k@f.rs:1:1"));
    }
}
