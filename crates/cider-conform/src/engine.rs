//! The engine loop: generate → execute → diff → shrink → corpus,
//! with dispatch-table coverage feeding back into generation.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use cider_core::XnuPersonality;
use cider_fault::{FaultPlan, FaultSite};

use crate::corpus::{CorpusEntry, EntryClass};
use crate::diff::{compare, Dimension};
use crate::exec::{classify_site, execute, ConfigId};
use crate::grammar::{generate, Coverage};
use crate::shrink::shrink;

/// Engine parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Master seed; everything downstream derives from it.
    pub seed: u64,
    /// Number of programs to generate and execute.
    pub programs: usize,
    /// Whether every fourth program also runs under a derived fault
    /// plan (exercising the error paths of all three configurations).
    pub with_faults: bool,
    /// Cap on coverage-witness corpus entries (divergence reproducers
    /// are never capped).
    pub max_coverage_entries: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            seed: 7,
            programs: 200,
            with_faults: true,
            max_coverage_entries: 12,
        }
    }
}

/// The per-pair, per-dimension agreement matrix.
#[derive(Debug, Clone, Default)]
pub struct Matrix {
    cells: BTreeMap<(String, Dimension), (u64, u64)>,
}

impl Matrix {
    fn record(
        &mut self,
        pair: (ConfigId, ConfigId),
        dim: Dimension,
        compared: u64,
        diverged: u64,
    ) {
        let key = (format!("{} vs {}", pair.0.label(), pair.1.label()), dim);
        let cell = self.cells.entry(key).or_insert((0, 0));
        cell.0 += compared;
        cell.1 += diverged;
    }

    /// `(pair label, dimension, compared, diverged)` rows in stable
    /// order.
    pub fn rows(&self) -> Vec<(&str, Dimension, u64, u64)> {
        self.cells
            .iter()
            .map(|((pair, dim), &(c, d))| (pair.as_str(), *dim, c, d))
            .collect()
    }

    /// Total comparisons across all cells.
    pub fn total_comparisons(&self) -> u64 {
        self.cells.values().map(|&(c, _)| c).sum()
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<22} {:<11} {:>9} {:>9} {:>9}",
            "pair", "dimension", "compared", "diverged", "agree"
        )?;
        for (pair, dim, compared, diverged) in self.rows() {
            let agree = if compared == 0 {
                "-".to_string()
            } else {
                format!(
                    "{:.2}%",
                    100.0 * (compared - diverged) as f64 / compared as f64
                )
            };
            writeln!(
                f,
                "{pair:<22} {:<11} {compared:>9} {diverged:>9} {agree:>9}",
                dim.label()
            )?;
        }
        Ok(())
    }
}

/// What a full engine run produced.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Programs generated and executed.
    pub programs_run: usize,
    /// Total ops across all programs.
    pub total_ops: usize,
    /// Programs that produced at least one divergence.
    pub divergent_programs: usize,
    /// The conformance matrix.
    pub matrix: Matrix,
    /// Final dispatch coverage.
    pub coverage: Coverage,
    /// Shrunk corpus entries (divergence reproducers first, then
    /// coverage witnesses), in discovery order.
    pub corpus: Vec<CorpusEntry>,
}

impl EngineReport {
    /// The human-readable report the `cider-conform` bin prints.
    pub fn render(&self, seed: u64) -> String {
        let (covered, universe) = self.coverage.counts();
        let mut s = String::new();
        s.push_str(&format!(
            "cider-conform: {} programs ({} ops) under seed {seed}\n",
            self.programs_run, self.total_ops
        ));
        s.push_str(&format!(
            "divergent programs: {} / {}\n\n",
            self.divergent_programs, self.programs_run
        ));
        s.push_str(&self.matrix.to_string());
        s.push_str(&format!(
            "\ndispatch coverage: {covered}/{universe} entries exercised\n"
        ));
        let uncovered = self.coverage.uncovered();
        if !uncovered.is_empty() {
            let shown: Vec<&str> = uncovered.iter().take(8).copied().collect();
            s.push_str(&format!(
                "uncovered: {}{}\n",
                shown.join(", "),
                if uncovered.len() > 8 { ", ..." } else { "" }
            ));
        }
        s.push_str(&format!("corpus entries: {}\n", self.corpus.len()));
        for e in &self.corpus {
            s.push_str(&format!(
                "  {} [{}] {} ops: {}\n",
                e.name,
                match e.class {
                    EntryClass::Divergence => "divergence",
                    EntryClass::Coverage => "coverage",
                },
                e.program.ops.len(),
                e.note
            ));
        }
        s
    }
}

/// The fault plan program `index` of a run runs under (when faults are
/// enabled). Derived deterministically from the engine seed; sites are
/// restricted to those the workload grammar reaches *symmetrically*.
/// `ForkPteCopy` is deliberately absent: `posix_spawn` forks on the
/// XNU configurations only, so that site's fault-stream draws would
/// desynchronize from the Linux run and report phantom divergences.
pub fn fault_plan_for(seed: u64, index: u64) -> FaultPlan {
    FaultPlan::new(seed ^ (index.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1))
        .with(FaultSite::VfsRead, 150)
        .with(FaultSite::VfsWrite, 150)
        .with(FaultSite::VfsCreate, 120)
        .with(FaultSite::MachPortAllocate, 120)
        .with(FaultSite::MachMsgSend, 120)
}

/// Runs the engine: generates `cfg.programs` programs under
/// `cfg.seed`, executes each under all configurations, accumulates
/// the matrix and coverage, and shrinks a corpus entry for every new
/// divergence signature and every newly covered dispatch site.
pub fn run_engine(cfg: &EngineConfig) -> EngineReport {
    // The coverage universe is every installed entry of the translated
    // persona's Unix and Mach dispatch tables.
    let xnu = XnuPersonality::new();
    let universe: Vec<String> = xnu
        .unix_table()
        .entries()
        .map(|(_, n)| format!("unix/{n}"))
        .chain(xnu.mach_table().entries().map(|(_, n)| format!("mach/{n}")))
        .collect();
    let mut coverage = Coverage::new(universe);

    let mut matrix = Matrix::default();
    let mut corpus: Vec<CorpusEntry> = Vec::new();
    let mut seen_signatures: BTreeSet<String> = BTreeSet::new();
    let mut coverage_entries = 0usize;
    let mut divergent_programs = 0usize;
    let mut total_ops = 0usize;

    for i in 0..cfg.programs as u64 {
        let plan = (cfg.with_faults && i % 4 == 3)
            .then(|| fault_plan_for(cfg.seed, i));
        let program = generate(cfg.seed, i, &coverage);
        total_ops += program.ops.len();
        let out = execute(&program, plan.as_ref());
        let report = compare(&out);

        for (pair, dim, compared) in &report.comparisons {
            let diverged = report
                .divergences
                .iter()
                .filter(|d| d.dimension == *dim && (d.left, d.right) == *pair)
                .count() as u64;
            matrix.record(*pair, *dim, *compared, diverged);
        }
        if !report.divergences.is_empty() {
            divergent_programs += 1;
        }

        // New divergence signatures shrink into regression entries.
        for div in &report.divergences {
            let sig = div.signature();
            if !seen_signatures.insert(sig.clone()) {
                continue;
            }
            let small = shrink(&program, plan.as_ref(), |o| {
                compare(o).divergences.iter().any(|d| d.signature() == sig)
            });
            corpus.push(CorpusEntry::capture(
                format!("div_{}_{}_{}", cfg.seed, i, seen_signatures.len()),
                EntryClass::Divergence,
                cfg.seed,
                i,
                plan.as_ref(),
                sig,
                small,
            ));
        }

        // Newly covered dispatch sites shrink into coverage witnesses.
        for op_name in &out.covered_sites {
            let Some(site) = classify_site(&xnu, op_name) else {
                continue;
            };
            if !coverage.cover(&site) {
                continue;
            }
            if coverage_entries >= cfg.max_coverage_entries {
                continue;
            }
            coverage_entries += 1;
            let want = op_name.clone();
            let small = shrink(&program, plan.as_ref(), |o| {
                o.covered_sites.contains(&want)
            });
            corpus.push(CorpusEntry::capture(
                format!("cov_{}_{}", cfg.seed, op_name),
                EntryClass::Coverage,
                cfg.seed,
                i,
                plan.as_ref(),
                site,
                small,
            ));
        }
    }

    EngineReport {
        programs_run: cfg.programs,
        total_ops,
        divergent_programs,
        matrix,
        coverage,
        corpus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> EngineConfig {
        EngineConfig {
            seed: 7,
            programs: 12,
            with_faults: true,
            max_coverage_entries: 6,
        }
    }

    #[test]
    fn engine_is_deterministic() {
        let a = run_engine(&small_cfg());
        let b = run_engine(&small_cfg());
        assert_eq!(a.render(7), b.render(7));
        assert_eq!(a.corpus.len(), b.corpus.len());
        for (x, y) in a.corpus.iter().zip(&b.corpus) {
            assert_eq!(x.serialize(), y.serialize());
        }
    }

    #[test]
    fn engine_accumulates_matrix_and_coverage() {
        let r = run_engine(&small_cfg());
        assert_eq!(r.programs_run, 12);
        assert!(r.matrix.total_comparisons() > 50);
        let (covered, universe) = r.coverage.counts();
        assert!(universe >= 30, "universe {universe}");
        assert!(covered >= 10, "covered {covered}");
    }

    #[test]
    fn corpus_entries_replay_green() {
        let r = run_engine(&small_cfg());
        assert!(!r.corpus.is_empty());
        for e in &r.corpus {
            e.replay().unwrap_or_else(|m| panic!("{m}"));
        }
    }
}
