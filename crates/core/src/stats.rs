//! Instrumentation statistics: everything Table 2 reports about a run.

use crate::dtrg::DtrgCounters;
use futrace_util::stats::Moments;

/// Counters accumulated by the detector over one run; the structural
/// columns of Table 2 plus internal cost accounting.
#[derive(Clone, Debug, Default)]
pub struct DetectorStats {
    /// Dynamic tasks created, excluding main (#Tasks).
    pub tasks: u64,
    /// Future tasks among them.
    pub future_tasks: u64,
    /// Async tasks among them.
    pub async_tasks: u64,
    /// Shared-memory reads.
    pub reads: u64,
    /// Shared-memory writes.
    pub writes: u64,
    /// Readers stored in the shadow cell at the moment of each checked
    /// access, as exact integer moments (#AvgReaders is
    /// `readers_at_access.mean()`).
    pub readers_at_access: Moments,
    /// DTRG counters (gets, non-tree edges, merges, precede costs).
    pub dtrg: DtrgCounters,
}

impl DetectorStats {
    /// Total shared-memory accesses (#SharedMem).
    pub fn shared_mem(&self) -> u64 {
        self.reads + self.writes
    }

    /// Table 2's #AvgReaders: mean number of stored parallel readers per
    /// access (0..=1 for pure async-finish programs, unbounded with
    /// futures).
    pub fn avg_readers(&self) -> f64 {
        self.readers_at_access.mean()
    }

    /// Table 2's #NTJoins: gets that are non-tree joins in the
    /// computation-graph sense.
    pub fn nt_joins(&self) -> u64 {
        self.dtrg.graph_nt_joins
    }
}

impl std::fmt::Display for DetectorStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "#Tasks:      {}", self.tasks)?;
        writeln!(f, "  async:     {}", self.async_tasks)?;
        writeln!(f, "  future:    {}", self.future_tasks)?;
        writeln!(f, "#NTJoins:    {}", self.nt_joins())?;
        writeln!(f, "#SharedMem:  {}", self.shared_mem())?;
        writeln!(f, "#AvgReaders: {:.3}", self.avg_readers())?;
        writeln!(f, "gets:        {}", self.dtrg.gets)?;
        writeln!(f, "  merging:   {}", self.dtrg.merging_gets)?;
        writeln!(f, "  nt-edges:  {}", self.dtrg.nt_edges)?;
        writeln!(f, "merges:      {}", self.dtrg.merges)?;
        writeln!(f, "precede:     {}", self.dtrg.precede_calls)?;
        writeln!(f, "visits:      {}", self.dtrg.visit_expansions)?;
        writeln!(
            f,
            "memo:        {} hit(s), {} miss(es)",
            self.dtrg.memo_hits, self.dtrg.memo_misses
        )?;
        write!(f, "fast-path:   {} hit(s)", self.dtrg.shadow_hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_columns() {
        let mut s = DetectorStats {
            reads: 10,
            writes: 5,
            ..Default::default()
        };
        s.readers_at_access.push(0);
        s.readers_at_access.push(2);
        assert_eq!(s.shared_mem(), 15);
        assert!((s.avg_readers() - 1.0).abs() < 1e-12);
        let text = s.to_string();
        assert!(text.contains("#SharedMem:  15"));
        assert!(text.contains("#AvgReaders: 1.000"));
    }
}
