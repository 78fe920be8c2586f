//! The five workloads. Their names are permanent: results are compared
//! across commits by name.

use crate::ops::{dblp_queries, Corpus, ReadMix, COLD_QUERIES};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    PointRead,
    ScanRead,
    ColdDeep,
    UpdateStorm,
    MixedRw,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PointRead,
        Workload::ScanRead,
        Workload::ColdDeep,
        Workload::UpdateStorm,
        Workload::MixedRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point_read",
            Workload::ScanRead => "scan_read",
            Workload::ColdDeep => "cold_deep",
            Workload::UpdateStorm => "update_storm",
            Workload::MixedRw => "mixed_rw",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn corpus(self) -> Corpus {
        match self {
            Workload::ColdDeep => Corpus::Treebank,
            _ => Corpus::Dblp,
        }
    }

    /// The reads the workload sends; for `update_storm`, the reads its
    /// traced run and its post-recovery check send.
    pub fn mix(self) -> ReadMix {
        match self {
            Workload::PointRead | Workload::MixedRw => ReadMix::Point,
            Workload::ScanRead => ReadMix::Scan,
            Workload::ColdDeep => ReadMix::Cold,
            Workload::UpdateStorm => ReadMix::Keys,
        }
    }

    /// The queries of the mix whose answers the oracle supplies.
    pub fn fixed_queries(self) -> Vec<String> {
        match self.mix() {
            ReadMix::Point => dblp_queries().selective,
            ReadMix::Scan => dblp_queries().heavy,
            ReadMix::Cold => COLD_QUERIES.iter().map(|q| q.to_string()).collect(),
            ReadMix::Keys => Vec::new(),
        }
    }

    /// Requests each connection keeps in flight.
    pub fn depth(self) -> usize {
        match self {
            Workload::PointRead | Workload::MixedRw => 8,
            _ => 1,
        }
    }

    /// The tail percentile the workload reports as `op_tail_us`: the
    /// highest that has ten samples beyond it. A restart cycle takes a
    /// seventh of a second, so `cold_deep` collects under a hundred samples
    /// and reports its 75th percentile.
    pub fn tail_q(self) -> f64 {
        match self {
            Workload::ColdDeep => 0.75,
            _ => 0.95,
        }
    }

    /// One period of the request mix, in operations: throughput is taken
    /// over slices that are whole periods, so every slice is the same work.
    pub fn rate_unit(self) -> usize {
        match self {
            Workload::PointRead | Workload::MixedRw => 32,
            Workload::ScanRead => 8,
            Workload::ColdDeep => 4,
            Workload::UpdateStorm => 3,
        }
    }

    /// Reads and commits of the traced run: fixed counts, so that counters
    /// repeat exactly from run to run.
    pub fn trace_ops(self) -> (usize, u64) {
        match self {
            Workload::PointRead => (2000, 12),
            Workload::ScanRead => (24, 12),
            Workload::ColdDeep => (12, 12),
            Workload::UpdateStorm => (600, 150),
            Workload::MixedRw => (2000, 48),
        }
    }
}

/// Commits per second the open-loop writer of `mixed_rw` is paced at: about
/// a quarter of what `update_storm` sustains on the reference host.
pub const MIXED_WRITE_RATE: u32 = 20;

/// One read in this many is a read-your-writes probe in `mixed_rw`.
pub const RYW_EVERY: usize = 16;
