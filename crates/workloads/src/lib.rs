//! Workload generators for the evaluation (§VI): FIO's mmap engine, a
//! RocksDB-stand-in key-value store ("MiniDB") driven by DBBench
//! `readrandom` and the YCSB A–F mixes, and SPEC-CPU-2017-like compute
//! kernels for the SMT co-location experiment.
//!
//! A workload is a deterministic state machine producing [`Step`]s; the
//! system simulator executes each step in virtual time (compute advances
//! the thread's clock at its effective IPC; reads, touches and writes
//! walk the full demand-paging machinery) and feeds the data of each
//! [`Step::Read`] back into [`Workload::next`], so data-dependent
//! behavior (and end-to-end data *verification*) is possible. A
//! [`Step::Touch`] is the same access with no data returned, for
//! workloads that never inspect what they load (FIO).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fio;
pub mod kvstore;
pub mod scratch;
pub mod spec;
pub mod ycsb;

pub use fio::{FioRandRead, FioSeqRead};
pub use kvstore::{DbBenchReadRandom, MiniDb, RECORD_HEADER_LEN};
pub use scratch::ScratchChurn;
pub use spec::{SpecKernel, SpecProfile};
pub use ycsb::{Ycsb, YcsbKind};

/// A memory-mapped region handle. The simulator assigns these when a
/// workload's dataset is mapped and translates `(region, offset)` to
/// virtual addresses.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegionId(pub u32);

/// One step of a workload thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Execute `instructions` of user-mode compute.
    Compute {
        /// Instructions to retire.
        instructions: u64,
    },
    /// Read `len` bytes at `offset` within `region` (a load through the
    /// mapped file — may fault). The bytes come back via
    /// [`Workload::next`].
    Read {
        /// Target region.
        region: RegionId,
        /// Byte offset within the region.
        offset: u64,
        /// Bytes to read (≤ 4096; reads never cross a page boundary).
        len: u32,
    },
    /// Load `len` bytes at `offset` within `region` without inspecting
    /// them: the same access as [`Step::Read`] (translation, faults,
    /// access latency, read-latency accounting), but no bytes are copied
    /// and the next [`Workload::next`] call sees the same `last_read` as
    /// if this step had not happened.
    Touch {
        /// Target region.
        region: RegionId,
        /// Byte offset within the region.
        offset: u64,
        /// Bytes loaded (≤ 4096; never crosses a page boundary).
        len: u32,
    },
    /// Write `data` at `offset` within `region` (a store through the
    /// mapped file — may fault, dirties the page).
    Write {
        /// Target region.
        region: RegionId,
        /// Byte offset within the region.
        offset: u64,
        /// Bytes to store.
        data: Vec<u8>,
    },
    /// The workload is finished; the thread exits.
    Finish,
}

impl Step {
    /// The `(region, offset)` a memory access targets; `None` for
    /// compute and finish steps.
    pub fn target(&self) -> Option<(RegionId, u64)> {
        match self {
            Step::Read { region, offset, .. }
            | Step::Touch { region, offset, .. }
            | Step::Write { region, offset, .. } => Some((*region, *offset)),
            Step::Compute { .. } | Step::Finish => None,
        }
    }

    /// Validates the step's invariants (accesses stay within one page).
    pub fn validate(&self) {
        match self {
            Step::Read { offset, len, .. } | Step::Touch { offset, len, .. } => {
                assert!(*len as usize <= 4096, "read longer than a page");
                assert!(
                    (offset % 4096) + *len as u64 <= 4096,
                    "read crosses a page boundary"
                );
            }
            Step::Write { offset, data, .. } => {
                assert!(data.len() <= 4096, "write longer than a page");
                assert!(
                    (offset % 4096) as usize + data.len() <= 4096,
                    "write crosses a page boundary"
                );
            }
            _ => {}
        }
    }
}

/// A deterministic workload state machine.
pub trait Workload {
    /// Produces the next step. `last_read` carries the data returned by the
    /// most recent [`Step::Read`], if any; a [`Step::Touch`] returns no
    /// data and leaves it as it was.
    fn next(&mut self, last_read: Option<&[u8]>) -> Step;

    /// Completed application-level operations (for throughput metrics).
    fn ops_done(&self) -> u64;

    /// Data-integrity violations detected (reads returning wrong bytes).
    fn verify_failures(&self) -> u64 {
        0
    }

    /// Short human-readable name.
    fn name(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_validation_accepts_page_aligned() {
        Step::Read { region: RegionId(0), offset: 4096, len: 4096 }.validate();
        Step::Touch { region: RegionId(0), offset: 4096, len: 4096 }.validate();
        Step::Write { region: RegionId(0), offset: 8192 + 100, data: vec![0; 100] }.validate();
        Step::Compute { instructions: 5 }.validate();
        Step::Finish.validate();
    }

    #[test]
    fn target_names_every_access() {
        let r = RegionId(3);
        assert_eq!(Step::Read { region: r, offset: 8, len: 1 }.target(), Some((r, 8)));
        assert_eq!(Step::Touch { region: r, offset: 16, len: 1 }.target(), Some((r, 16)));
        assert_eq!(Step::Write { region: r, offset: 24, data: vec![1] }.target(), Some((r, 24)));
        assert_eq!(Step::Compute { instructions: 1 }.target(), None);
        assert_eq!(Step::Finish.target(), None);
    }

    #[test]
    #[should_panic(expected = "crosses a page boundary")]
    fn step_validation_rejects_straddling_touch() {
        Step::Touch { region: RegionId(0), offset: 4000, len: 200 }.validate();
    }

    #[test]
    #[should_panic(expected = "crosses a page boundary")]
    fn step_validation_rejects_straddling_read() {
        Step::Read { region: RegionId(0), offset: 4000, len: 200 }.validate();
    }

    #[test]
    #[should_panic(expected = "crosses a page boundary")]
    fn step_validation_rejects_straddling_write() {
        Step::Write { region: RegionId(0), offset: 4090, data: vec![0; 10] }.validate();
    }
}
