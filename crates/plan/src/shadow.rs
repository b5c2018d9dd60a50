//! Epoch-stamped shadow memory, generic over the stored value.
//!
//! Where a real driver shares one allocation (through raw pointers, or
//! through disjoint safe borrows), a checker re-executes its semantics
//! over this shadow: plain values plus, per unit, the phase epoch of the
//! last write and the set of tasks that read or wrote the unit *in the
//! current phase*. Any same-phase conflicting access — two writers, a
//! read of a concurrently written unit, or a write of a concurrently read
//! unit — is reported at the access that completes the conflict. Because
//! both orders of a conflicting pair are detected (reader-first via the
//! writer's check of the reader set, writer-first via the reader's check
//! of the writer stamp), a race is flagged on *every* schedule that runs
//! the conflicting tasks in one phase, not just the interleavings that
//! actually corrupt a value.
//!
//! The FW checker instantiates `V = Weight` over matrix cells; the
//! delta-stepping checker uses distance/predecessor pairs and proposal
//! slots; the matching checker uses mate entries.

/// How a pair of same-phase accesses conflicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaceKind {
    /// Two tasks wrote the same unit in one phase.
    WriteWrite,
    /// A task read a unit another task of the same phase writes.
    ReadOfConcurrentWrite,
    /// A task wrote a unit another task of the same phase already read.
    WriteAfterRead,
}

impl std::fmt::Display for RaceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaceKind::WriteWrite => write!(f, "write/write"),
            RaceKind::ReadOfConcurrentWrite => write!(f, "read of concurrently written cell"),
            RaceKind::WriteAfterRead => write!(f, "write of concurrently read cell"),
        }
    }
}

/// One detected race: `task`'s access conflicted with `other`'s earlier
/// same-phase access to `unit`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Race {
    /// Conflict flavor.
    pub kind: RaceKind,
    /// Flat shadow index of the contended unit.
    pub unit: usize,
    /// Task performing the access that completed the conflict.
    pub task: u16,
    /// Task whose earlier access it conflicts with.
    pub other: u16,
}

/// Shadow of a driver's shared state with per-unit epoch stamps and
/// current-phase access bookkeeping. Cloning snapshots the full state,
/// which is how the explorer rewinds to a phase start between schedules.
#[derive(Clone)]
pub struct ShadowMem<V> {
    values: Vec<V>,
    /// Phase epoch of the last write per unit (0 = initial load).
    write_epoch: Vec<u64>,
    /// Task that wrote the unit in the current phase, if any.
    phase_writer: Vec<Option<u16>>,
    /// Tasks that read the unit in the current phase. Task counts per
    /// phase are tiny, so a plain Vec beats a set.
    phase_readers: Vec<Vec<u16>>,
    /// Units touched this phase — makes `begin_phase` O(touched).
    touched: Vec<usize>,
    epoch: u64,
}

impl<V: Copy> ShadowMem<V> {
    /// Shadow an initial value snapshot (epoch 0, no phase active).
    pub fn new(values: Vec<V>) -> Self {
        let len = values.len();
        Self {
            values,
            write_epoch: vec![0; len],
            phase_writer: vec![None; len],
            phase_readers: vec![Vec::new(); len],
            touched: Vec::new(),
            epoch: 0,
        }
    }

    /// Start the next phase: bump the epoch and clear the per-phase
    /// reader/writer bookkeeping (the barrier the real driver gets from
    /// joining its scoped threads).
    pub fn begin_phase(&mut self) {
        self.epoch += 1;
        for &idx in &self.touched {
            self.phase_writer[idx] = None;
            self.phase_readers[idx].clear();
        }
        self.touched.clear();
    }

    /// Current phase epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shadowed unit values.
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Read `idx` as `task`. Reports a race if another task of the
    /// current phase has written the unit.
    pub fn read(&mut self, idx: usize, task: u16) -> (V, Option<Race>) {
        let race = match self.phase_writer[idx] {
            Some(w) if w != task => Some(Race {
                kind: RaceKind::ReadOfConcurrentWrite,
                unit: idx,
                task,
                other: w,
            }),
            _ => None,
        };
        if !self.phase_readers[idx].contains(&task) {
            if self.phase_readers[idx].is_empty() && self.phase_writer[idx].is_none() {
                self.touched.push(idx);
            }
            self.phase_readers[idx].push(task);
        }
        (self.values[idx], race)
    }

    /// Write `v` to `idx` as `task`. Reports a race if another task of
    /// the current phase has written or read the unit.
    pub fn write(&mut self, idx: usize, task: u16, v: V) -> Option<Race> {
        let race = match self.phase_writer[idx] {
            Some(w) if w != task => {
                Some(Race { kind: RaceKind::WriteWrite, unit: idx, task, other: w })
            }
            _ => self
                .phase_readers[idx]
                .iter()
                .find(|&&r| r != task)
                .map(|&r| Race { kind: RaceKind::WriteAfterRead, unit: idx, task, other: r }),
        };
        if self.phase_readers[idx].is_empty() && self.phase_writer[idx].is_none() {
            self.touched.push(idx);
        }
        self.phase_writer[idx] = Some(task);
        self.write_epoch[idx] = self.epoch;
        self.values[idx] = v;
        race
    }

    /// Epoch of the last write to `idx` (0 = never written since load).
    pub fn last_write_epoch(&self, idx: usize) -> u64 {
        self.write_epoch[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_task_rmw_is_clean() {
        let mut s = ShadowMem::new(vec![1u32, 2, 3]);
        s.begin_phase();
        let (v, race) = s.read(0, 0);
        assert_eq!((v, race), (1, None));
        assert_eq!(s.write(0, 0, 9), None);
        let (v, race) = s.read(0, 0);
        assert_eq!((v, race), (9, None));
    }

    #[test]
    fn two_writers_race_in_both_orders() {
        let mut s = ShadowMem::new(vec![0u32]);
        s.begin_phase();
        assert_eq!(s.write(0, 0, 1), None);
        let race = s.write(0, 1, 2).expect("second writer must race");
        assert_eq!(race.kind, RaceKind::WriteWrite);
        assert_eq!((race.task, race.other), (1, 0));
    }

    #[test]
    fn read_write_conflicts_detected_regardless_of_order() {
        // Writer first, reader second.
        let mut s = ShadowMem::new(vec![0u32]);
        s.begin_phase();
        assert_eq!(s.write(0, 0, 1), None);
        let (_, race) = s.read(0, 1);
        assert_eq!(race.map(|r| r.kind), Some(RaceKind::ReadOfConcurrentWrite));

        // Reader first, writer second: still caught, at the write.
        let mut s = ShadowMem::new(vec![0u32]);
        s.begin_phase();
        let (_, race) = s.read(0, 1);
        assert_eq!(race, None);
        let race = s.write(0, 0, 1).expect("writer must see the earlier reader");
        assert_eq!(race.kind, RaceKind::WriteAfterRead);
    }

    #[test]
    fn barrier_clears_the_conflict() {
        let mut s = ShadowMem::new(vec![0u32]);
        s.begin_phase();
        assert_eq!(s.write(0, 0, 1), None);
        s.begin_phase(); // the barrier
        let (v, race) = s.read(0, 1);
        assert_eq!((v, race), (1, None), "cross-phase read of a stable unit is fine");
        assert_eq!(s.last_write_epoch(0), 1);
        assert_eq!(s.epoch(), 2);
    }

    #[test]
    fn non_weight_value_types_work() {
        // The delta-stepping checker shadows (dist, pred) pairs.
        let mut s = ShadowMem::new(vec![(u32::MAX, u32::MAX); 2]);
        s.begin_phase();
        assert_eq!(s.write(1, 3, (7, 0)), None);
        let (v, race) = s.read(1, 3);
        assert_eq!((v, race), ((7, 0), None));
    }
}
