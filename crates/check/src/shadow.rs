//! Epoch-stamped shadow storage: the stand-in for the matrix storage the
//! parallel driver splits into tiles.
//!
//! The mechanism — per-cell phase epochs, current-phase reader/writer
//! sets, conflict detection on both orders of a racing pair — now lives
//! in [`cachegraph_plan::shadow`], generic over the stored value, where
//! every driver checker shares it. This module pins the FW
//! instantiation: the shadow of the distance matrix is a
//! [`ShadowMem`](cachegraph_plan::ShadowMem) over [`Weight`] cells,
//! and `Race.unit` is a flat storage index.

use cachegraph_graph::Weight;

pub use cachegraph_plan::shadow::{Race, RaceKind};

/// Shadow of the FW matrix storage: plan shadow memory over `Weight`
/// cells. Cloning snapshots the full state, which is how the explorer
/// rewinds to a phase start between schedules.
pub type ShadowStorage = cachegraph_plan::ShadowMem<Weight>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_task_rmw_is_clean() {
        let mut s = ShadowStorage::new(vec![1, 2, 3]);
        s.begin_phase();
        let (v, race) = s.read(0, 0);
        assert_eq!((v, race), (1, None));
        assert_eq!(s.write(0, 0, 9), None);
        let (v, race) = s.read(0, 0);
        assert_eq!((v, race), (9, None));
    }

    #[test]
    fn two_writers_race_in_both_orders() {
        let mut s = ShadowStorage::new(vec![0]);
        s.begin_phase();
        assert_eq!(s.write(0, 0, 1), None);
        let race = s.write(0, 1, 2).expect("second writer must race");
        assert_eq!(race.kind, RaceKind::WriteWrite);
        assert_eq!((race.task, race.other), (1, 0));
    }

    #[test]
    fn read_write_conflicts_detected_regardless_of_order() {
        // Writer first, reader second.
        let mut s = ShadowStorage::new(vec![0]);
        s.begin_phase();
        assert_eq!(s.write(0, 0, 1), None);
        let (_, race) = s.read(0, 1);
        assert_eq!(race.map(|r| r.kind), Some(RaceKind::ReadOfConcurrentWrite));

        // Reader first, writer second: still caught, at the write.
        let mut s = ShadowStorage::new(vec![0]);
        s.begin_phase();
        let (_, race) = s.read(0, 1);
        assert_eq!(race, None);
        let race = s.write(0, 0, 1).expect("writer must see the earlier reader");
        assert_eq!(race.kind, RaceKind::WriteAfterRead);
    }

    #[test]
    fn barrier_clears_the_conflict() {
        let mut s = ShadowStorage::new(vec![0]);
        s.begin_phase();
        assert_eq!(s.write(0, 0, 1), None);
        s.begin_phase(); // the barrier
        let (v, race) = s.read(0, 1);
        assert_eq!((v, race), (1, None), "cross-phase read of a stable cell is fine");
        assert_eq!(s.last_write_epoch(0), 1);
        assert_eq!(s.epoch(), 2);
    }
}
