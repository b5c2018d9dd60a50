//! Dynamic footprint recording over opaque units.
//!
//! The unit-domain counterpart of `cachegraph-fw`'s `RecordingAccess`:
//! a driver whose task bodies are generic over a [`UnitSink`] can run
//! the *same* code once with [`NoSink`] (production, every hook inlines
//! to nothing) and once with [`UnitRecorder`] (tests), yielding the set
//! of units the task actually touched. The differential footprint tests
//! compare that recording against the plan-declared [`TaskFootprint`]
//! — the second leg of the three-way evidence (statically inferred ⊆
//! declared ⊇ dynamically recorded).

use std::collections::BTreeSet;

use crate::footprint::{TaskFootprint, Unit};

/// Observer for a task body's unit-level reads and writes.
pub trait UnitSink {
    /// The task read `unit`.
    fn read(&mut self, unit: Unit);
    /// The task wrote `unit`.
    fn write(&mut self, unit: Unit);
}

/// The production sink: both hooks compile to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoSink;

impl UnitSink for NoSink {
    #[inline(always)]
    fn read(&mut self, _unit: Unit) {}
    #[inline(always)]
    fn write(&mut self, _unit: Unit) {}
}

/// Records every unit touched, deduplicated.
#[derive(Clone, Debug, Default)]
pub struct UnitRecorder {
    /// Units read at least once.
    pub reads: BTreeSet<Unit>,
    /// Units written at least once.
    pub writes: BTreeSet<Unit>,
}

impl UnitRecorder {
    /// An empty recording.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recording as a footprint, for direct comparison against a
    /// declared [`TaskFootprint`].
    pub fn to_footprint(&self) -> TaskFootprint {
        TaskFootprint { reads: self.reads.clone(), writes: self.writes.clone() }
    }

    /// True when every recorded access lies inside `declared`.
    pub fn within(&self, declared: &TaskFootprint) -> bool {
        self.reads.is_subset(&declared.reads) && self.writes.is_subset(&declared.writes)
    }
}

impl UnitSink for UnitRecorder {
    fn read(&mut self, unit: Unit) {
        self.reads.insert(unit);
    }
    fn write(&mut self, unit: Unit) {
        self.writes.insert(unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_dedupes_and_compares() {
        let mut r = UnitRecorder::new();
        r.read(3);
        r.read(3);
        r.write(5);
        assert_eq!(r.reads.len(), 1);
        let mut declared = TaskFootprint::default();
        declared.reads.insert(3);
        declared.writes.insert(5);
        assert!(r.within(&declared));
        r.write(6);
        assert!(!r.within(&declared));
        assert_eq!(r.to_footprint().writes.len(), 2);
    }

    #[test]
    fn no_sink_is_inert() {
        let mut s = NoSink;
        s.read(1);
        s.write(2);
    }
}
