//! The Sparse Workload Information Table (ST) and Dense Work ID Table (DT).

use sparseweaver_trace::codec::{CodecError, Dec, Enc, Snapshot};

use crate::EMPTY_WORK_ID;

/// One registration record: the shared data each thread contributes in the
/// registration stage (Section III-B).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StEntry {
    /// Base vertex ID.
    pub vid: u32,
    /// Start location of the vertex's neighbor range in the edge array.
    pub loc: u32,
    /// Number of neighbors (degree). Filtered vertices register degree 0.
    pub deg: u32,
}

sparseweaver_trace::snapshot_fields!(StEntry { vid, loc, deg });

/// The Sparse Workload Information Table.
///
/// A fixed-capacity table indexed by `warp_id * threads_per_warp +
/// thread_id`, which — combined with the compiler investigating vertices in
/// software-thread-ID order — makes an index-order scan a vertex-ID-order
/// scan (the "out-of-order registration, ordered scan" design decision).
///
/// # Examples
///
/// ```
/// use sparseweaver_weaver::{SparseTable, StEntry};
///
/// let mut st = SparseTable::new(4);
/// st.register(2, StEntry { vid: 7, loc: 10, deg: 3 });
/// assert_eq!(st.get(2).unwrap().vid, 7);
/// assert!(st.get(0).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct SparseTable {
    entries: Vec<Option<StEntry>>,
}

impl SparseTable {
    /// Creates an empty table with `capacity` slots (512 per core in the
    /// paper's configuration).
    pub fn new(capacity: usize) -> Self {
        SparseTable {
            entries: vec![None; capacity],
        }
    }

    /// Table capacity.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Number of occupied slots.
    pub fn occupied(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Stores `entry` at `index` (the registering thread's hardware slot).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range — the compiler's chunked
    /// registration loop guarantees it never is.
    pub fn register(&mut self, index: usize, entry: StEntry) {
        self.entries[index] = Some(entry);
    }

    /// The entry at `index`, if that slot was registered this round.
    pub fn get(&self, index: usize) -> Option<StEntry> {
        self.entries.get(index).copied().flatten()
    }

    /// Clears all slots (new registration round).
    pub fn clear(&mut self) {
        for e in &mut self.entries {
            *e = None;
        }
    }

    /// Iterates over `(index, entry)` pairs of occupied slots in index
    /// (= vertex) order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, StEntry)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|e| (i, e)))
    }
}

/// All slots in index order. Restore adopts the saved capacity: the FSM
/// holds either an empty table or an installed registration round.
impl Snapshot for SparseTable {
    fn save(&self, e: &mut Enc) {
        self.entries.save(e);
    }

    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        self.entries.restore(d)
    }
}

/// The Dense Work ID Table: one row of edge IDs per warp.
///
/// `WEAVER_DEC_ID` writes a warp's row as a side effect of decoding;
/// `WEAVER_DEC_LOC` reads it back (Fig. 7).
#[derive(Debug, Clone)]
pub struct DenseTable {
    rows: Vec<Vec<i64>>,
}

impl DenseTable {
    /// Creates a table with `warps` rows of `lanes` entries, all empty.
    pub fn new(warps: usize, lanes: usize) -> Self {
        DenseTable {
            rows: vec![vec![EMPTY_WORK_ID; lanes]; warps],
        }
    }

    /// Number of warp rows.
    pub fn warps(&self) -> usize {
        self.rows.len()
    }

    /// Stores the generated edge IDs for `warp`.
    ///
    /// # Panics
    ///
    /// Panics if `warp` is out of range or `eids` is wider than the row.
    pub fn store_row(&mut self, warp: usize, eids: &[i64]) {
        let row = &mut self.rows[warp];
        assert!(eids.len() <= row.len(), "OD wider than DT row");
        row[..eids.len()].copy_from_slice(eids);
        for e in &mut row[eids.len()..] {
            *e = EMPTY_WORK_ID;
        }
    }

    /// Reads `warp`'s row.
    ///
    /// # Panics
    ///
    /// Panics if `warp` is out of range.
    pub fn load_row(&self, warp: usize) -> &[i64] {
        &self.rows[warp]
    }

    /// Empties every row (between kernels).
    pub fn clear(&mut self) {
        for row in &mut self.rows {
            row.fill(EMPTY_WORK_ID);
        }
    }
}

/// All rows in warp order; the restoring table must have the same shape.
impl Snapshot for DenseTable {
    fn save(&self, e: &mut Enc) {
        e.seq(&self.rows);
    }

    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        d.expect_len("rows", self.rows.len())?;
        for (i, row) in self.rows.iter_mut().enumerate() {
            d.restore_seq(&format!("row {i}"), row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn st_register_and_clear() {
        let mut st = SparseTable::new(8);
        st.register(
            3,
            StEntry {
                vid: 1,
                loc: 2,
                deg: 3,
            },
        );
        st.register(
            5,
            StEntry {
                vid: 9,
                loc: 0,
                deg: 0,
            },
        );
        assert_eq!(st.occupied(), 2);
        let collected: Vec<_> = st.iter().map(|(i, e)| (i, e.vid)).collect();
        assert_eq!(collected, vec![(3, 1), (5, 9)]);
        st.clear();
        assert_eq!(st.occupied(), 0);
    }

    #[test]
    fn st_iter_is_index_ordered() {
        let mut st = SparseTable::new(16);
        // Registered out of order (out-of-order warp execution)...
        st.register(
            10,
            StEntry {
                vid: 10,
                loc: 0,
                deg: 1,
            },
        );
        st.register(
            2,
            StEntry {
                vid: 2,
                loc: 0,
                deg: 1,
            },
        );
        st.register(
            7,
            StEntry {
                vid: 7,
                loc: 0,
                deg: 1,
            },
        );
        // ...scanned in order.
        let vids: Vec<_> = st.iter().map(|(_, e)| e.vid).collect();
        assert_eq!(vids, vec![2, 7, 10]);
    }

    #[test]
    #[should_panic]
    fn st_out_of_range_register_panics() {
        let mut st = SparseTable::new(2);
        st.register(
            5,
            StEntry {
                vid: 0,
                loc: 0,
                deg: 0,
            },
        );
    }

    #[test]
    fn dt_rows_default_empty() {
        let dt = DenseTable::new(2, 4);
        assert_eq!(dt.load_row(1), &[EMPTY_WORK_ID; 4]);
    }

    #[test]
    fn dt_store_pads_with_empty() {
        let mut dt = DenseTable::new(1, 4);
        dt.store_row(0, &[5, 6]);
        assert_eq!(dt.load_row(0), &[5, 6, EMPTY_WORK_ID, EMPTY_WORK_ID]);
        dt.store_row(0, &[9]);
        assert_eq!(
            dt.load_row(0),
            &[9, EMPTY_WORK_ID, EMPTY_WORK_ID, EMPTY_WORK_ID]
        );
    }

    #[test]
    #[should_panic(expected = "OD wider")]
    fn dt_overwide_row_panics() {
        let mut dt = DenseTable::new(1, 2);
        dt.store_row(0, &[1, 2, 3]);
    }
}
