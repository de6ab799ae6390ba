//! Property tests for the Weaver FSM: for *any* registered workload, the
//! dense work-ID stream must cover each vertex's edges exactly once, in
//! vertex order, with OD buffers never overfilled — the invariants that
//! make SparseWeaver's sparse-to-dense conversion correct.

use proptest::prelude::*;
use sparseweaver_mem::Hooks;
use sparseweaver_weaver::{SparseTable, StEntry, WeaverConfig, WeaverFsm, WeaverUnit};

/// An arbitrary registration round: per-slot optional `(vid, deg)`;
/// locations assigned CSR-style (consecutive).
fn registration() -> impl Strategy<Value = Vec<Option<(u32, u32)>>> {
    prop::collection::vec(prop::option::weighted(0.7, (0u32..64, 0u32..40)), 0..48).prop_map(
        |mut slots| {
            // Make vids strictly increasing by slot (the compiler's ordered
            // investigation guarantees this), and lay out CSR locations.
            for (next_vid, s) in slots.iter_mut().flatten().enumerate() {
                s.0 = next_vid as u32;
            }
            slots
        },
    )
}

fn load(slots: &[Option<(u32, u32)>], lanes: usize) -> (WeaverFsm, Vec<(u32, u32, u32)>) {
    let mut st = SparseTable::new(slots.len());
    let mut expected = Vec::new();
    let mut loc = 0u32;
    for (i, s) in slots.iter().enumerate() {
        if let Some((vid, deg)) = s {
            st.register(
                i,
                StEntry {
                    vid: *vid,
                    loc,
                    deg: *deg,
                },
            );
            expected.push((*vid, loc, *deg));
            loc += deg;
        }
    }
    let mut fsm = WeaverFsm::new(lanes);
    fsm.load(st);
    (fsm, expected)
}

proptest! {
    /// Every (vid, eid) pair appears exactly once, in vid order, with
    /// consecutive eids per vertex.
    #[test]
    fn emits_each_edge_exactly_once_in_order(
        slots in registration(),
        lanes in 1usize..=32,
    ) {
        let (mut fsm, expected) = load(&slots, lanes);
        let items = fsm.drain_all();
        let mut want = Vec::new();
        for (vid, loc, deg) in expected {
            for k in 0..deg {
                want.push((vid, loc + k));
            }
        }
        prop_assert_eq!(items, want);
    }

    /// Each decode fills at most `lanes` slots, and only the final
    /// pre-exhaustion batch may be partial.
    #[test]
    fn od_occupancy_invariants(slots in registration(), lanes in 1usize..=16) {
        let (mut fsm, _) = load(&slots, lanes);
        let mut batches = Vec::new();
        loop {
            let b = fsm.decode();
            if b.exhausted {
                break;
            }
            batches.push(b.filled());
            prop_assert!(*batches.last().expect("pushed") <= lanes);
        }
        for &f in batches.iter().rev().skip(1) {
            prop_assert_eq!(f, lanes, "only the last batch may be partial");
        }
    }

    /// The returned thread mask has exactly one bit per filled lane,
    /// packed from lane 0.
    #[test]
    fn mask_matches_fill(slots in registration(), lanes in 1usize..=16) {
        let (mut fsm, _) = load(&slots, lanes);
        loop {
            let b = fsm.decode();
            if b.exhausted {
                break;
            }
            let filled = b.filled() as u32;
            prop_assert_eq!(b.mask().count_ones(), filled);
            prop_assert_eq!(b.mask(), (1u64 << filled) - 1);
        }
    }

    /// Skipping a vertex up front removes exactly its edges from the
    /// stream and leaves every other vertex untouched.
    #[test]
    fn skip_removes_exactly_one_vertex(
        slots in registration(),
        lanes in 1usize..=8,
        pick in 0usize..16,
    ) {
        let (mut plain, expected) = load(&slots, lanes);
        let vids: Vec<u32> = expected.iter().map(|e| e.0).collect();
        prop_assume!(!vids.is_empty());
        let victim = vids[pick % vids.len()];
        let full = plain.drain_all();
        let (mut skipped, _) = load(&slots, lanes);
        skipped.skip(victim);
        let got = skipped.drain_all();
        let want: Vec<(u32, u32)> = full.into_iter().filter(|(v, _)| *v != victim).collect();
        prop_assert_eq!(got, want);
    }

    /// The unit wrapper (timing + DT) delivers the same functional stream
    /// as the bare FSM, regardless of which warps issue the requests.
    #[test]
    fn unit_matches_fsm_stream(
        slots in registration(),
        warp_order in prop::collection::vec(0usize..4, 1..64),
    ) {
        let lanes = 4;
        let (mut fsm, _) = load(&slots, lanes);
        let want = fsm.drain_all();

        let mut unit = WeaverUnit::new(
            WeaverConfig { st_capacity: 64, ..WeaverConfig::default() },
            4,
            lanes,
        );
        let hooks = &mut Hooks::default();
        let mut loc = 0u32;
        for (i, s) in slots.iter().enumerate() {
            if let Some((vid, deg)) = s {
                let warp = i / lanes;
                let lane = i % lanes;
                unit.reg(warp, [(lane, *vid, loc, *deg)], i as u64, 0, hooks)
                    .expect("record fits the ST");
                loc += deg;
            }
        }
        let mut got = Vec::new();
        let mut order = warp_order.into_iter().cycle();
        let mut t = 1000;
        loop {
            let w = order.next().expect("cycled");
            let resp = unit.dec_id(w, t, 0, hooks);
            t += 10;
            if resp.batch.exhausted {
                break;
            }
            let (eids, _) = unit.dec_loc(w, t, 0, hooks);
            for (&vid, &eid) in resp.batch.vids.iter().zip(eids).take(lanes) {
                if vid >= 0 {
                    got.push((vid as u32, eid as u32));
                }
            }
            prop_assert!(got.len() <= want.len());
        }
        prop_assert_eq!(got, want);
    }
}
