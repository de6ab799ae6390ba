//! A microscope on the Weaver hardware itself: drive the Fig. 6 FSM and
//! the unit's timing model directly, without the full framework.
//!
//! Reproduces the paper's worked example — ST entries `(0,2,1)`,
//! `(2,10,2)`, `(4,30,5)` on a 4-lane warp — then demonstrates skip
//! signals and the latency-hiding property behind Fig. 13.
//!
//! ```text
//! cargo run --release --example weaver_microscope
//! ```

use sparseweaver::mem::Hooks;
use sparseweaver::weaver::{SparseTable, StEntry, WeaverConfig, WeaverFsm, WeaverUnit};

fn main() {
    println!("=== Fig. 6 worked example ===");
    let mut st = SparseTable::new(4);
    st.register(
        0,
        StEntry {
            vid: 0,
            loc: 2,
            deg: 1,
        },
    );
    st.register(
        1,
        StEntry {
            vid: 2,
            loc: 10,
            deg: 2,
        },
    );
    st.register(
        2,
        StEntry {
            vid: 4,
            loc: 30,
            deg: 5,
        },
    );
    let mut fsm = WeaverFsm::new(4);
    fsm.load(st);

    let b1 = fsm.decode();
    println!(
        "OD 1: vids {:?}  eids {:?}  mask {:#06b}",
        b1.vids,
        b1.eids,
        b1.mask()
    );
    println!("      FSM path: {:?}", fsm.trace());
    let b2 = fsm.decode();
    println!(
        "OD 2: vids {:?}  eids {:?} (the degree-5 supernode spills)",
        b2.vids, b2.eids
    );
    let b3 = fsm.decode();
    println!("OD 3: exhausted = {} (empty work IDs)\n", b3.exhausted);

    println!("=== WEAVER_SKIP on a supernode ===");
    let mut st = SparseTable::new(2);
    st.register(
        0,
        StEntry {
            vid: 7,
            loc: 0,
            deg: 1000,
        },
    );
    st.register(
        1,
        StEntry {
            vid: 8,
            loc: 1000,
            deg: 1,
        },
    );
    let mut fsm = WeaverFsm::new(4);
    fsm.load(st);
    let first = fsm.decode();
    println!("before skip: vids {:?}", first.vids);
    fsm.skip(7); // BFS found vertex 7's parent: drop its 996 leftovers
    let after = fsm.decode();
    println!(
        "after  skip: vids {:?} (straight to vertex 8)\n",
        after.vids
    );

    println!("=== Latency hiding (the Fig. 13 flat line) ===");
    for lat in [10, 40, 160] {
        let cfg = WeaverConfig {
            table_latency: lat,
            ..WeaverConfig::default()
        };
        let mut unit = WeaverUnit::new(cfg, 8, 4);
        let hooks = &mut Hooks::default();
        unit.reg(0, [(0, 0, 0, 64), (1, 1, 64, 64)], 0, 0, hooks)
            .expect("two records fit the ST");
        // Back-to-back decode requests from different warps: occupancy
        // (one table read per slot) serializes them, but the table READ
        // LATENCY only adds to each response's depth - it pipelines.
        let t0 = 100;
        let a = unit.dec_id(0, t0, 0, hooks);
        let b = unit.dec_id(1, t0, 0, hooks);
        println!(
            "table latency {lat:>3}: warp0 ready at {}, warp1 at {} (gap {})",
            a.ready_at,
            b.ready_at,
            b.ready_at - a.ready_at
        );
    }
    println!("\nThe inter-request gap is set by occupancy, not latency —");
    println!("with 32 warps in flight, the table latency vanishes (Fig. 13).");
}
