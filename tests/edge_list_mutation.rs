//! Byte-mutation robustness of the edge-list reader: a real `swsim gen`
//! edge list has single bytes overwritten, inserted and deleted at
//! thousands of seeded positions. Every mutant must parse into a graph or
//! into a typed `ParseEdgeListError` — never a panic.
//!
//! The reader takes text (a file that is not UTF-8 is refused when it is
//! read, before parsing), so mutant bytes are ASCII. The seed graph's ids
//! and weights have at most two digits: merging two numbers of a line, the
//! worst a single byte can do, then yields at most a five-digit id, and no
//! mutant asks this process for a large vertex array.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;

use sparseweaver::fault::SplitMix64;
use sparseweaver::graph::io;

/// Seeded mutants of each kind: overwrite, insert, delete.
const MUTATIONS: usize = 2000;

/// Bytes that matter to the format, drawn half the time; any ASCII byte
/// otherwise.
const ALPHABET: &[u8] = b"0123456789 \t\n\r#%-+.e";

#[test]
fn mutated_edge_lists_parse_or_fail_typed() {
    let out = Command::new(env!("CARGO_BIN_EXE_swsim"))
        .args(["gen", "--gen", "powerlaw:40:150:1.8:4", "-o", "-"])
        .output()
        .expect("spawn swsim gen");
    assert!(out.status.success(), "swsim gen failed: {out:?}");
    let text = out.stdout;
    let seed =
        io::parse_edge_list(std::str::from_utf8(&text).expect("ASCII")).expect("seed parses");
    assert!(seed.num_edges() >= 150 && seed.num_vertices() <= 40);

    let mut rng = SplitMix64::new(0xed9e);
    let byte = |rng: &mut SplitMix64| {
        if rng.below(2) == 0 {
            ALPHABET[rng.below(ALPHABET.len() as u64) as usize]
        } else {
            rng.below(128) as u8
        }
    };
    let (mut parsed, mut refused) = (0, 0);
    for i in 0..3 * MUTATIONS {
        let mut mutant = text.clone();
        let at = rng.below(text.len() as u64) as usize;
        match i / MUTATIONS {
            0 => mutant[at] = byte(&mut rng),
            1 => mutant.insert(at, byte(&mut rng)),
            _ => {
                mutant.remove(at);
            }
        }
        let doc = std::str::from_utf8(&mutant).expect("ASCII mutants stay UTF-8");
        let lines = doc.lines().count();
        match catch_unwind(AssertUnwindSafe(|| io::parse_edge_list(doc))) {
            Ok(Ok(g)) => {
                assert_eq!(g.offsets().last().copied(), Some(g.num_edges() as u32));
                parsed += 1;
            }
            Ok(Err(e)) => {
                assert!((1..=lines).contains(&e.line()), "mutant {i}: {e}");
                refused += 1;
            }
            Err(_) => panic!("mutant {i} (byte {at}) panicked:\n{doc}"),
        }
    }
    assert!(parsed > 0, "some mutations must land in plain data");
    assert!(refused > 0, "some mutations must be refused");
}
