//! Property tests for the robustness layer: decode totality under
//! arbitrary corruption, `--inject` spec parsing under byte mutation,
//! campaign classification totality, and campaign determinism.
//!
//! The machine model's contract is *typed errors, never panics*: a
//! corrupted instruction word is an [`IllegalInstruction`] or executes
//! as the mutated instruction; a corrupted run lands in exactly one of
//! the four campaign classes (masked / SDC / detected-crash / hang).
//! See `docs/robustness.md`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use sparseweaver::core::algorithms::Bfs;
use sparseweaver::core::campaign::{run_campaign, CampaignConfig};
use sparseweaver::core::Schedule;
use sparseweaver::fault::{FaultSpec, SplitMix64};
use sparseweaver::graph::generators;
use sparseweaver::isa::encode::{decode_instr, decode_weaver, encode_instr};
use sparseweaver::sim::GpuConfig;

/// A fast machine for hang-prone property runs: a corrupted branch can
/// loop until the cycle limit, so keep that limit small.
fn bounded_config() -> GpuConfig {
    let mut cfg = GpuConfig::small_test();
    cfg.max_cycles = 100_000;
    cfg
}

fn campaign(spec: &str, seed: u64, runs: u32) -> sparseweaver::core::campaign::CampaignResult {
    let g = generators::uniform(16, 48, 3);
    run_campaign(
        &bounded_config(),
        &g,
        &Bfs::new(0),
        Schedule::SparseWeaver,
        &CampaignConfig::new(FaultSpec::parse(spec).expect("valid spec"), seed, runs),
    )
    .expect("golden run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoding *arbitrary* header/payload pairs returns `Ok` or a typed
    /// `DecodeError` — never panics, never indexes out of range.
    #[test]
    fn decoding_arbitrary_words_never_panics(hdr in any::<u32>(), payload in any::<u64>()) {
        let _ = decode_instr(hdr, payload);
        let _ = decode_weaver(hdr);
    }

    /// Any instruction that survives decoding round-trips through the
    /// encoder without panicking (the fetch-fault path re-encodes every
    /// issued instruction).
    #[test]
    fn decoded_instructions_reencode_without_panicking(
        hdr in any::<u32>(),
        payload in any::<u64>(),
    ) {
        if let Ok(instr) = decode_instr(hdr, payload) {
            let _ = encode_instr(&instr);
        }
    }
}

proptest! {
    // Each case is a golden run plus two injected BFS runs; keep the
    // case count modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Bit-flipped programs (instruction-fetch corruption at a high rate)
    /// never panic the simulator, and every run lands in exactly one of
    /// the four outcome classes.
    #[test]
    fn bit_flipped_programs_are_always_classified(seed in any::<u64>()) {
        let r = campaign("fetch=0.01", seed, 2);
        prop_assert_eq!(r.panics, 0, "simulator panicked under fetch corruption");
        prop_assert!(r.summary.is_classified(), "unclassified run: {:?}", r.summary);
    }

    /// Mixed-site corruption (registers, memory words, fetch, Weaver
    /// responses) keeps the same totality guarantee.
    #[test]
    fn mixed_site_corruption_is_always_classified(seed in any::<u64>()) {
        let r = campaign("reg=0.005,mem=0.002,fetch=0.002,weaver-drop=0.05", seed, 2);
        prop_assert_eq!(r.panics, 0);
        prop_assert!(r.summary.is_classified(), "unclassified run: {:?}", r.summary);
    }

    /// The same campaign seed reproduces the campaign byte-for-byte:
    /// identical per-run outcomes and an identical rendered summary.
    #[test]
    fn same_seed_gives_byte_identical_campaign(seed in any::<u64>()) {
        let a = campaign("reg=0.003,mem=0.001", seed, 2);
        let b = campaign("reg=0.003,mem=0.001", seed, 2);
        prop_assert_eq!(a.summary.to_json(), b.summary.to_json());
        prop_assert_eq!(a.runs, b.runs);
        prop_assert_eq!(a.panics, b.panics);
    }
}

/// Seeded byte mutants of real `--inject` specs that name all five sites:
/// each parses to a spec whose every rate lies in [0, 1], or to an error
/// message, and never panics.
#[test]
fn mutated_fault_specs_parse_or_fail_typed() {
    const MUTATIONS: usize = 2000;
    // Bytes that matter to the grammar, drawn half the time; any ASCII
    // byte otherwise (the CLI hands the parser UTF-8 text).
    const ALPHABET: &[u8] = b"0123456789.,=:-+eEinfaINFAN regmfthwvdlay";
    let seeds = [
        "reg=0.002,mem=0.001,fetch=0.001,weaver-drop=0.02,weaver-delay=0.05:300",
        "weaver-delay=0.5,fetch=1e-3,reg=1,weaver-drop=0.25,mem=0",
    ];
    let mut rng = SplitMix64::new(0xfa17);
    let byte = |rng: &mut SplitMix64| {
        if rng.below(2) == 0 {
            ALPHABET[rng.below(ALPHABET.len() as u64) as usize]
        } else {
            rng.below(128) as u8
        }
    };
    let (mut parsed, mut refused) = (0, 0);
    for seed in seeds {
        FaultSpec::parse(seed).expect("seed spec parses");
        let sites = ["reg=", "mem=", "fetch=", "weaver-drop=", "weaver-delay="];
        assert!(sites.iter().all(|site| seed.contains(site)));
        let text = seed.as_bytes();
        for i in 0..3 * MUTATIONS {
            let mut mutant = text.to_vec();
            let at = rng.below(text.len() as u64) as usize;
            match i / MUTATIONS {
                0 => mutant[at] = byte(&mut rng),
                1 => mutant.insert(at, byte(&mut rng)),
                _ => {
                    mutant.remove(at);
                }
            }
            let doc = std::str::from_utf8(&mutant).expect("ASCII mutants stay UTF-8");
            match catch_unwind(AssertUnwindSafe(|| FaultSpec::parse(doc))) {
                Ok(Ok(s)) => {
                    let rates = [
                        s.reg_rate,
                        s.mem_rate,
                        s.fetch_rate,
                        s.weaver_drop_rate,
                        s.weaver_delay_rate,
                    ];
                    assert!(
                        rates.iter().all(|r| (0.0..=1.0).contains(r)),
                        "`{doc}` parsed to {s:?}"
                    );
                    parsed += 1;
                }
                Ok(Err(e)) => {
                    assert!(!e.is_empty(), "`{doc}`: empty error");
                    refused += 1;
                }
                Err(_) => panic!("mutant {i} of `{seed}` (byte {at}) panicked: `{doc}`"),
            }
        }
    }
    assert!(parsed > 0, "some mutations must land in plain data");
    assert!(refused > 0, "some mutations must be refused");
}
