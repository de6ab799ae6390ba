//! Byte-mutation robustness of the JSON reader: real profile, metrics and
//! Chrome-trace artifacts from one small traced and profiled run have
//! single bytes overwritten at thousands of seeded positions, are cut
//! short at seeded lengths, and get runs of brackets spliced in. Every
//! mutant must either parse or be refused with a typed `ParseError` —
//! never a panic, and never a stack overflow.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sparseweaver::core::algorithms::Bfs;
use sparseweaver::core::{profile, Schedule, Session};
use sparseweaver::fault::SplitMix64;
use sparseweaver::graph::generators;
use sparseweaver::sim::GpuConfig;
use sparseweaver::trace::json::{self, Envelope, ParseError, MAX_DEPTH};
use sparseweaver::trace::{export, TraceConfig};

/// Seeded single-byte mutations and truncations, per artifact.
const MUTATIONS: usize = 1000;
const TRUNCATIONS: usize = 50;
const SPLICES: usize = 20;

/// The three artifacts, named.
fn artifacts() -> Vec<(&'static str, String)> {
    let cfg = GpuConfig::small_test();
    let graph = generators::uniform(16, 40, 3);
    let mut session = Session::new(cfg);
    // A short event ring keeps the Chrome trace to tens of kilobytes, so
    // a thousand debug-build parses take seconds.
    session.trace = Some(TraceConfig {
        sample_every: 100,
        ring_capacity: 256,
        ..TraceConfig::default()
    });
    session.profile = true;
    let report = session
        .run(&graph, &Bfs::new(0), Schedule::SparseWeaver)
        .unwrap();
    let trace = report.trace.as_ref().expect("trace collected");
    vec![
        ("profile", profile::render(&report, &cfg, &graph)),
        ("metrics", export::metrics_json(trace, Some(1), Some(2))),
        ("chrome trace", export::chrome_trace_json(trace)),
    ]
}

/// Parses `bytes` (lossily decoded, as a reader that skipped the UTF-8
/// check would see them) and reads an envelope from the result, failing
/// the test on a panic.
fn parse(bytes: &[u8], what: &str) -> Result<(), ParseError> {
    let text = String::from_utf8_lossy(bytes);
    catch_unwind(AssertUnwindSafe(|| {
        let doc = json::parse(&text).inspect_err(|e| {
            let (ParseError::Syntax { at, .. } | ParseError::TooDeep { at }) = e;
            assert!(*at <= text.len(), "{what}: offset {at} past the end");
        })?;
        let _ = Envelope::read(&doc);
        Ok(())
    }))
    .unwrap_or_else(|_| panic!("{what} panicked"))
}

/// Whether `bytes` parse (see [`parse`]).
fn parses(bytes: &[u8], what: &str) -> bool {
    parse(bytes, what).is_ok()
}

#[test]
fn mutated_artifacts_parse_or_fail_typed() {
    let mut rng = SplitMix64::new(0x15_0b);
    for (kind, doc) in artifacts() {
        let bytes = doc.into_bytes();
        assert!(parses(&bytes, kind), "the unmutated {kind} parses");
        let mut refused = 0;
        for _ in 0..MUTATIONS {
            let at = rng.below(bytes.len() as u64) as usize;
            let mut damaged = bytes.clone();
            damaged[at] ^= 1 + rng.below(255) as u8;
            refused += usize::from(!parses(&damaged, &format!("{kind}: byte {at}")));
        }
        // Most flips break the syntax; some only change a digit or a
        // letter inside a string.
        assert!(
            refused > MUTATIONS / 4,
            "{kind}: {refused} of {MUTATIONS} refused"
        );

        for _ in 0..TRUNCATIONS {
            let len = rng.below(bytes.len() as u64) as usize;
            assert!(
                !parses(&bytes[..len], &format!("{kind}: cut to {len} bytes")),
                "{kind}: a document cut to {len} bytes is incomplete"
            );
        }

        // Brackets spliced in after a colon: where a member's value
        // starts they nest too deep, a typed refusal; inside a string
        // they are text.
        let mut too_deep = 0;
        for _ in 0..SPLICES {
            let from = rng.below(bytes.len() as u64) as usize;
            let Some(colon) = bytes[from..].iter().position(|&b| b == b':') else {
                continue;
            };
            let at = from + colon + 1;
            let open = if rng.below(2) == 0 { "[" } else { "{\"k\":" };
            let mut spliced = bytes[..at].to_vec();
            spliced.extend(open.repeat(MAX_DEPTH * 4).bytes());
            spliced.extend_from_slice(&bytes[at..]);
            let what = format!("{kind}: brackets at {at}");
            too_deep += usize::from(matches!(
                parse(&spliced, &what),
                Err(ParseError::TooDeep { .. })
            ));
        }
        assert!(too_deep > 0, "{kind}: no splice nested too deep");
    }
}
