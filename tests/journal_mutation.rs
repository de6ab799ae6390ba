//! Byte-mutation robustness of the campaign journal: a real journal from
//! a small campaign has single bytes overwritten at thousands of seeded
//! positions (its envelope header line included) and is cut short at
//! seeded lengths. Every resume from a mutant must either finish with the
//! uninterrupted campaign's summary or be refused with a typed
//! `FrameworkError` — never a panic, and never a different summary.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use sparseweaver::core::algorithms::Bfs;
use sparseweaver::core::campaign::{run_campaign_with, CampaignConfig, CampaignCtl};
use sparseweaver::core::checkpoint::CheckpointError;
use sparseweaver::core::{FrameworkError, Schedule};
use sparseweaver::fault::{FaultSpec, SplitMix64};
use sparseweaver::graph::{generators, Csr};
use sparseweaver::sim::GpuConfig;

/// Seeded single-byte mutations, and seeded truncations.
const MUTATIONS: usize = 2000;
const TRUNCATIONS: usize = 30;

struct Campaign {
    graph: Csr,
    cfg: GpuConfig,
    config: CampaignConfig,
}

impl Campaign {
    /// Runs (or, with `resume`, resumes) the campaign against the journal
    /// at `path`, failing the test on a panic.
    fn run(&self, path: &Path, resume: bool, what: &str) -> Result<String, FrameworkError> {
        let ctl = CampaignCtl {
            journal: Some(path.to_path_buf()),
            resume,
            ..CampaignCtl::default()
        };
        catch_unwind(AssertUnwindSafe(|| {
            run_campaign_with(
                &self.cfg,
                &self.graph,
                &Bfs::new(0),
                Schedule::SparseWeaver,
                &self.config,
                &ctl,
            )
        }))
        .unwrap_or_else(|_| panic!("{what} panicked"))
        .map(|r| r.summary.to_json())
    }
}

#[test]
fn mutated_journals_resume_or_fail_typed() {
    let campaign = Campaign {
        graph: generators::uniform(16, 40, 3),
        cfg: GpuConfig::small_test(),
        config: CampaignConfig::new(FaultSpec::parse("reg=0.01,mem=0.005").unwrap(), 7, 6),
    };
    let path =
        std::env::temp_dir().join(format!("sw_journal_mutation_{}.jsonl", std::process::id()));
    let golden = campaign
        .run(&path, false, "the uninterrupted campaign")
        .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;

    let mut rng = SplitMix64::new(0x5eed);
    let (mut refused, mut header_refused) = (0, 0);
    let check = |damaged: &[u8], what: String| {
        std::fs::write(&path, damaged).unwrap();
        match campaign.run(&path, true, &what) {
            Ok(summary) => {
                assert_eq!(summary, golden, "{what} resumed to a different summary");
                true
            }
            Err(
                FrameworkError::Io { .. }
                | FrameworkError::Checkpoint(
                    CheckpointError::Corrupt { .. } | CheckpointError::Restore { .. },
                ),
            ) => false,
            Err(e) => panic!("{what}: unexpected error {e:?}"),
        }
    };
    for i in 0..MUTATIONS {
        // Every fourth mutation lands in the envelope header line.
        let span = if i % 4 == 0 { header_len } else { bytes.len() };
        let at = rng.below(span as u64) as usize;
        let mut damaged = bytes.clone();
        damaged[at] ^= 1 + rng.below(255) as u8;
        if !check(&damaged, format!("mutating byte {at}")) {
            refused += 1;
            header_refused += usize::from(at < header_len);
        }
    }
    // The entries carry checksums, so nearly every flip is refused; a
    // flipped final newline only tears the last line, which re-runs.
    assert!(refused > MUTATIONS / 2, "{refused} of {MUTATIONS} refused");
    assert!(header_refused > 0, "damaged headers must be refused");

    // A cut anywhere resumes (a torn tail re-runs) or starts afresh.
    for _ in 0..TRUNCATIONS {
        let len = rng.below(bytes.len() as u64) as usize;
        assert!(check(&bytes[..len], format!("cutting to {len} bytes")));
    }
    std::fs::remove_file(&path).unwrap();
}
