//! The scheduling schemes compared in the evaluation.

use std::fmt;
use std::str::FromStr;

/// A workload-to-thread mapping scheme (Table I, Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Vertex mapping (`S_vm`): each thread owns a vertex and walks its
    /// whole neighbor list — the naive scheme whose warp time is set by
    /// the highest-degree vertex in the warp (Fig. 1).
    Svm,
    /// Edge mapping (`S_em`): each thread owns an edge. Balanced, but
    /// reads both endpoints per edge (2|E| edge memory accesses).
    Sem,
    /// Warp mapping (`S_wm`, Meng et al. \[33\]): a warp shares its 32 vertices' edges
    /// via a shared-memory degree prefix sum and per-edge binary search.
    Swm,
    /// CTA/core mapping (`S_cm`, Meng et al. \[33\]): like `S_wm` but balanced across
    /// the whole thread block, with block-wide scans and barriers.
    Scm,
    /// Thread/warp/CTA dynamic mapping (`S_twc`, Merrill et al. \[34\]):
    /// vertices are bucketed by degree — supernodes go to a block-wide
    /// queue, medium vertices to per-warp queues (shared-memory atomics),
    /// and small vertices are processed directly by their owning thread.
    Stwc,
    /// The SparseWeaver hardware/software co-design: registration +
    /// `WEAVER_DEC_*` distribution (Fig. 9).
    SparseWeaver,
    /// The edge-generating-hardware baseline of Case Study 1.
    Eghw,
}

impl Schedule {
    /// The four software schemes plus SparseWeaver, as in Fig. 10.
    pub const FIG10: [Schedule; 5] = [
        Schedule::Svm,
        Schedule::Sem,
        Schedule::Swm,
        Schedule::Scm,
        Schedule::SparseWeaver,
    ];

    /// All schemes.
    pub const ALL: [Schedule; 7] = [
        Schedule::Svm,
        Schedule::Sem,
        Schedule::Swm,
        Schedule::Scm,
        Schedule::Stwc,
        Schedule::SparseWeaver,
        Schedule::Eghw,
    ];

    /// Whether the schedule needs the Weaver/EGHW functional unit.
    pub fn uses_unit(self) -> bool {
        matches!(self, Schedule::SparseWeaver | Schedule::Eghw)
    }

    /// A stable numeric id for on-disk formats (the `swckpt-v1`
    /// checkpoint codec). Never renumber these: old checkpoints must
    /// keep decoding to the same scheme.
    pub fn stable_id(self) -> u8 {
        match self {
            Schedule::Svm => 0,
            Schedule::Sem => 1,
            Schedule::Swm => 2,
            Schedule::Scm => 3,
            Schedule::Stwc => 4,
            Schedule::SparseWeaver => 5,
            Schedule::Eghw => 6,
        }
    }

    /// Maps a [`Schedule::stable_id`] back to the scheme; `None` for
    /// unknown ids (a corrupt or future-format checkpoint).
    pub fn from_stable_id(id: u8) -> Option<Schedule> {
        Schedule::ALL.into_iter().find(|s| s.stable_id() == id)
    }

    /// The paper's notation for the scheme.
    pub fn paper_name(self) -> &'static str {
        match self {
            Schedule::Svm => "S_vm",
            Schedule::Sem => "S_em",
            Schedule::Swm => "S_wm",
            Schedule::Scm => "S_cm",
            Schedule::Stwc => "S_twc",
            Schedule::SparseWeaver => "SparseWeaver",
            Schedule::Eghw => "EGHW",
        }
    }
}

/// Parses the command-line spellings: the short names (`svm`, `em`, `wm`,
/// `cm`, `sw`, `eghw`), their `s`-prefixed forms, the paper's notation
/// for the software schemes, and `weaver`/`sparseweaver`.
impl FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "svm" | "S_vm" => Ok(Schedule::Svm),
            "em" | "sem" | "S_em" => Ok(Schedule::Sem),
            "wm" | "swm" | "S_wm" => Ok(Schedule::Swm),
            "cm" | "scm" | "S_cm" => Ok(Schedule::Scm),
            "sw" | "weaver" | "sparseweaver" => Ok(Schedule::SparseWeaver),
            "eghw" => Ok(Schedule::Eghw),
            other => Err(format!("unknown schedule `{other}`")),
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.paper_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_notation() {
        assert_eq!(Schedule::Svm.to_string(), "S_vm");
        assert_eq!(Schedule::SparseWeaver.to_string(), "SparseWeaver");
    }

    #[test]
    fn command_line_spellings_parse() {
        for (name, want) in [
            ("svm", Schedule::Svm),
            ("S_em", Schedule::Sem),
            ("swm", Schedule::Swm),
            ("cm", Schedule::Scm),
            ("weaver", Schedule::SparseWeaver),
            ("eghw", Schedule::Eghw),
        ] {
            assert_eq!(name.parse::<Schedule>(), Ok(want));
        }
        assert_eq!(
            "twc".parse::<Schedule>(),
            Err("unknown schedule `twc`".to_string())
        );
    }

    #[test]
    fn unit_usage() {
        assert!(Schedule::SparseWeaver.uses_unit());
        assert!(Schedule::Eghw.uses_unit());
        assert!(!Schedule::Swm.uses_unit());
    }

    #[test]
    fn fig10_has_five_schemes() {
        assert_eq!(Schedule::FIG10.len(), 5);
        assert!(!Schedule::FIG10.contains(&Schedule::Eghw));
    }
}
