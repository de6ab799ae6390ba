//! Bundled ill-formed programs, one per headline failure class.
//!
//! These are the seeded negative cases of the verifier: each is the
//! minimal program triggering one of the hazards the verifier exists to
//! catch. The unit tests below prove each still fires; run them with
//! `cargo test -p sparseweaver-lint fixtures`.

use sparseweaver_isa::{Asm, CsrKind, Instr, Program, Width};

use crate::AnalyzeGeom;

/// The four seeded ill-formed programs, each paired with the rule ID it
/// must trigger.
pub fn ill_formed() -> Vec<(Program, &'static str)> {
    vec![
        (use_before_def(), "SW-L101"),
        (unbalanced_join(), "SW-L201"),
        (divergent_barrier(), "SW-L301"),
        (unregistered_decode(), "SW-L401"),
    ]
}

/// The launch geometry every analyzer fixture is checked against.
pub fn analyzer_geom() -> AnalyzeGeom {
    AnalyzeGeom {
        num_cores: 2,
        warps_per_core: 4,
        threads_per_warp: 8,
        shared_mem_bytes: 1024,
    }
}

/// Seeded analyzer fixtures: programs that are structurally well-formed
/// (clean under [`crate::lint`]) but trigger one SW-L5xx finding each
/// under [`crate::analyze`] at [`analyzer_geom`].
pub fn analyzer_flagged() -> Vec<(Program, &'static str)> {
    vec![
        (oob_proved(), "SW-L501"),
        (oob_possible(), "SW-L502"),
        (barrier_interval_race(), "SW-L511"),
        (coalesced_stream(), "SW-L521"),
        (bank_conflicted(), "SW-L522"),
        (uniform_split(), "SW-L531"),
    ]
}

/// Stores past the end of the 1 KiB scratchpad on every lane: proved OOB.
pub fn oob_proved() -> Program {
    let mut a = Asm::new("bad_oob_proved");
    let addr = a.reg();
    a.li(addr, 4096);
    a.sts(a.zero(), addr, 0, Width::B8);
    a.halt();
    a.finish()
}

/// Lane-scaled store whose top lanes straddle the scratchpad end:
/// possibly OOB (lane 7 · 256 = 1792 ≥ 1024), but not provably so for
/// every lane.
pub fn oob_possible() -> Program {
    let mut a = Asm::new("bad_oob_possible");
    let (lane, addr) = (a.reg(), a.reg());
    a.csr(lane, CsrKind::LaneId);
    a.slli(addr, lane, 8);
    a.sts(a.zero(), addr, 0, Width::B8);
    a.halt();
    a.finish()
}

/// Writes a per-core-thread slot, then immediately reads the *next*
/// thread's slot with no intervening barrier: write/read race across
/// warps within one barrier interval.
pub fn barrier_interval_race() -> Program {
    let mut a = Asm::new("bad_barrier_interval_race");
    let (ctid, addr, v) = (a.reg(), a.reg(), a.reg());
    a.csr(ctid, CsrKind::CoreTid);
    a.slli(addr, ctid, 3);
    a.sts(ctid, addr, 0, Width::B8);
    a.lds(v, addr, 8, Width::B8);
    a.sts(v, addr, 0, Width::B8);
    a.halt();
    a.finish()
}

/// Dense global-tid-indexed stream: provably coalesced (SW-L521 advice).
pub fn coalesced_stream() -> Program {
    let mut a = Asm::new("ok_coalesced_stream");
    let (tid, addr, base, v) = (a.reg(), a.reg(), a.reg(), a.reg());
    a.csr(tid, CsrKind::GlobalTid);
    a.slli(addr, tid, 3);
    a.ldarg(base, 0);
    a.add(addr, addr, base);
    a.ldg(v, addr, 0, Width::B8);
    a.stg(v, addr, 0, Width::B8);
    a.halt();
    a.finish()
}

/// Column-major shared access (lane stride 32 words apart): every lane
/// hits the same 4-byte bank — predicted serialization (SW-L522).
pub fn bank_conflicted() -> Program {
    let mut a = Asm::new("bad_bank_conflicted");
    let (lane, addr, v) = (a.reg(), a.reg(), a.reg());
    a.csr(lane, CsrKind::LaneId);
    a.slli(addr, lane, 7); // lane · 128 B = word stride 32 → one bank
    a.lds(v, addr, 0, Width::B4);
    a.halt();
    a.finish()
}

/// A split on a warp-uniform predicate: no divergence possible — a
/// candidate for the S_dae address-generation slice (SW-L531 advice).
pub fn uniform_split() -> Program {
    let mut a = Asm::new("ok_uniform_split");
    let wid = a.reg();
    a.csr(wid, CsrKind::WarpId);
    a.if_nonzero(wid, |a| a.nop());
    a.halt();
    a.finish()
}

/// Reads two registers nothing ever wrote.
pub fn use_before_def() -> Program {
    let mut a = Asm::new("bad_use_before_def");
    let x = a.reg();
    let y = a.reg();
    let z = a.reg();
    a.add(z, x, y);
    a.halt();
    a.finish()
}

/// A `join` with no enclosing `split`: pops an empty IPDOM stack.
pub fn unbalanced_join() -> Program {
    let mut a = Asm::new("bad_unbalanced_join");
    a.emit(Instr::Join);
    a.halt();
    a.finish()
}

/// A core-wide barrier inside a split region: inactive lanes never arrive.
pub fn divergent_barrier() -> Program {
    let mut a = Asm::new("bad_divergent_barrier");
    let lane = a.reg();
    let c = a.reg();
    a.csr(lane, CsrKind::LaneId);
    a.sltui(c, lane, 1);
    a.if_nonzero(c, |a| a.bar());
    a.halt();
    a.finish()
}

/// `WEAVER_DEC_ID` with no `WEAVER_REG` anywhere: decodes from an
/// unconfigured Weaver unit.
pub fn unregistered_decode() -> Program {
    let mut a = Asm::new("bad_unregistered_decode");
    let v = a.reg();
    a.weaver_dec_id(v);
    a.halt();
    a.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;

    /// Each seeded ill-formed program trips its documented rule at error
    /// severity, and there is one fixture per check family: dataflow,
    /// divergence stack, barrier/mask, Weaver protocol.
    #[test]
    fn every_fixture_triggers_exactly_its_rule() {
        let fixtures = ill_formed();
        let rules: Vec<_> = fixtures.iter().map(|&(_, rule_id)| rule_id).collect();
        assert_eq!(rules, ["SW-L101", "SW-L201", "SW-L301", "SW-L401"]);
        for (program, rule_id) in fixtures {
            let report = crate::lint(&program);
            let hit = report
                .diagnostics
                .iter()
                .find(|d| d.rule.id() == rule_id)
                .unwrap_or_else(|| {
                    panic!(
                        "{} did not trigger {rule_id}:\n{}",
                        program.name(),
                        report.to_text()
                    )
                });
            assert_eq!(hit.severity(), Severity::Error, "{}", program.name());
        }
    }

    /// Each analyzer fixture is structurally clean, without even a
    /// warning (the analyzer finds what the structural verifier cannot),
    /// yet trips its documented SW-L5xx rule; one fixture per rule.
    #[test]
    fn every_analyzer_fixture_triggers_its_rule_and_lints_clean() {
        let geom = analyzer_geom();
        let fixtures = analyzer_flagged();
        let rules: Vec<_> = fixtures.iter().map(|&(_, rule_id)| rule_id).collect();
        assert_eq!(
            rules,
            ["SW-L501", "SW-L502", "SW-L511", "SW-L521", "SW-L522", "SW-L531"]
        );
        for (program, rule_id) in fixtures {
            let lint = crate::lint(&program);
            assert!(
                lint.is_clean() && lint.warning_count() == 0,
                "{} has structural findings:\n{}",
                program.name(),
                lint.to_text()
            );
            let report = crate::analyze(&program, &geom);
            assert!(
                report.diagnostics.iter().any(|d| d.rule.id() == rule_id),
                "{} did not trigger {rule_id}:\n{}",
                program.name(),
                report.to_text()
            );
        }
    }
}
