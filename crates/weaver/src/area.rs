//! The FPGA area model (Table IV, Fig. 16).
//!
//! The paper synthesizes the extended Vortex RTL with Quartus Prime Pro
//! for an Intel Stratix 10 and reports:
//!
//! - +678 dedicated logic registers per core (0.045% of the core's
//!   registers) for the Workload Info Table and Work ID Table logic;
//! - +3109 adaptive logic modules (ALMs) per core (2.96%) for the FSM and
//!   instruction support;
//! - a 16-core GPU grows from 580,332 to 591,971 ALMs (+2.01%);
//! - no additional block memory, RAM blocks, or DSP blocks (the tables
//!   live in existing shared memory);
//! - +251 lines of SystemVerilog over a 184,449-line codebase (0.136%).
//!
//! Without an FPGA toolchain we replace synthesis with a parametric model
//! *calibrated to those published data points* (see `DESIGN.md`,
//! substitution 4): base ALMs are linear in core count through the two
//! published configurations, and Weaver ALMs are linear with a shared
//! decode component (the 16-core synthesis shares logic, which is why the
//! paper's 16-core delta is 11,639 rather than 16 x 3109).

/// Published constants this model is calibrated against.
pub mod calibration {
    /// ALMs of the default 1-core Vortex (Table IV).
    pub const BASE_ALM_1: u64 = 105_094;
    /// ALMs of the default 16-core Vortex (Table IV).
    pub const BASE_ALM_16: u64 = 580_332;
    /// ALMs of the 1-core Vortex with SparseWeaver (Table IV).
    pub const SW_ALM_1: u64 = 108_203;
    /// ALMs of the 16-core Vortex with SparseWeaver (Table IV).
    pub const SW_ALM_16: u64 = 591_971;
    /// Dedicated logic registers added per core.
    pub const WEAVER_REGS_PER_CORE: u64 = 678;
    /// Register overhead fraction per core (0.045%).
    pub const REG_OVERHEAD_FRACTION: f64 = 0.00045;
    /// Added SystemVerilog lines.
    pub const SV_LINES_ADDED: u64 = 251;
    /// Baseline SystemVerilog lines.
    pub const SV_LINES_BASE: u64 = 184_449;
}

/// One row of the Table IV report.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaRow {
    /// Configuration label, e.g. `"1-core default"`.
    pub config: String,
    /// Total ALMs.
    pub total_alms: u64,
    /// ALM increase over the matching default, as a percentage.
    pub alm_increase_pct: f64,
    /// Block-memory increase (always 0: tables are in shared memory).
    pub block_memory_pct: f64,
    /// RAM-block increase (always 0).
    pub ram_pct: f64,
    /// DSP increase (always 0).
    pub dsp_pct: f64,
}

/// Base Vortex ALMs for `cores` cores (linear through the 1- and 16-core
/// synthesis results; the negative intercept reflects per-core logic that
/// the uncore amortizes at scale).
pub fn base_alms(cores: u32) -> u64 {
    use calibration::*;
    let per_core = (BASE_ALM_16 - BASE_ALM_1) as f64 / 15.0;
    let uncore = BASE_ALM_1 as f64 - per_core;
    (uncore + per_core * cores as f64).round() as u64
}

/// Weaver's ALM cost for `cores` cores (linear through the published 1-
/// and 16-core deltas: a shared decode component plus a per-core part).
pub fn weaver_alms(cores: u32) -> u64 {
    use calibration::*;
    let d1 = (SW_ALM_1 - BASE_ALM_1) as f64;
    let d16 = (SW_ALM_16 - BASE_ALM_16) as f64;
    let per_core = (d16 - d1) / 15.0;
    let shared = d1 - per_core;
    (shared + per_core * cores as f64).round() as u64
}

/// Weaver's dedicated-logic-register cost for `cores` cores.
pub fn weaver_registers(cores: u32) -> u64 {
    calibration::WEAVER_REGS_PER_CORE * cores as u64
}

/// Baseline per-core register count implied by the paper's 0.045% figure.
pub fn base_registers(cores: u32) -> u64 {
    use calibration::*;
    ((WEAVER_REGS_PER_CORE as f64 / REG_OVERHEAD_FRACTION).round() as u64) * cores as u64
}

/// Register overhead as a percentage for `cores` cores.
pub fn register_overhead_pct(cores: u32) -> f64 {
    100.0 * weaver_registers(cores) as f64 / base_registers(cores) as f64
}

/// Generates the Table IV rows for a list of core counts.
pub fn table_iv(core_counts: &[u32]) -> Vec<AreaRow> {
    let mut rows = Vec::new();
    for &cores in core_counts {
        let base = base_alms(cores);
        let with = base + weaver_alms(cores);
        rows.push(AreaRow {
            config: format!("{cores}-core default"),
            total_alms: base,
            alm_increase_pct: 100.0 * weaver_alms(cores) as f64 / base as f64,
            block_memory_pct: 0.0,
            ram_pct: 0.0,
            dsp_pct: 0.0,
        });
        rows.push(AreaRow {
            config: format!("{cores}-core w/ SparseWeaver"),
            total_alms: with,
            alm_increase_pct: 100.0 * weaver_alms(cores) as f64 / base as f64,
            block_memory_pct: 0.0,
            ram_pct: 0.0,
            dsp_pct: 0.0,
        });
    }
    rows
}

/// A per-module ALM breakdown for the Fig. 16 utilization report.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockBreakdown {
    /// `(module name, ALMs, added by SparseWeaver?)` rows.
    pub modules: Vec<(String, u64, bool)>,
}

impl BlockBreakdown {
    /// Total ALMs across modules.
    pub fn total(&self) -> u64 {
        self.modules.iter().map(|m| m.1).sum()
    }

    /// ALMs added by SparseWeaver.
    pub fn added(&self) -> u64 {
        self.modules.iter().filter(|m| m.2).map(|m| m.1).sum()
    }
}

/// Produces the per-module utilization breakdown behind Fig. 16.
///
/// The split of the base core follows Vortex's published module structure
/// (fetch/issue/execute/LSU/SFU/L1); the Weaver additions split the
/// calibrated delta between the FSM and the table-index logic.
pub fn block_breakdown(cores: u32, with_weaver: bool) -> BlockBreakdown {
    let base = base_alms(cores) as f64;
    let mut modules = vec![
        ("fetch/decode".to_string(), (base * 0.12) as u64, false),
        ("issue/scoreboard".to_string(), (base * 0.16) as u64, false),
        ("integer ALUs".to_string(), (base * 0.22) as u64, false),
        ("FPU".to_string(), (base * 0.18) as u64, false),
        ("LSU".to_string(), (base * 0.14) as u64, false),
        ("SFU".to_string(), (base * 0.06) as u64, false),
        ("L1 cache control".to_string(), (base * 0.12) as u64, false),
    ];
    let listed: u64 = modules.iter().map(|m| m.1).sum();
    modules.push((
        "interconnect/uncore".to_string(),
        base as u64 - listed,
        false,
    ));
    if with_weaver {
        let add = weaver_alms(cores);
        let fsm = (add as f64 * 0.7) as u64;
        modules.push(("Weaver FSM + ISA decode".to_string(), fsm, true));
        modules.push(("ST/DT index logic".to_string(), add - fsm, true));
    }
    BlockBreakdown { modules }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibration::*;

    #[test]
    fn calibration_points_reproduced_exactly() {
        assert_eq!(base_alms(1), BASE_ALM_1);
        assert_eq!(base_alms(16), BASE_ALM_16);
        assert_eq!(base_alms(1) + weaver_alms(1), SW_ALM_1);
        assert_eq!(base_alms(16) + weaver_alms(16), SW_ALM_16);
    }

    #[test]
    fn paper_percentages_match() {
        let rows = table_iv(&[1, 16]);
        // 2.96% for 1 core, 2.01% for 16 cores (Table IV).
        assert!((rows[0].alm_increase_pct - 2.96).abs() < 0.01);
        assert!((rows[2].alm_increase_pct - 2.01).abs() < 0.01);
        assert_eq!(rows[1].total_alms, SW_ALM_1);
        assert_eq!(rows[3].total_alms, SW_ALM_16);
    }

    #[test]
    fn register_overhead_is_0_045_pct() {
        assert!((register_overhead_pct(1) - 0.045).abs() < 0.001);
        assert!((register_overhead_pct(16) - 0.045).abs() < 0.001);
        assert_eq!(weaver_registers(16), 678 * 16);
    }

    #[test]
    fn no_memory_block_overhead() {
        for row in table_iv(&[1, 16]) {
            assert_eq!(row.block_memory_pct, 0.0);
            assert_eq!(row.ram_pct, 0.0);
            assert_eq!(row.dsp_pct, 0.0);
        }
    }

    #[test]
    fn breakdown_sums_to_totals() {
        let b = block_breakdown(1, false);
        assert_eq!(b.total(), base_alms(1));
        assert_eq!(b.added(), 0);
        let bw = block_breakdown(1, true);
        assert_eq!(bw.total(), base_alms(1) + weaver_alms(1));
        assert_eq!(bw.added(), weaver_alms(1));
    }

    #[test]
    fn sv_line_overhead_fraction() {
        let pct = 100.0 * SV_LINES_ADDED as f64 / SV_LINES_BASE as f64;
        assert!((pct - 0.136).abs() < 0.001);
    }
}
