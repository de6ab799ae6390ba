//! Exporters: Chrome trace-event JSON and a flat metrics document.
//!
//! [`chrome_trace_json`] emits the subset of the Trace Event Format that
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing` load
//! directly: complete (`"X"`) spans for kernel launches and warp stalls,
//! instant (`"i"`) events for everything else, and counter (`"C"`) tracks
//! for the sampled metrics. One simulated cycle maps to one microsecond of
//! trace time; `pid` 0 is the GPU and `tid` is the core index.
//!
//! [`metrics_json`] is the machine-readable companion: run totals plus the
//! full sampled time series (stall breakdown, phase cycles, cache and DRAM
//! activity, Weaver counters), for plotting Figs. 4/17/18-style breakdowns
//! without re-running the simulation.

use std::fmt::Write as _;

use crate::event::{EventData, TraceEvent};
use crate::json::escape;
use crate::metrics::CounterSnapshot;
use crate::tracer::TraceReport;
use crate::Phase;

/// Renders `report` as a Chrome trace-event JSON document.
///
/// # Examples
///
/// ```
/// use sparseweaver_trace::{export, json, TraceConfig, Tracer};
///
/// let mut t = Tracer::new(TraceConfig::default());
/// t.kernel_begin("demo");
/// t.kernel_end(10, &Default::default());
/// let doc = export::chrome_trace_json(&t.take_report());
/// let v = json::parse(&doc).unwrap();
/// assert!(!v.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
/// ```
pub fn chrome_trace_json(report: &TraceReport) -> String {
    let mut out = String::with_capacity(4096 + report.events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };

    // Metadata: name the process. Every event carries ts/pid/tid so the
    // document is uniformly shaped for downstream tooling.
    push(
        &mut out,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"sparseweaver-gpu\"}}"
            .to_string(),
    );

    // Kernel launches as complete spans on the GPU-wide track.
    for k in &report.kernels {
        push(
            &mut out,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":0,\"args\":{{\"cycles\":{}}}}}",
                escape(&k.name),
                k.start,
                k.cycles.max(1),
                k.cycles
            ),
        );
    }

    // Buffered events.
    for e in &report.events {
        push(&mut out, event_json(e));
    }

    // Derived per-core warp-residency timeline: distinct warps observed
    // issuing since the current kernel launch (this plateaus at the
    // register-file residency cap, not the configured warp count), and
    // how many of them sit stalled while the core is blocked.
    let num_cores = report
        .events
        .iter()
        .map(|e| e.core as usize + 1)
        .max()
        .unwrap_or(0);
    let mut issued: Vec<std::collections::BTreeSet<u32>> = vec![Default::default(); num_cores];
    for e in &report.events {
        let core = e.core as usize;
        match &e.data {
            EventData::KernelLaunch { .. } => {
                for (c, set) in issued.iter_mut().enumerate() {
                    if !set.is_empty() {
                        set.clear();
                        push(
                            &mut out,
                            counter_json(
                                e.cycle,
                                &format!("warps:core{c}"),
                                &[("resident", 0), ("stalled", 0)],
                            ),
                        );
                    }
                }
            }
            EventData::WarpIssue { warp, .. } if issued[core].insert(*warp) => {
                push(
                    &mut out,
                    counter_json(
                        e.cycle,
                        &format!("warps:core{core}"),
                        &[("resident", issued[core].len() as u64), ("stalled", 0)],
                    ),
                );
            }
            EventData::WarpStall { cycles, .. } => {
                // The whole core is blocked for [cycle, cycle + cycles):
                // every resident warp is stalled, then none are.
                let n = issued[core].len() as u64;
                push(
                    &mut out,
                    counter_json(
                        e.cycle,
                        &format!("warps:core{core}"),
                        &[("resident", n), ("stalled", n)],
                    ),
                );
                push(
                    &mut out,
                    counter_json(
                        e.cycle + cycles,
                        &format!("warps:core{core}"),
                        &[("resident", n), ("stalled", 0)],
                    ),
                );
            }
            _ => {}
        }
    }

    // Counter tracks from the sampled metrics.
    for s in &report.samples {
        let c = &s.counters;
        let ts = s.cycle;
        push(
            &mut out,
            counter_json(
                ts,
                "stalls",
                &[
                    ("memory", c.stall_memory),
                    ("shared", c.stall_shared),
                    ("exec_dep", c.stall_exec_dep),
                    ("weaver", c.stall_weaver),
                    ("barrier", c.stall_barrier),
                    ("l1_queue", c.stall_l1_queue),
                ],
            ),
        );
        let phases: Vec<(&str, u64)> = Phase::ALL
            .iter()
            .map(|&p| (p.label(), c.phase_cycles[p as usize]))
            .collect();
        push(&mut out, counter_json(ts, "phase_cycles", &phases));
        push(
            &mut out,
            counter_json(
                ts,
                "cache",
                &[
                    ("l1_hits", c.l1_hits),
                    ("l1_misses", c.l1_accesses - c.l1_hits),
                    ("l2_hits", c.l2_hits),
                    ("l3_hits", c.l3_hits),
                    ("dram", c.dram_accesses),
                ],
            ),
        );
        push(
            &mut out,
            counter_json(
                ts,
                "instructions",
                &[("warp", c.instructions), ("thread", c.thread_instructions)],
            ),
        );
        push(
            &mut out,
            counter_json(
                ts,
                "weaver",
                &[
                    ("st_fetches", c.weaver_st_fetches),
                    ("dec_requests", c.weaver_dec_requests),
                    ("registrations", c.weaver_registrations),
                ],
            ),
        );
        push(
            &mut out,
            counter_json(
                ts,
                "faults",
                &[
                    ("injected", c.faults_injected),
                    ("weaver_drops", c.weaver_drops),
                    ("weaver_retries", c.weaver_retries),
                    ("weaver_fallbacks", c.weaver_fallbacks),
                ],
            ),
        );
        push(
            &mut out,
            counter_json(
                ts,
                "occupancy",
                &[
                    ("kernel_high_water", c.kernel_high_water),
                    ("cap", c.occupancy_cap),
                    ("warps_resident", c.warps_resident),
                    ("warps_configured", c.warps_configured),
                ],
            ),
        );
    }

    out.push_str("\n]}\n");
    out
}

fn counter_json(ts: u64, name: &str, fields: &[(&str, u64)]) -> String {
    let args: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
        .collect();
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"tid\":0,\
         \"args\":{{{}}}}}",
        args.join(",")
    )
}

/// One event as a Chrome trace-event JSON object (no trailing newline).
///
/// [`crate::FileSink`] writes one of these per line, so a `.jsonl` trace
/// file concatenates into a Chrome/Perfetto `traceEvents` array with a
/// `jq -s` one-liner.
pub fn event_json(e: &TraceEvent) -> String {
    let (name, cat, args) = match &e.data {
        EventData::KernelLaunch { name } => (
            "kernel_launch".to_string(),
            "kernel",
            format!("\"kernel\":\"{}\"", escape(name)),
        ),
        EventData::KernelEnd { name, cycles } => (
            "kernel_end".to_string(),
            "kernel",
            format!("\"kernel\":\"{}\",\"cycles\":{cycles}", escape(name)),
        ),
        EventData::PhaseBegin { warp, phase } => (
            format!("phase:{}", phase.label()),
            "warp",
            format!("\"warp\":{warp},\"phase\":\"{}\"", phase.label()),
        ),
        EventData::WarpIssue { warp, pc, active } => (
            "issue".to_string(),
            "warp",
            format!("\"warp\":{warp},\"pc\":{pc},\"active\":{active}"),
        ),
        EventData::WarpStall {
            cause,
            phase,
            cycles,
        } => {
            // Stalls are complete spans: [cycle, cycle + cycles).
            return format!(
                "{{\"name\":\"stall:{}\",\"cat\":\"warp\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"cause\":\"{}\",\"phase\":\"{}\"}}}}",
                cause.label(),
                e.cycle,
                (*cycles).max(1),
                e.core,
                cause.label(),
                phase.label()
            );
        }
        EventData::Divergence {
            warp,
            pc,
            taken,
            not_taken,
        } => (
            "divergence".to_string(),
            "warp",
            format!("\"warp\":{warp},\"pc\":{pc},\"taken\":{taken},\"not_taken\":{not_taken}"),
        ),
        EventData::CacheAccess {
            level,
            write,
            queue_delay,
        } => (
            format!(
                "mem:{}:{}",
                level.label(),
                if *write { "write" } else { "read" }
            ),
            "mem",
            format!(
                "\"level\":\"{}\",\"write\":{write},\"queue_delay\":{queue_delay}",
                level.label()
            ),
        ),
        EventData::DramTransaction { write } => {
            ("dram".to_string(), "mem", format!("\"write\":{write}"))
        }
        EventData::WeaverTransition { from, to } => (
            format!("fsm:{}", to.label()),
            "weaver",
            format!("\"from\":\"{}\",\"to\":\"{}\"", from.label(), to.label()),
        ),
        EventData::WeaverTable { op, count } => (
            format!("weaver:{}", op.label()),
            "weaver",
            format!("\"op\":\"{}\",\"count\":{count}", op.label()),
        ),
        EventData::WeaverRetry { kernel, attempt } => (
            "weaver_retry".to_string(),
            "kernel",
            format!("\"kernel\":\"{}\",\"attempt\":{attempt}", escape(kernel)),
        ),
        EventData::WeaverFallback { kernel, schedule } => (
            "weaver_fallback".to_string(),
            "kernel",
            format!(
                "\"kernel\":\"{}\",\"schedule\":\"{}\"",
                escape(kernel),
                escape(schedule)
            ),
        ),
    };
    format!(
        "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
         \"pid\":0,\"tid\":{},\"args\":{{{args}}}}}",
        escape(&name),
        e.cycle,
        e.core
    )
}

/// Renders `report` as a flat metrics JSON document: run totals plus the
/// sampled counter time series.
///
/// # Examples
///
/// ```
/// use sparseweaver_trace::{export, json, TraceConfig, Tracer};
///
/// let mut t = Tracer::new(TraceConfig::default());
/// t.kernel_begin("demo");
/// t.kernel_end(10, &Default::default());
/// let v = json::parse(&export::metrics_json(&t.take_report())).unwrap();
/// assert_eq!(v.get("total_cycles").unwrap().as_num(), Some(10.0));
/// ```
pub fn metrics_json(report: &TraceReport) -> String {
    let mut out = String::with_capacity(1024 + report.samples.len() * 256);
    out.push_str("{\"schema\":\"sparseweaver-metrics-v1\",\n");
    let _ = writeln!(out, "\"sample_every\":{},", report.sample_every);
    let _ = writeln!(out, "\"total_cycles\":{},", report.total_cycles);
    let _ = writeln!(out, "\"dropped_events\":{},", report.dropped);
    out.push_str("\"kernels\":[");
    for (i, k) in report.kernels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"start\":{},\"cycles\":{}}}",
            escape(&k.name),
            k.start,
            k.cycles
        );
    }
    out.push_str("],\n\"totals\":");
    out.push_str(&counters_json(&report.totals));
    out.push_str(",\n\"samples\":[\n");
    for (i, s) in report.samples.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"cycle\":{},\"counters\":{}}}",
            s.cycle,
            counters_json(&s.counters)
        );
    }
    out.push_str("\n]}\n");
    out
}

/// One [`CounterSnapshot`] as a JSON object.
///
/// The `stalls` object mixes units: `memory`, `shared`, `exec_dep` and
/// `weaver` are issue-slot core-cycles and sum to the explicit
/// `stall_total`; `l1_queue` is summed per *access* (port-contention
/// delay) and `barrier` per *warp* (warp-cycles parked at a barrier), so
/// neither contributes to `stall_total`.
pub fn counters_json(c: &CounterSnapshot) -> String {
    let phases: Vec<String> = Phase::ALL
        .iter()
        .map(|&p| format!("\"{}\":{}", escape(p.label()), c.phase_cycles[p as usize]))
        .collect();
    let stall_total = c.stall_memory + c.stall_shared + c.stall_exec_dep + c.stall_weaver;
    format!(
        "{{\"instructions\":{},\"thread_instructions\":{},\
         \"stalls\":{{\"memory\":{},\"shared\":{},\"exec_dep\":{},\"l1_queue\":{},\
         \"barrier\":{},\"weaver\":{},\"stall_total\":{stall_total}}},\
         \"phase_cycles\":{{{}}},\
         \"cache\":{{\"l1_accesses\":{},\"l1_hits\":{},\"l2_accesses\":{},\"l2_hits\":{},\
         \"l3_accesses\":{},\"l3_hits\":{},\"dram_accesses\":{}}},\
         \"shared\":{{\"reads\":{},\"writes\":{}}},\
         \"device_mem\":{{\"reads\":{},\"writes\":{}}},\
         \"weaver\":{{\"st_fetches\":{},\"dec_requests\":{},\"registrations\":{}}},\
         \"faults\":{{\"injected\":{},\"weaver_drops\":{},\"weaver_retries\":{},\
         \"weaver_fallbacks\":{}}},\
         \"occupancy\":{{\"kernel_high_water\":{},\"cap\":{},\"warps_resident\":{},\
         \"warps_configured\":{}}}}}",
        c.instructions,
        c.thread_instructions,
        c.stall_memory,
        c.stall_shared,
        c.stall_exec_dep,
        c.stall_l1_queue,
        c.stall_barrier,
        c.stall_weaver,
        phases.join(","),
        c.l1_accesses,
        c.l1_hits,
        c.l2_accesses,
        c.l2_hits,
        c.l3_accesses,
        c.l3_hits,
        c.dram_accesses,
        c.shared_reads,
        c.shared_writes,
        c.mem_reads,
        c.mem_writes,
        c.weaver_st_fetches,
        c.weaver_dec_requests,
        c.weaver_registrations,
        c.faults_injected,
        c.weaver_drops,
        c.weaver_retries,
        c.weaver_fallbacks,
        c.kernel_high_water,
        c.occupancy_cap,
        c.warps_resident,
        c.warps_configured,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventData, MemLevel, StallCause, TableOp, WeaverState};
    use crate::json;
    use crate::tracer::{TraceConfig, Tracer};

    fn sample_report() -> TraceReport {
        let mut t = Tracer::new(TraceConfig {
            sample_every: 5,
            ..TraceConfig::default()
        });
        t.kernel_begin("bfs_step");
        t.emit(
            1,
            0,
            EventData::WarpIssue {
                warp: 2,
                pc: 7,
                active: 4,
            },
        );
        t.emit(
            2,
            1,
            EventData::CacheAccess {
                level: MemLevel::L2,
                write: false,
                queue_delay: 1,
            },
        );
        t.emit(
            3,
            0,
            EventData::WarpStall {
                cause: StallCause::Memory,
                phase: Phase::GatherSum,
                cycles: 4,
            },
        );
        t.emit(
            4,
            0,
            EventData::WeaverTransition {
                from: WeaverState::S0Init,
                to: WeaverState::S1LoadCed,
            },
        );
        t.emit(
            4,
            0,
            EventData::WeaverTable {
                op: TableOp::StWrite,
                count: 3,
            },
        );
        t.emit(5, 1, EventData::DramTransaction { write: true });
        let mut counters = CounterSnapshot {
            instructions: 9,
            ..CounterSnapshot::default()
        };
        counters.phase_cycles[Phase::GatherSum as usize] = 4;
        t.record_sample(5, &counters);
        t.kernel_end(10, &counters);
        t.take_report()
    }

    #[test]
    fn chrome_trace_parses_and_is_well_formed() {
        let doc = chrome_trace_json(&sample_report());
        let v = json::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events.len() > 8, "got {} events", events.len());
        for e in events {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            assert!(matches!(ph, "M" | "X" | "i" | "C"), "bad ph {ph}");
            assert!(e.get("ts").unwrap().as_num().is_some());
            assert!(e.get("pid").unwrap().as_num().is_some());
            assert!(e.get("tid").unwrap().as_num().is_some());
            if ph == "X" {
                assert!(e.get("dur").unwrap().as_num().unwrap() >= 1.0);
            }
        }
        // Kernel span, a stall span, and counter tracks are all present.
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect();
        assert!(names.contains(&"bfs_step"));
        assert!(names.contains(&"stall:memory"));
        assert!(names.contains(&"stalls"));
        assert!(names.contains(&"phase_cycles"));
        assert!(names.contains(&"mem:L2:read"));
        assert!(names.contains(&"weaver:st_write"));
    }

    #[test]
    fn metrics_document_carries_the_series() {
        let doc = metrics_json(&sample_report());
        let v = json::parse(&doc).expect("valid JSON");
        assert_eq!(v.get("total_cycles").unwrap().as_num(), Some(10.0));
        let samples = v.get("samples").unwrap().as_arr().unwrap();
        assert_eq!(samples.len(), 2); // periodic + kernel-end
        let c = samples[0].get("counters").unwrap();
        assert_eq!(
            c.get("stalls").unwrap().get("memory").unwrap().as_num(),
            Some(0.0)
        );
        assert_eq!(
            c.get("phase_cycles")
                .unwrap()
                .get("Gather & Sum")
                .unwrap()
                .as_num(),
            Some(4.0)
        );
        assert_eq!(c.get("instructions").unwrap().as_num(), Some(9.0));
        let kernels = v.get("kernels").unwrap().as_arr().unwrap();
        assert_eq!(kernels[0].get("name").unwrap().as_str(), Some("bfs_step"));
        // stall_total sums the issue-slot categories only: l1_queue is
        // per-access and barrier per-warp, so neither participates.
        let totals = v.get("totals").unwrap().get("stalls").unwrap();
        let n = |k: &str| totals.get(k).unwrap().as_num().unwrap();
        assert_eq!(
            n("stall_total"),
            n("memory") + n("shared") + n("exec_dep") + n("weaver")
        );
    }

    #[test]
    fn warp_residency_track_is_derived_from_issue_and_stall_events() {
        let mut t = Tracer::new(TraceConfig::default());
        t.kernel_begin("k");
        for w in 0..2 {
            t.emit(
                w as u64 + 1,
                0,
                EventData::WarpIssue {
                    warp: w,
                    pc: 0,
                    active: 4,
                },
            );
        }
        // Re-issues must not grow the resident count.
        t.emit(
            3,
            0,
            EventData::WarpIssue {
                warp: 0,
                pc: 1,
                active: 4,
            },
        );
        t.emit(
            4,
            0,
            EventData::WarpStall {
                cause: StallCause::Memory,
                phase: Phase::GatherSum,
                cycles: 6,
            },
        );
        t.kernel_end(12, &CounterSnapshot::default());
        let doc = chrome_trace_json(&t.take_report());
        let v = json::parse(&doc).unwrap();
        let track: Vec<_> = v
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("warps:core0"))
            .map(|e| {
                (
                    e.get("ts").unwrap().as_num().unwrap() as u64,
                    e.get("args")
                        .unwrap()
                        .get("resident")
                        .unwrap()
                        .as_num()
                        .unwrap() as u64,
                    e.get("args")
                        .unwrap()
                        .get("stalled")
                        .unwrap()
                        .as_num()
                        .unwrap() as u64,
                )
            })
            .collect();
        // Ramp to 2 resident (no third point for the re-issue), then a
        // stall window [4, 10) covering both warps.
        assert_eq!(track, vec![(1, 1, 0), (2, 2, 0), (4, 2, 2), (10, 2, 0)]);
    }

    #[test]
    fn occupancy_gauges_reach_both_documents() {
        let mut t = Tracer::new(TraceConfig::default());
        t.kernel_begin("k");
        let counters = CounterSnapshot {
            kernel_high_water: 16,
            occupancy_cap: 2,
            warps_resident: 2,
            warps_configured: 4,
            ..CounterSnapshot::default()
        };
        t.kernel_end(10, &counters);
        let report = t.take_report();
        let chrome = json::parse(&chrome_trace_json(&report)).unwrap();
        let occ = chrome
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("occupancy"))
            .expect("occupancy counter track");
        assert_eq!(
            occ.get("args").unwrap().get("cap").unwrap().as_num(),
            Some(2.0)
        );
        let metrics = json::parse(&metrics_json(&report)).unwrap();
        let o = metrics.get("totals").unwrap().get("occupancy").unwrap();
        assert_eq!(o.get("kernel_high_water").unwrap().as_num(), Some(16.0));
        assert_eq!(o.get("warps_resident").unwrap().as_num(), Some(2.0));
        assert_eq!(o.get("warps_configured").unwrap().as_num(), Some(4.0));
    }

    #[test]
    fn escaped_kernel_names_survive_round_trip() {
        let mut t = Tracer::new(TraceConfig::default());
        t.kernel_begin("odd \"name\"\n");
        t.kernel_end(1, &CounterSnapshot::default());
        let doc = chrome_trace_json(&t.take_report());
        assert!(json::parse(&doc).is_ok());
    }
}
