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
//!
//! Both are written through [`crate::json`]: one line, no whitespace. The
//! Chrome trace is not our format and carries no [`Envelope`]; the metrics
//! document opens with one.

use crate::event::{EventData, TraceEvent};
use crate::json::{self, Arr, Envelope, Obj, Schema};
use crate::metrics::CounterSnapshot;
use crate::tracer::TraceReport;
use crate::Phase;

/// The schema of [`metrics_json`] documents.
pub const METRICS_SCHEMA: Schema = Schema::new("sparseweaver-metrics", 2);

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
    json::write_object(&mut out, |o| {
        o.field("displayTimeUnit", "ms");
        o.arr("traceEvents", |a| trace_events(a, report));
    });
    out
}

fn trace_events(a: &mut Arr<'_>, report: &TraceReport) {
    // Metadata: name the process. Every event carries ts/pid/tid so the
    // document is uniformly shaped for downstream tooling.
    a.obj(|o| {
        o.field("name", "process_name")
            .field("ph", "M")
            .field("ts", 0u64)
            .field("pid", 0u64)
            .field("tid", 0u64)
            .obj("args", |o| {
                o.field("name", "sparseweaver-gpu");
            });
    });

    // Kernel launches as complete spans on the GPU-wide track.
    for k in &report.kernels {
        a.obj(|o| {
            o.field("name", &k.name)
                .field("cat", "kernel")
                .field("ph", "X")
                .field("ts", k.start)
                .field("dur", k.cycles.max(1))
                .field("pid", 0u64)
                .field("tid", 0u64)
                .obj("args", |o| {
                    o.field("cycles", k.cycles);
                });
        });
    }

    // Buffered events.
    for e in &report.events {
        a.obj(|o| event_fields(o, e));
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
    let warps = |a: &mut Arr<'_>, ts: u64, core: usize, resident: u64, stalled: u64| {
        counter(
            a,
            ts,
            &format!("warps:core{core}"),
            &[("resident", resident), ("stalled", stalled)],
        );
    };
    for e in &report.events {
        let core = e.core as usize;
        match &e.data {
            EventData::KernelLaunch { .. } => {
                for (c, set) in issued.iter_mut().enumerate() {
                    if !set.is_empty() {
                        set.clear();
                        warps(a, e.cycle, c, 0, 0);
                    }
                }
            }
            EventData::WarpIssue { warp, .. } if issued[core].insert(*warp) => {
                warps(a, e.cycle, core, issued[core].len() as u64, 0);
            }
            EventData::WarpStall { cycles, .. } => {
                // The whole core is blocked for [cycle, cycle + cycles):
                // every resident warp is stalled, then none are.
                let n = issued[core].len() as u64;
                warps(a, e.cycle, core, n, n);
                warps(a, e.cycle + cycles, core, n, 0);
            }
            _ => {}
        }
    }

    // Counter tracks from the sampled metrics.
    for s in &report.samples {
        let c = &s.counters;
        let phases: Vec<(&str, u64)> = Phase::ALL
            .iter()
            .map(|&p| (p.label(), c.phase_cycles[p as usize]))
            .collect();
        let tracks: [(&str, &[(&str, u64)]); 7] = [
            (
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
            ("phase_cycles", &phases),
            (
                "cache",
                &[
                    ("l1_hits", c.l1_hits),
                    ("l1_misses", c.l1_accesses - c.l1_hits),
                    ("l2_hits", c.l2_hits),
                    ("l3_hits", c.l3_hits),
                    ("dram", c.dram_accesses),
                ],
            ),
            (
                "instructions",
                &[("warp", c.instructions), ("thread", c.thread_instructions)],
            ),
            (
                "weaver",
                &[
                    ("st_fetches", c.weaver_st_fetches),
                    ("dec_requests", c.weaver_dec_requests),
                    ("registrations", c.weaver_registrations),
                ],
            ),
            (
                "faults",
                &[
                    ("injected", c.faults_injected),
                    ("weaver_drops", c.weaver_drops),
                    ("weaver_retries", c.weaver_retries),
                    ("weaver_fallbacks", c.weaver_fallbacks),
                ],
            ),
            (
                "occupancy",
                &[
                    ("kernel_high_water", c.kernel_high_water),
                    ("cap", c.occupancy_cap),
                    ("warps_resident", c.warps_resident),
                    ("warps_configured", c.warps_configured),
                ],
            ),
        ];
        for (name, fields) in tracks {
            counter(a, s.cycle, name, fields);
        }
    }
}

fn counter(a: &mut Arr<'_>, ts: u64, name: &str, fields: &[(&str, u64)]) {
    a.obj(|o| {
        o.field("name", name)
            .field("ph", "C")
            .field("ts", ts)
            .field("pid", 0u64)
            .field("tid", 0u64)
            .obj("args", |o| {
                for (k, v) in fields {
                    o.field(k, v);
                }
            });
    });
}

/// One event as a Chrome trace-event JSON object (no trailing newline).
///
/// [`crate::FileSink`] writes one of these per line, so a `.jsonl` trace
/// file concatenates into a Chrome/Perfetto `traceEvents` array with a
/// `jq -s` one-liner.
pub fn event_json(e: &TraceEvent) -> String {
    // Sized for a typical line, so the hot streaming path rarely regrows.
    let mut out = String::with_capacity(160);
    json::write_object(&mut out, |o| event_fields(o, e));
    out
}

fn event_fields(o: &mut Obj<'_>, e: &TraceEvent) {
    match &e.data {
        EventData::KernelLaunch { name } => instant(o, e, "kernel_launch", "kernel", |a| {
            a.field("kernel", name);
        }),
        EventData::KernelEnd { name, cycles } => instant(o, e, "kernel_end", "kernel", |a| {
            a.field("kernel", name).field("cycles", cycles);
        }),
        EventData::PhaseBegin { warp, phase } => {
            instant(o, e, &format!("phase:{}", phase.label()), "warp", |a| {
                a.field("warp", warp).field("phase", phase.label());
            });
        }
        EventData::WarpIssue { warp, pc, active } => instant(o, e, "issue", "warp", |a| {
            a.field("warp", warp)
                .field("pc", pc)
                .field("active", active);
        }),
        EventData::WarpStall {
            cause,
            phase,
            cycles,
        } => {
            // Stalls are complete spans: [cycle, cycle + cycles).
            o.field("name", format!("stall:{}", cause.label()))
                .field("cat", "warp")
                .field("ph", "X")
                .field("ts", e.cycle)
                .field("dur", (*cycles).max(1))
                .field("pid", 0u64)
                .field("tid", e.core)
                .obj("args", |a| {
                    a.field("cause", cause.label())
                        .field("phase", phase.label());
                });
        }
        EventData::Divergence {
            warp,
            pc,
            taken,
            not_taken,
        } => instant(o, e, "divergence", "warp", |a| {
            a.field("warp", warp)
                .field("pc", pc)
                .field("taken", taken)
                .field("not_taken", not_taken);
        }),
        EventData::CacheAccess {
            level,
            write,
            queue_delay,
        } => {
            let rw = if *write { "write" } else { "read" };
            instant(o, e, &format!("mem:{}:{rw}", level.label()), "mem", |a| {
                a.field("level", level.label())
                    .field("write", write)
                    .field("queue_delay", queue_delay);
            });
        }
        EventData::DramTransaction { write } => instant(o, e, "dram", "mem", |a| {
            a.field("write", write);
        }),
        EventData::WeaverTransition { from, to } => {
            instant(o, e, &format!("fsm:{}", to.label()), "weaver", |a| {
                a.field("from", from.label()).field("to", to.label());
            });
        }
        EventData::WeaverTable { op, count } => {
            instant(o, e, &format!("weaver:{}", op.label()), "weaver", |a| {
                a.field("op", op.label()).field("count", count);
            });
        }
        EventData::WeaverRetry { kernel, attempt } => {
            instant(o, e, "weaver_retry", "kernel", |a| {
                a.field("kernel", kernel).field("attempt", attempt);
            })
        }
        EventData::WeaverFallback { kernel, schedule } => {
            instant(o, e, "weaver_fallback", "kernel", |a| {
                a.field("kernel", kernel).field("schedule", schedule);
            });
        }
    }
}

/// The members of an instant event (every event but a stall), its
/// `args` written by `args`.
fn instant(
    o: &mut Obj<'_>,
    e: &TraceEvent,
    name: &str,
    cat: &str,
    args: impl FnOnce(&mut Obj<'_>),
) {
    o.field("name", name)
        .field("cat", cat)
        .field("ph", "i")
        .field("s", "t")
        .field("ts", e.cycle)
        .field("pid", 0u64)
        .field("tid", e.core)
        .obj("args", args);
}

/// Renders `report` as a flat metrics JSON document: run totals plus the
/// sampled counter time series, under a [`METRICS_SCHEMA`] envelope
/// carrying the `config` and `input` (graph) fingerprints, if known.
///
/// # Examples
///
/// ```
/// use sparseweaver_trace::{export, json, TraceConfig, Tracer};
///
/// let mut t = Tracer::new(TraceConfig::default());
/// t.kernel_begin("demo");
/// t.kernel_end(10, &Default::default());
/// let v = json::parse(&export::metrics_json(&t.take_report(), None, None)).unwrap();
/// assert_eq!(v.get("total_cycles").unwrap().as_num(), Some(10.0));
/// ```
pub fn metrics_json(report: &TraceReport, config: Option<u64>, input: Option<u64>) -> String {
    Envelope::new(METRICS_SCHEMA, config, input).object(|o| {
        o.field("sample_every", report.sample_every)
            .field("total_cycles", report.total_cycles)
            .field("dropped_events", report.dropped)
            .arr("kernels", |a| {
                for k in &report.kernels {
                    a.obj(|o| {
                        o.field("name", &k.name)
                            .field("start", k.start)
                            .field("cycles", k.cycles);
                    });
                }
            })
            .obj("totals", |o| counters_fields(o, &report.totals))
            .arr("samples", |a| {
                for s in &report.samples {
                    a.obj(|o| {
                        o.field("cycle", s.cycle)
                            .obj("counters", |o| counters_fields(o, &s.counters));
                    });
                }
            });
    })
}

/// One [`CounterSnapshot`]'s members.
///
/// The `stalls` object mixes units: `memory`, `shared`, `exec_dep` and
/// `weaver` are issue-slot core-cycles and sum to the explicit
/// `stall_total`; `l1_queue` is summed per *access* (port-contention
/// delay) and `barrier` per *warp* (warp-cycles parked at a barrier), so
/// neither contributes to `stall_total`.
fn counters_fields(o: &mut Obj<'_>, c: &CounterSnapshot) {
    o.field("instructions", c.instructions)
        .field("thread_instructions", c.thread_instructions)
        .obj("stalls", |o| {
            o.field("memory", c.stall_memory)
                .field("shared", c.stall_shared)
                .field("exec_dep", c.stall_exec_dep)
                .field("l1_queue", c.stall_l1_queue)
                .field("barrier", c.stall_barrier)
                .field("weaver", c.stall_weaver)
                .field(
                    "stall_total",
                    c.stall_memory + c.stall_shared + c.stall_exec_dep + c.stall_weaver,
                );
        })
        .obj("phase_cycles", |o| {
            for &p in &Phase::ALL {
                o.field(p.label(), c.phase_cycles[p as usize]);
            }
        })
        .obj("cache", |o| {
            o.field("l1_accesses", c.l1_accesses)
                .field("l1_hits", c.l1_hits)
                .field("l2_accesses", c.l2_accesses)
                .field("l2_hits", c.l2_hits)
                .field("l3_accesses", c.l3_accesses)
                .field("l3_hits", c.l3_hits)
                .field("dram_accesses", c.dram_accesses);
        })
        .obj("shared", |o| {
            o.field("reads", c.shared_reads)
                .field("writes", c.shared_writes);
        })
        .obj("device_mem", |o| {
            o.field("reads", c.mem_reads).field("writes", c.mem_writes);
        })
        .obj("weaver", |o| {
            o.field("st_fetches", c.weaver_st_fetches)
                .field("dec_requests", c.weaver_dec_requests)
                .field("registrations", c.weaver_registrations);
        })
        .obj("faults", |o| {
            o.field("injected", c.faults_injected)
                .field("weaver_drops", c.weaver_drops)
                .field("weaver_retries", c.weaver_retries)
                .field("weaver_fallbacks", c.weaver_fallbacks);
        })
        .obj("occupancy", |o| {
            o.field("kernel_high_water", c.kernel_high_water)
                .field("cap", c.occupancy_cap)
                .field("warps_resident", c.warps_resident)
                .field("warps_configured", c.warps_configured);
        });
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
        let doc = metrics_json(&sample_report(), Some(1), None);
        let v = json::parse(&doc).expect("valid JSON");
        let env = json::Envelope::read(&v).expect("envelope");
        assert_eq!(env, json::Envelope::new(METRICS_SCHEMA, Some(1), None));
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
        let metrics = json::parse(&metrics_json(&report, None, None)).unwrap();
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

    #[test]
    fn event_lines_keep_their_bytes() {
        let line = |cycle, core, data| event_json(&TraceEvent { cycle, core, data });
        assert_eq!(
            line(3, 1, EventData::KernelLaunch { name: "k".into() }),
            r#"{"name":"kernel_launch","cat":"kernel","ph":"i","s":"t","ts":3,"pid":0,"tid":1,"args":{"kernel":"k"}}"#
        );
        assert_eq!(
            line(
                5,
                0,
                EventData::WarpStall {
                    cause: StallCause::Memory,
                    phase: Phase::GatherSum,
                    cycles: 4,
                }
            ),
            r#"{"name":"stall:memory","cat":"warp","ph":"X","ts":5,"dur":4,"pid":0,"tid":0,"args":{"cause":"memory","phase":"Gather & Sum"}}"#
        );
        assert_eq!(
            line(
                2,
                1,
                EventData::CacheAccess {
                    level: MemLevel::L2,
                    write: false,
                    queue_delay: 1,
                }
            ),
            r#"{"name":"mem:L2:read","cat":"mem","ph":"i","s":"t","ts":2,"pid":0,"tid":1,"args":{"level":"L2","write":false,"queue_delay":1}}"#
        );
    }
}
