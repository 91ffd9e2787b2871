//! The serve phase: an open-loop generator drives the in-process server
//! over a fixed number of keep-alive connections, then every reply is
//! checked against an in-process replay of the same streams.

use crate::client::{request_bytes, Conn};
use crate::ledger::{mean, Ledger};
use crate::plan::{Class, Due, Op};
use crate::solve::same_solve;
use crate::stats::Samples;
use crate::universe::{session_open, Stream};
use ses_core::{OnlineSession, SesInstance};
use ses_obs::{SpanRecord, Stage, TraceId};
use ses_server::MetricsReport;
use ses_service::{EventReport, SchedulerService, SessionReport, SolveResponse};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub conn: usize,
    pub op: Op,
    /// Due, sent and done instants, ns after the window opened.
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// Send and completion on the `ses_obs::now_ns` clock (span matching).
    pub obs_sent: u64,
    pub obs_done: u64,
    /// HTTP status (0 on a transport error).
    pub status: u16,
    pub body: String,
    /// The exact request bytes sent.
    pub request: Vec<u8>,
}

impl Outcome {
    /// Latency from the due time (what a user of an open system sees), ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }

    /// How late the generator sent the request, ms.
    pub fn late_ms(&self) -> f64 {
        (self.sent_ns - self.due_ns) as f64 / 1e6
    }

    /// Client-observed service time (send to reply), µs.
    pub fn round_trip_us(&self) -> f64 {
        (self.done_ns - self.sent_ns) as f64 / 1e3
    }
}

fn route(op: &Op, streams: &[Stream]) -> (&'static str, String, String) {
    match op {
        Op::Open { name, .. } => (
            "POST",
            format!("/sessions/{name}/open"),
            serde_json::to_string(&session_open(name)).expect("open serializes"),
        ),
        Op::Event { name, stream, idx } => (
            "POST",
            format!("/sessions/{name}/event"),
            streams[*stream].bodies[*idx].clone(),
        ),
        Op::Report { name, .. } => ("POST", format!("/sessions/{name}/report"), String::new()),
        Op::Close { name, .. } => ("POST", format!("/sessions/{name}/close"), String::new()),
        Op::Solve => (
            "POST",
            "/solve".to_owned(),
            serde_json::to_string(&crate::solve::request()).expect("solve serializes"),
        ),
        Op::Metrics => ("GET", "/metrics".to_owned(), String::new()),
    }
}

/// Sends every connection's schedule, each on its own thread and
/// connection, starting together. With `traces`, connection `c` stamps
/// every request with trace id `traces[c]`; its spans are later split by
/// the send/done interval of each request (requests on one connection
/// never overlap).
pub fn drive(
    addr: &str,
    plans: &[Vec<Due>],
    streams: &[Stream],
    traces: Option<&[TraceId]>,
) -> Vec<Outcome> {
    let prepared: Vec<Vec<Vec<u8>>> = plans
        .iter()
        .enumerate()
        .map(|(c, plan)| {
            let trace = traces.map(|t| t[c].to_string());
            plan.iter()
                .map(|due| {
                    let (method, path, body) = route(&due.op, streams);
                    request_bytes(method, &path, addr, &body, trace.as_deref())
                })
                .collect()
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let mut outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .zip(prepared)
            .enumerate()
            .map(|(c, (plan, requests))| {
                scope.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut out = Vec::with_capacity(plan.len());
                    for (due, request) in plan.iter().zip(requests) {
                        let due_at = start + Duration::from_nanos(due.at_ns);
                        let now = Instant::now();
                        if due_at > now {
                            std::thread::sleep(due_at - now);
                        }
                        let sent = Instant::now();
                        let obs_sent = ses_obs::now_ns();
                        let (status, body) = match conn.call(&request) {
                            Ok(reply) => reply,
                            Err(e) => (0, e.to_string()),
                        };
                        let obs_done = ses_obs::now_ns();
                        let done = Instant::now();
                        out.push(Outcome {
                            conn: c,
                            op: due.op.clone(),
                            due_ns: due.at_ns,
                            sent_ns: (sent - start).as_nanos() as u64,
                            done_ns: (done - start).as_nanos() as u64,
                            obs_sent,
                            obs_done,
                            status,
                            body,
                            request,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("connection thread"))
            .collect()
    });
    outcomes.sort_by_key(|o| (o.due_ns, o.conn));
    outcomes
}

/// Closes sessions a schedule left open, so the next window can reuse its
/// names (untimed).
pub fn close_all(addr: &str, names: &[String]) -> Result<(), String> {
    let mut conn = Conn::new(addr);
    for name in names {
        let req = request_bytes("POST", &format!("/sessions/{name}/close"), addr, "", None);
        let (status, body) = conn.call(&req).map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("closing {name} answered {status}: {body}"));
        }
    }
    Ok(())
}

/// The expected replies of one stream, from an in-process replay.
pub struct Expected {
    pub open_utility: u64,
    /// Utility bits after `n` events, `n = 0..=len`.
    pub utility_after: Vec<u64>,
    pub reports: Vec<EventReport>,
}

/// Replays one stream through a fresh in-process `SchedulerService`.
/// `apply_us`, when given, receives the wall time of every `apply` call.
pub fn replay(
    inst: &Arc<SesInstance>,
    stream: &Stream,
    events: usize,
    mut apply_us: Option<&mut Vec<f64>>,
) -> Expected {
    let mut service = SchedulerService::new();
    let open = service
        .open_session(inst, &session_open("replay"))
        .expect("in-process open");
    let mut utility_after = vec![service.report("replay").expect("report").utility.to_bits()];
    let mut reports = Vec::with_capacity(events);
    for event in &stream.events[..events] {
        let t0 = Instant::now();
        let report = service.apply("replay", event).expect("in-process apply");
        if let Some(samples) = apply_us.as_deref_mut() {
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        utility_after.push(report.utility.to_bits());
        reports.push(report);
    }
    Expected {
        open_utility: open.total_utility.to_bits(),
        utility_after,
        reports,
    }
}

/// Counts taken from reply bodies while checking.
#[derive(Debug, Default, Clone)]
pub struct ReplyCounts {
    pub repair_moves: u64,
    pub close_visits: u64,
    pub close_events: u64,
    pub depth_max: u64,
}

/// Checks every reply: 2xx, and equal to the in-process replay (events,
/// reports, closes, opens) or to the in-process solve (solves). Returns
/// per-outcome verdicts plus the counts read from the bodies.
pub fn check(
    outcomes: &[Outcome],
    expected: &[Expected],
    tenant_solve: &SolveResponse,
    errors: &mut Vec<String>,
) -> (Vec<bool>, ReplyCounts) {
    let mut counts = ReplyCounts::default();
    let fail = |errors: &mut Vec<String>, o: &Outcome, why: String| {
        if errors.len() < 20 {
            errors.push(format!("{:?}: {why}", o.op));
        }
        false
    };
    let verdicts = outcomes
        .iter()
        .map(|o| {
            if !(200..300).contains(&o.status) {
                return fail(errors, o, format!("status {}: {}", o.status, o.body));
            }
            match &o.op {
                Op::Event { stream, idx, .. } => match serde_json::from_str::<EventReport>(&o.body)
                {
                    Ok(r) => {
                        let want = &expected[*stream].reports[*idx];
                        counts.repair_moves +=
                            r.report.as_ref().map_or(0, |x| x.moves.len() as u64);
                        if r.utility.to_bits() != want.utility.to_bits()
                            || r.applied != want.applied
                            || r.scheduled != want.scheduled
                            || r.report != want.report
                        {
                            fail(
                                errors,
                                o,
                                format!("utility {} vs replay {}", r.utility, want.utility),
                            )
                        } else if r.lsn == 0 {
                            fail(errors, o, "event not logged (lsn 0)".to_owned())
                        } else {
                            true
                        }
                    }
                    Err(e) => fail(errors, o, format!("bad body: {e}")),
                },
                Op::Report {
                    stream, applied, ..
                }
                | Op::Close {
                    stream, applied, ..
                } => match serde_json::from_str::<SessionReport>(&o.body) {
                    Ok(r) => {
                        if matches!(o.op, Op::Close { .. }) {
                            counts.close_visits += r.counters.posting_visits;
                            counts.close_events += r.events_applied;
                        }
                        let want = expected[*stream].utility_after[*applied];
                        if r.utility.to_bits() != want || r.events_applied != *applied as u64 {
                            fail(errors, o, format!("report utility {} mismatch", r.utility))
                        } else if !r.durable {
                            fail(errors, o, "session not durable".to_owned())
                        } else {
                            true
                        }
                    }
                    Err(e) => fail(errors, o, format!("bad body: {e}")),
                },
                Op::Open { stream, .. } => match serde_json::from_str::<SolveResponse>(&o.body) {
                    Ok(r) if r.total_utility.to_bits() == expected[*stream].open_utility => true,
                    Ok(r) => fail(errors, o, format!("open Ω {} mismatch", r.total_utility)),
                    Err(e) => fail(errors, o, format!("bad body: {e}")),
                },
                Op::Solve => match serde_json::from_str::<SolveResponse>(&o.body) {
                    Ok(r) if same_solve(&r, tenant_solve) => true,
                    Ok(r) => fail(errors, o, format!("solve Ω {} mismatch", r.total_utility)),
                    Err(e) => fail(errors, o, format!("bad body: {e}")),
                },
                Op::Metrics => match serde_json::from_str::<MetricsReport>(&o.body) {
                    Ok(m) => {
                        for s in &m.shards_detail {
                            counts.depth_max = counts.depth_max.max(s.queue_depth);
                        }
                        true
                    }
                    Err(e) => fail(errors, o, format!("bad body: {e}")),
                },
            }
        })
        .collect();
    (verdicts, counts)
}

/// End-to-end figures of one window.
pub struct ServeFigures {
    pub by_class: BTreeMap<Class, Samples>,
    /// The same latencies in due-time order, for round medians.
    pub in_order: BTreeMap<Class, Vec<f64>>,
    pub late: Samples,
    pub goodput_rps: f64,
    pub window_s: f64,
}

/// Latency samples per class, generator lateness, and goodput (2xx, checked
/// correct, and within the class's latency limit, per second of window).
pub fn figures(outcomes: &[Outcome], verdicts: &[bool]) -> ServeFigures {
    let mut raw: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    let mut good = 0usize;
    for (o, ok) in outcomes.iter().zip(verdicts) {
        let class = o.op.class();
        raw.entry(class).or_default().push(o.latency_ms());
        if *ok && o.latency_ms() <= class.limit_ms() {
            good += 1;
        }
    }
    let window_s = outcomes.iter().map(|o| o.done_ns).max().unwrap_or(1) as f64 / 1e9;
    ServeFigures {
        by_class: raw
            .iter()
            .map(|(c, v)| (*c, Samples::new(v.clone())))
            .collect(),
        in_order: raw,
        late: Samples::new(outcomes.iter().map(Outcome::late_ms).collect()),
        goodput_rps: good as f64 / window_s,
        window_s,
    }
}

/// Span totals of one traced request, µs.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub parse: f64,
    pub queue: f64,
    pub service: f64,
    pub solve: f64,
    pub apply: f64,
    pub wal: f64,
    pub respond: f64,
    pub depth: u64,
    /// Whether the request's `request` and `service` spans were both
    /// recovered (a span ring can evict them on a long window).
    pub seen: bool,
}

/// Splits each connection's spans by request: a span belongs to the
/// request whose send/done interval contains its start.
pub fn attribute(outcomes: &[Outcome], spans_by_conn: &[Vec<SpanRecord>]) -> Vec<SpanTotals> {
    outcomes
        .iter()
        .map(|o| {
            let spans = &spans_by_conn[o.conn];
            let from = spans.partition_point(|s| s.start_ns < o.obs_sent);
            let mut t = SpanTotals::default();
            let mut request = false;
            let mut service = false;
            for s in spans[from..]
                .iter()
                .take_while(|s| s.start_ns <= o.obs_done)
            {
                let us = s.dur_ns as f64 / 1e3;
                match s.stage {
                    Stage::Request => request = true,
                    Stage::Parse => t.parse += us,
                    Stage::Queue => {
                        t.queue += us;
                        t.depth = t.depth.max(s.aux[0]);
                    }
                    Stage::Service => {
                        service = true;
                        t.service += us;
                    }
                    Stage::Solve => t.solve += us,
                    Stage::Apply => t.apply += us,
                    Stage::Wal => t.wal += us,
                    Stage::Respond => t.respond += us,
                    _ => {}
                }
            }
            t.seen = request && service;
            t
        })
        .collect()
}

/// The ledger of one request class: due-to-done latency split into
/// generator lateness, the server's spans, and the unattributed rest.
pub fn class_ledger(class: Class, outcomes: &[Outcome], spans: &[SpanTotals]) -> Option<Ledger> {
    let picked: Vec<(&Outcome, &SpanTotals)> = outcomes
        .iter()
        .zip(spans)
        .filter(|(o, s)| o.op.class() == class && s.seen)
        .collect();
    if picked.is_empty() {
        return None;
    }
    let col = |f: &dyn Fn(&Outcome, &SpanTotals) -> f64| -> f64 {
        mean(&picked.iter().map(|(o, s)| f(o, s)).collect::<Vec<_>>())
    };
    Some(
        Ledger::new(
            format!("serve {} latency from due time", class.label()),
            "us",
            picked.len(),
            col(&|o, _| o.latency_ms() * 1e3),
        )
        .part("loadgen late (sent - due)", col(&|o, _| o.late_ms() * 1e3))
        .part("server.http parse (span)", col(&|_, s| s.parse))
        .part("server.shard queue (span)", col(&|_, s| s.queue))
        .part("service solve (span)", col(&|_, s| s.solve))
        .part("service apply (span)", col(&|_, s| s.apply))
        .part("durable wal (span)", col(&|_, s| s.wal))
        .part(
            "service other (span)",
            col(&|_, s| s.service - s.solve - s.apply - s.wal),
        )
        .part("server.http respond (span)", col(&|_, s| s.respond)),
    )
}

/// Per-request unattributed time: client round trip minus every top-level
/// server span (parse, queue, service, respond), µs.
pub fn unattributed_us(outcomes: &[Outcome], spans: &[SpanTotals], class: Class) -> Samples {
    Samples::new(
        outcomes
            .iter()
            .zip(spans)
            .filter(|(o, s)| o.op.class() == class && s.seen)
            .map(|(o, s)| o.round_trip_us() - s.parse - s.queue - s.service - s.respond)
            .collect(),
    )
}

/// Times `http::read_head` + `read_body` over every recorded request and
/// `http::write_response` over every recorded reply, µs per call.
pub fn http_layer(outcomes: &[Outcome]) -> (Samples, Samples) {
    let mut parse = Vec::with_capacity(outcomes.len());
    let mut respond = Vec::with_capacity(outcomes.len());
    let mut sink = Vec::with_capacity(1 << 16);
    for o in outcomes {
        let t0 = Instant::now();
        let mut reader = std::io::BufReader::new(&o.request[..]);
        let head = ses_server::http::read_head(&mut reader).expect("recorded request parses");
        let body = ses_server::http::read_body(&mut reader, head.content_length)
            .expect("recorded body reads");
        parse.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(body);
        sink.clear();
        let t0 = Instant::now();
        ses_server::http::write_response_ex(
            &mut sink,
            o.status,
            &o.body,
            true,
            &[("x-ses-trace-id", "0123456789abcdef")],
            false,
        )
        .expect("write into a Vec");
        respond.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    (Samples::new(parse), Samples::new(respond))
}

/// Appends every session open, event and close the schedule sent to a
/// fresh `ShardWal` at the default fsync policy (`interval:25`), timing
/// each event append (µs, an inline fsync included). Appends run back to
/// back, not at the schedule's pace. Also returns the WAL's accounting
/// after a final flush.
pub fn wal_layer(
    outcomes: &[Outcome],
    streams: &[Stream],
    dir: &std::path::Path,
) -> (Samples, ses_durable::WalStats) {
    let cfg = ses_durable::WalConfig::new(dir);
    let (mut wal, _) = ses_durable::ShardWal::open(cfg).expect("bench WAL opens");
    let mut samples = Vec::new();
    for o in outcomes {
        match &o.op {
            Op::Open { name, .. } => {
                wal.append_open(&session_open(name)).expect("append open");
            }
            Op::Event { name, stream, idx } => {
                let t0 = Instant::now();
                wal.append_event(name, &streams[*stream].events[*idx])
                    .expect("append event");
                samples.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            Op::Close { name, .. } => {
                wal.append_close(name).expect("append close");
            }
            _ => {}
        }
    }
    wal.flush().expect("final WAL flush");
    (Samples::new(samples), wal.stats())
}

/// Median `OnlineSession::new` time (ms) after the open-time solve on the
/// session instance.
pub fn session_build_ms(inst: &Arc<SesInstance>) -> f64 {
    let outcome = ses_core::registry::build_threaded(crate::universe::SPEC, 1)
        .run(inst, crate::universe::K)
        .expect("open-time solve");
    let times: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            let session = OnlineSession::new(inst, &outcome.schedule).expect("feasible");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(session);
            ms
        })
        .collect();
    crate::stats::median(&times)
}
