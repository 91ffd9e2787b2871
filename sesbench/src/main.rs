//! `sesbench` — the end-to-end and per-layer benchmark of the SES engine,
//! service, WAL and HTTP server. See `README.md` in this directory.
//!
//! ```text
//! sesbench --workload <solve-dense|solve-sparse> --seed <n> \
//!          --seconds <s> --trace <0|1>
//! sesbench --record-reference
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A failed check exits non-zero.

mod affinity;
mod awake;
mod client;
mod host;
mod ledger;
mod plan;
mod reference;
mod serve;
mod solve;
mod stats;
mod steal;
mod universe;

use plan::{Class, Shape};
use serve::Outcome;
use ses_obs::TraceId;
use stats::{median, Samples};
use std::path::{Path, PathBuf};
use universe::{Workload, STREAMS};

/// Set-up repetitions per run; `setup_s` is their median. A round takes
/// about 0.1 s, and with fifteen the median still moved by a tenth from
/// run to run on a quiet host.
const SETUP_ROUNDS: usize = 41;
/// Fewest timed solves per solve phase (p90 needs 100 samples).
const MIN_SOLVES: usize = 110;
/// Events the warm-up session of each set-up round applies before the
/// server restarts and recovers it from the WAL.
const WARM_EVENTS: usize = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 50.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// One measured window: the solve loop and the serve schedule, run together.
struct Window {
    solve: solve::SolvePhase,
    outcomes: Vec<Outcome>,
    /// Per-connection spans of a traced window (empty when untraced).
    spans: Vec<Vec<ses_obs::SpanRecord>>,
}

/// A run's verdict and metrics.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.failed += 1;
            self.errors.push(format!("{name} is not finite"));
        }
        self.metrics.push((name, value, unit));
    }

    /// A percentile metric, enforcing the ten-beyond rule.
    fn percentile(&mut self, name: &'static str, s: &Samples, q: f64, unit: &'static str) {
        println!(
            "  {name:<22} n={:<6} beyond={:<5} value={:.4}",
            s.len(),
            s.beyond(q),
            s.quantile(q).unwrap_or(f64::NAN)
        );
        match s.reportable(q) {
            Some(v) => self.metric(name, v, unit),
            None => {
                self.failed += 1;
                self.errors.push(format!(
                    "{name}: {} samples, fewer than ten beyond the percentile",
                    s.len()
                ));
                self.metrics
                    .push((name, s.quantile(q).unwrap_or(0.0), unit));
            }
        }
    }

    /// An end-to-end percentile: the median of up to five per-round exact
    /// percentiles over samples in the order they were taken, each round
    /// just large enough for ten samples beyond its percentile (see
    /// [`stats::round_median`]).
    fn round_percentile(
        &mut self,
        name: &'static str,
        in_order: &[f64],
        q: f64,
        unit: &'static str,
    ) {
        let per_round = (stats::MIN_BEYOND as f64 / (1.0 - q)).round() as usize;
        match stats::round_median(in_order, q, per_round, 5) {
            Some((v, rounds)) => {
                println!(
                    "  {name:<22} n={:<6} rounds={rounds} value={v:.4}",
                    in_order.len()
                );
                self.metric(name, v, unit);
            }
            None => {
                self.failed += 1;
                self.errors.push(format!(
                    "{name}: {} samples, fewer than one round",
                    in_order.len()
                ));
                self.metrics.push((name, 0.0, unit));
            }
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--record-reference") {
        std::process::exit(match record_reference() {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("sesbench: {e}");
                1
            }
        });
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sesbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(workload) = universe::workload(&args.workload) else {
        eprintln!(
            "sesbench: unknown workload '{}' (expected one of: {})",
            args.workload,
            universe::WORKLOADS.map(|w| w.name).join(", ")
        );
        std::process::exit(2);
    };
    if args.trace {
        // Room for a whole traced window per thread: spans are read back
        // after the window, not while it runs.
        ses_obs::set_default_ring_capacity(1 << 17);
    }
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", workload.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| {
            // The solve loop keeps one vCPU busy; keep the other awake too.
            let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
            let _awake = awake::KeepAwake::start(nproc.min(2) - 1);
            run(&workload, &args, &work)
        });
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(report) => {
            for e in &report.errors {
                eprintln!("check failed: {e}");
            }
            println!("{}", report.json());
            std::process::exit(if report.failed == 0 { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("sesbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Opens a session, applies the first events of a stream and reads its
/// utility, so the next set-up round has a session to recover.
fn warm_session(addr: &str, name: &str, stream: &universe::Stream) -> Result<u64, String> {
    let mut conn = client::Conn::new(addr);
    let mut post = |path: String, body: &str| -> Result<String, String> {
        let req = client::request_bytes("POST", &path, addr, body, None);
        match conn.call(&req) {
            Ok((200, body)) => Ok(body),
            Ok((status, body)) => Err(format!("{path} answered {status}: {body}")),
            Err(e) => Err(format!("{path}: {e}")),
        }
    };
    let open = serde_json::to_string(&universe::session_open(name)).expect("open serializes");
    post(format!("/sessions/{name}/open"), &open)?;
    for body in stream.bodies.iter().take(WARM_EVENTS) {
        post(format!("/sessions/{name}/event"), body)?;
    }
    session_utility(addr, name)
}

fn session_utility(addr: &str, name: &str) -> Result<u64, String> {
    let mut client = ses_server::HttpClient::new(addr);
    let (status, body) = client
        .post(&format!("/sessions/{name}/report"), "")
        .map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("report {name} answered {status}: {body}"));
    }
    let report: ses_service::SessionReport =
        serde_json::from_str(&body).map_err(|e| e.to_string())?;
    Ok(report.utility.to_bits())
}

fn run(w: &Workload, args: &Args, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let seed = args.seed;
    println!(
        "sesbench workload={} seed={seed} seconds={} trace={}",
        w.name, args.seconds, args.trace as u8
    );
    println!("host: {}", host::fingerprint());
    println!(
        "solve loop tenant: {} (tenant seed {}); HTTP solve tenant: {}; sessions: \
         workload profile {}u/{}e/{}t; k={}, GRD threads=1",
        w.tenant.describe(),
        universe::tenant_seed(seed),
        universe::SERVE_TENANT.describe(),
        universe::SESSION_USERS,
        universe::SESSION_EVENTS,
        universe::SESSION_INTERVALS,
        universe::K
    );

    // Set-up: every round regenerates, packs, cold-opens and boots on the
    // same WAL directory, so every round after the first recovers the
    // warm-up session the round before left open. Once checked, that
    // session is closed (untimed), so each boot recovers exactly one
    // session and the rounds do equal work; recovery skips closed sessions.
    let mut setups = Vec::new();
    let mut opens = Vec::new();
    let mut warm: Option<(String, u64)> = None;
    let mut live = None;
    for round in 0..SETUP_ROUNDS {
        let u = universe::setup_round(w, seed, round, work)?;
        setups.push(u.setup_s);
        opens.push(u.open_ms);
        let addr = u.server.addr().to_string();
        if let Some((name, bits)) = warm.take() {
            let got = session_utility(&addr, &name);
            report.check(got.as_ref() == Ok(&bits), || {
                format!("recovered session {name}: {got:?} vs {bits:x} before restart")
            });
            serve::close_all(&addr, &[name])?;
        }
        if round + 1 < SETUP_ROUNDS {
            let name = format!("warm-{round}");
            let bits = warm_session(&addr, &name, &u.streams[round % STREAMS])?;
            warm = Some((name, bits));
            u.server.shutdown();
        } else {
            live = Some(u);
        }
    }
    let u = live.expect("at least one set-up round");
    let addr = u.server.addr().to_string();
    println!(
        "setup: rounds={SETUP_ROUNDS} setup_s={:?} store_open_ms={:?} fsync={} shards={}",
        setups,
        opens,
        universe::FSYNC.label(),
        universe::SHARDS
    );
    let streams: Vec<String> = u
        .streams
        .iter()
        .map(|s| format!("{}:{}", s.scenario, s.events.len()))
        .collect();
    println!("session streams (scenario:events): {}", streams.join(" "));

    // Warm the serve path outside the timed window: one session round trip
    // and one HTTP solve (the server registry opens the tenant lazily).
    warm_session(&addr, "warm-serve", &u.streams[0])?;
    serve::close_all(&addr, &["warm-serve".to_owned()])?;
    let body = serde_json::to_string(&solve::request()).expect("solve serializes");
    match ses_server::HttpClient::new(addr.clone()).post("/solve", &body) {
        Ok((200, _)) => {}
        other => return Err(format!("warm-up solve: {other:?}")),
    }

    // The measured window: the solve loop runs on its own thread while the
    // open-loop generator drives the server, both for `seconds`.
    let conns = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let lens: Vec<usize> = u.streams.iter().map(|s| s.events.len()).collect();
    let shape = Shape {
        seed,
        conns,
        session_rate: universe::SESSION_RATE,
        solve_every_ms: universe::SOLVE_EVERY_MS,
        metrics_every_ms: 1_000,
        window_ms: (args.seconds * 1e3) as u64,
        live: 6,
        report_share: 0.2,
    };
    let plans = plan::build(&shape, &lens);
    let offered = plans.iter().map(Vec::len).sum::<usize>() as f64 / args.seconds;
    println!(
        "serve: open loop, {conns} connections, offered {offered:.1} req/s \
         (sessions {} slots/s, solve every {} ms, /metrics every 1000 ms), window {} s",
        shape.session_rate, shape.solve_every_ms, args.seconds
    );
    let leftover = plan::left_open(&plans);
    // The solve loop gets a vCPU of its own for the window; the server, the
    // generator and the spinner share the other.
    let split = affinity::Split::detect();
    println!(
        "window cpus: {}",
        if split.is_some() {
            "solve loop on the first allowed CPU, every other thread on the second"
        } else {
            "one CPU allowed, no split"
        }
    );
    let window = |traced: bool| -> Result<Window, String> {
        let ids: Vec<TraceId> = (0..conns).map(|_| TraceId::generate()).collect();
        let pinned = split.as_ref().map(affinity::Split::apply);
        let (solve, outcomes) = std::thread::scope(|scope| {
            let solver = scope.spawn(|| {
                if let Some(p) = &pinned {
                    p.solve_here();
                }
                solve::run(&u.tenant, args.seconds, MIN_SOLVES, traced)
            });
            let outcomes = serve::drive(&addr, &plans, &u.streams, traced.then_some(&ids[..]));
            (solver.join().expect("solve thread"), outcomes)
        });
        drop(pinned);
        let spans = if traced {
            ids.iter().map(|&id| ses_obs::collect_trace(id)).collect()
        } else {
            Vec::new()
        };
        serve::close_all(&addr, &leftover)?;
        Ok(Window {
            solve,
            outcomes,
            spans,
        })
    };
    let plain_window = window(false)?;
    let first = plain_window.solve.first.clone();
    report.check(solve::oracle_check(&u.tenant, &first).is_ok(), || {
        solve::oracle_check(&u.tenant, &first).unwrap_err()
    });
    let digest = solve::assignment_digest(&first);
    let tenant_seed = universe::tenant_seed(seed);
    let recorded = reference::lookup(w.name, tenant_seed);
    report.check(
        recorded == Some((first.total_utility.to_bits(), digest)),
        || match recorded {
            Some(_) => {
                format!("tenant seed {tenant_seed}: solve differs from the recorded reference")
            }
            None => format!("tenant seed {tenant_seed}: no reference recorded in reference.tsv"),
        },
    );
    let traced = if args.trace {
        Some(window(true)?)
    } else {
        None
    };
    let plain = plain_window.outcomes;
    let mut solve_phases = vec![plain_window.solve];
    if let Some(t) = &traced {
        report.check(solve::same_solve(&t.solve.first, &first), || {
            "traced window solved differently".to_owned()
        });
    }
    let traced = traced.map(|t| {
        solve_phases.push(t.solve);
        (t.outcomes, t.spans)
    });
    for p in &solve_phases {
        report.attempted += p.attempted;
        report.failed += p.failed;
        report.errors.extend(p.errors.iter().cloned());
    }

    // Every reply against the in-process replay of the same streams.
    let expected: Vec<serve::Expected> = u
        .streams
        .iter()
        .map(|s| serve::replay(&u.sessions, s, s.events.len(), None))
        .collect();
    // HTTP solves must equal an in-process solve of the same packed file.
    let http_ref = ses_service::SchedulerService::new()
        .solve(&u.serve_tenant, &solve::request())
        .map_err(|e| format!("in-process solve of the serve tenant: {e}"))?;
    report.check(
        solve::oracle_check(&u.serve_tenant, &http_ref).is_ok(),
        || solve::oracle_check(&u.serve_tenant, &http_ref).unwrap_err(),
    );
    let mut errors = Vec::new();
    let (plain_ok, plain_counts) = serve::check(&plain, &expected, &http_ref, &mut errors);
    let traced_checked = traced
        .as_ref()
        .map(|(o, _)| serve::check(o, &expected, &http_ref, &mut errors));
    for ok in plain_ok
        .iter()
        .chain(traced_checked.iter().flat_map(|(v, _)| v))
    {
        report.attempted += 1;
        report.failed += u64::from(!ok);
    }
    report.errors.extend(errors);

    // sim ≡ wire: the server's own replay determinism check.
    let mut client = ses_server::HttpClient::new(addr.clone());
    let replay_cfg = ses_server::ReplayConfig {
        steps: 100,
        seed,
        ..Default::default()
    };
    let verdict = ses_server::verify_replay(&mut client, &replay_cfg);
    println!("verify_replay: {verdict:?}");
    report.check(
        matches!(verdict, Ok(c) if c.matches && c.utility_bits_match),
        || format!("verify_replay: {verdict:?}"),
    );
    let scrape = client.get("/metrics").map_err(|e| e.to_string())?;

    let figures = serve::figures(&plain, &plain_ok);
    print_serve(&figures);
    print_slowest(&plain);
    if !args.trace {
        println!("end-to-end metrics (untraced):");
        let phase = &solve_phases[0];
        let solves = &phase.times_ms;
        let wall = Samples::new(phase.wall_ms.clone());
        println!(
            "  solves: n={} wall p50={:.3} p90={:.3} ms; host steal {:.2}% of wall; \
             {} blocked (steal kept in)",
            wall.len(),
            wall.quantile(0.5).unwrap_or(f64::NAN),
            wall.quantile(0.9).unwrap_or(f64::NAN),
            100.0 * (1.0 - solves.iter().sum::<f64>() / phase.wall_ms.iter().sum::<f64>()),
            phase.blocked
        );
        let class = |c: Class| figures.in_order.get(&c).cloned().unwrap_or_default();
        report.round_percentile("solve_ms_p50", solves, 0.5, "ms");
        report.round_percentile("solve_ms_p90", solves, 0.9, "ms");
        report.round_percentile("event_ms_p50", &class(Class::Event), 0.5, "ms");
        report.round_percentile("report_ms_p50", &class(Class::Report), 0.5, "ms");
        report.round_percentile("solve_http_ms_p50", &class(Class::Solve), 0.5, "ms");
        report.round_percentile("open_ms_p50", &class(Class::Open), 0.5, "ms");
        report.metric("goodput_rps", figures.goodput_rps, "1/s");
        report.metric("setup_s", median(&setups), "s");
        report.metric(
            "peak_rss_mib",
            host::peak_rss_mib().unwrap_or(f64::NAN),
            "MiB",
        );
        u.server.shutdown();
        return Ok(report);
    }

    // Traced run: the per-layer ledger.
    let (touts, tspans) = traced.expect("traced window ran");
    let (_, tcounts) = traced_checked.expect("traced window checked");
    per_layer(
        &mut report,
        &u,
        &solve_phases,
        &opens,
        (&plain, &figures),
        (&touts, &tspans, &tcounts),
        &plain_counts,
        &scrape.1,
        work,
    );
    u.server.shutdown();
    Ok(report)
}

/// The five slowest round trips (send to reply): what a late request waited
/// behind on its connection.
fn print_slowest(outcomes: &[Outcome]) {
    let mut by_rtt: Vec<&Outcome> = outcomes.iter().collect();
    by_rtt.sort_by(|a, b| b.round_trip_us().total_cmp(&a.round_trip_us()));
    let slowest: Vec<String> = by_rtt
        .iter()
        .take(5)
        .map(|o| {
            format!(
                "{}@{:.3}s={:.1}ms",
                o.op.class().label(),
                o.due_ns as f64 / 1e9,
                o.round_trip_us() / 1e3
            )
        })
        .collect();
    println!("  slowest round trips: {}", slowest.join(" "));
}

fn print_serve(f: &serve::ServeFigures) {
    println!(
        "serve window {:.3} s, goodput {:.2} req/s",
        f.window_s, f.goodput_rps
    );
    for (class, s) in &f.by_class {
        let q = |q: f64| s.quantile(q).unwrap_or(f64::NAN);
        println!(
            "  {:<8} n={:<6} p10={:.3} p25={:.3} p50={:.3} p75={:.3} p90={:.3} ms p99={} limit={} ms",
            class.label(),
            s.len(),
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9),
            s.reportable(0.99)
                .map_or("n/a (<10 beyond)".to_owned(), |v| format!("{v:.3} ms")),
            class.limit_ms()
        );
    }
    println!(
        "  loadgen late: n={} p50={:.3} ms p99={} max={:.3} ms",
        f.late.len(),
        f.late.quantile(0.5).unwrap_or(f64::NAN),
        f.late
            .reportable(0.99)
            .map_or("n/a".to_owned(), |v| format!("{v:.3} ms")),
        f.late.max().unwrap_or(f64::NAN)
    );
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    report: &mut Report,
    u: &universe::Universe,
    solve_phases: &[solve::SolvePhase],
    opens: &[f64],
    (plain, plain_fig): (&[Outcome], &serve::ServeFigures),
    (touts, tspans, tcounts): (&[Outcome], &[Vec<ses_obs::SpanRecord>], &serve::ReplyCounts),
    plain_counts: &serve::ReplyCounts,
    final_scrape: &str,
    work: &Path,
) {
    let layers = solve::layers(&u.tenant, &solve_phases[1]);
    println!("{}", layers.ledger.render());
    let solve_p50 = Samples::new(solve_phases[1].times_ms.clone())
        .quantile(0.5)
        .unwrap_or(f64::NAN);
    let accounted = layers.build_ms + layers.sweep_ms + layers.select_ms;
    println!(
        "ledger check: build_ms + sweep_ms + select_ms = {:.3} + {:.3} + {:.3} = {accounted:.3} \
         of solve_ms_p50 {solve_p50:.3} (traced); unattributed {:.3} ms ({:.1}%)",
        layers.build_ms,
        layers.sweep_ms,
        layers.select_ms,
        solve_p50 - accounted,
        100.0 * (solve_p50 - accounted) / solve_p50
    );

    let spans = serve::attribute(touts, tspans);
    let unseen = spans.iter().filter(|s| !s.seen).count();
    println!(
        "traced serve window: {} requests, {unseen} without both a request and a service span",
        touts.len()
    );
    for class in Class::ALL {
        if let Some(l) = serve::class_ledger(class, touts, &spans) {
            println!("{}", l.render());
        }
    }
    let stage_lines: Vec<String> = serde_json::from_str::<ses_server::MetricsReport>(final_scrape)
        .map(|m| {
            m.span_stages
                .iter()
                .map(|s| format!("{}:p50={}us,p99={}us", s.stage, s.p50_micros, s.p99_micros))
                .collect()
        })
        .unwrap_or_default();
    println!(
        "/metrics span stages (whole process): {}",
        stage_lines.join(" ")
    );

    // Service apply over the replayed event stream: every session the
    // window opened, with exactly the events it was sent.
    let mut sent: std::collections::BTreeMap<&str, (usize, usize)> = Default::default();
    for o in touts {
        if let plan::Op::Event { name, stream, idx } = &o.op {
            sent.insert(name, (*stream, idx + 1));
        }
    }
    let mut apply_us = Vec::new();
    for &(stream, events) in sent.values() {
        serve::replay(&u.sessions, &u.streams[stream], events, Some(&mut apply_us));
    }
    let apply = Samples::new(apply_us);
    let (wal, wal_stats) = serve::wal_layer(touts, &u.streams, &work.join("wal-layer"));
    let (parse, respond) = serve::http_layer(touts);
    let queue = Samples::new(
        touts
            .iter()
            .zip(&spans)
            .filter(|(o, s)| o.op.class() == Class::Event && s.seen)
            .map(|(_, s)| s.queue)
            .collect(),
    );
    let depth_max = spans
        .iter()
        .map(|s| s.depth)
        .chain([tcounts.depth_max, plain_counts.depth_max])
        .max()
        .unwrap_or(0);
    let unattributed = serve::unattributed_us(touts, &spans, Class::Event);
    let records_per_fsync = wal_stats.records as f64 / wal_stats.fsyncs.max(1) as f64;
    let traced_fig = serve::figures(touts, &vec![true; touts.len()]);
    let p50 = |f: &serve::ServeFigures| {
        f.by_class
            .get(&Class::Event)
            .and_then(|s| s.quantile(0.5))
            .unwrap_or(f64::NAN)
    };
    let overhead = 100.0 * (p50(&traced_fig) / p50(plain_fig) - 1.0);
    println!(
        "samples: apply={} wal_append={} http={} queue={} unattributed={} (untraced window {} requests)",
        apply.len(),
        wal.len(),
        parse.len(),
        queue.len(),
        unattributed.len(),
        plain.len()
    );

    println!("per-layer metrics (traced):");
    report.metric("core.engine.build_ms", layers.build_ms, "ms");
    report.metric("core.engine.sweep_ms", layers.sweep_ms, "ms");
    report.metric("core.engine.ns_per_visit", layers.ns_per_visit, "ns");
    report.metric("core.engine.posting_visits", layers.posting_visits, "count");
    report.metric(
        "core.engine.score_evaluations",
        layers.score_evaluations,
        "count",
    );
    report.metric("core.engine.resident_mib", layers.resident_mib, "MiB");
    report.metric("core.algorithms.select_ms", layers.select_ms, "ms");
    report.metric("core.algorithms.pop_yield", layers.pop_yield, "ratio");
    report.metric("core.store.open_ms", median(opens), "ms");
    report.metric(
        "core.online.session_build_ms",
        serve::session_build_ms(&u.sessions),
        "ms",
    );
    report.percentile("service.apply_us_p50", &apply, 0.5, "us");
    report.percentile("service.apply_us_p99", &apply, 0.99, "us");
    report.metric(
        "core.online.visits_per_event",
        tcounts.close_visits as f64 / tcounts.close_events.max(1) as f64,
        "count",
    );
    report.metric(
        "core.online.repair_moves",
        tcounts.repair_moves as f64,
        "count",
    );
    report.percentile("durable.append_us_p50", &wal, 0.5, "us");
    report.percentile("durable.append_us_p99", &wal, 0.99, "us");
    report.metric("durable.records_per_fsync", records_per_fsync, "ratio");
    report.percentile("server.http.parse_us", &parse, 0.5, "us");
    report.percentile("server.http.respond_us", &respond, 0.5, "us");
    report.percentile("server.shard.queue_us_p99", &queue, 0.99, "us");
    report.metric("server.shard.depth_max", depth_max as f64, "count");
    report.percentile("server.unattributed_us_p50", &unattributed, 0.5, "us");
    report.metric("obs.trace_overhead_pct", overhead, "%");
    for (name, value, unit) in &report.metrics {
        println!("  {name:<32} {value:.4} {unit}");
    }
}

/// Prints `reference.tsv` lines for every tenant seed of every workload.
fn record_reference() -> Result<(), String> {
    let work = PathBuf::from(".bench_work").join(format!("record-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let path = work.join("tenant.ses");
    let result = (|| {
        for w in universe::WORKLOADS {
            for seed in 0..universe::TENANT_SEEDS {
                let inst = w.tenant.generate(seed);
                ses_core::store::pack_to_path(&inst, &path).map_err(|e| e.to_string())?;
                let inst = ses_core::store::open_path(&path).map_err(|e| e.to_string())?;
                let resp = ses_service::SchedulerService::new()
                    .solve(&inst, &solve::request())
                    .map_err(|e| e.to_string())?;
                solve::oracle_check(&inst, &resp)?;
                println!(
                    "{}",
                    reference::line(
                        w.name,
                        seed,
                        resp.total_utility.to_bits(),
                        solve::assignment_digest(&resp)
                    )
                );
            }
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    result
}
