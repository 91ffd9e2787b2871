//! Workload definitions and set-up: instance generation, pack, cold-open,
//! session event streams, and server boot with WAL recovery.

use ses_core::store;
use ses_core::testkit::workload_instance;
use ses_core::{SchedulerSpec, SesInstance};
use ses_server::{serve, FsyncPolicy, ServerConfig, ServerHandle};
use ses_service::{Availability, SchedulerService, SessionEvent, SessionOpen};
use ses_sim::{scenario_by_name, Simulator};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The instance a workload's solves run on (in-process and over HTTP).
#[derive(Debug, Clone, Copy)]
pub enum Profile {
    /// `ses_core::testkit::workload_instance`: every user has interest in
    /// about a fifth of the events and σ > 0 in every interval, so the
    /// Eq. 4 sweep dominates a solve.
    Dense {
        users: usize,
        events: usize,
        intervals: usize,
    },
    /// `ses_datagen::synthetic::sparse_population`: a few interests and a
    /// short activity window per user, so the column build dominates.
    Sparse {
        users: usize,
        events: usize,
        intervals: usize,
        interests: usize,
        active: usize,
    },
}

impl Profile {
    /// Generates the instance for `seed`.
    pub fn generate(self, seed: u64) -> Arc<SesInstance> {
        match self {
            Profile::Dense {
                users,
                events,
                intervals,
            } => workload_instance(users, events, intervals, seed),
            Profile::Sparse {
                users,
                events,
                intervals,
                interests,
                active,
            } => ses_datagen::synthetic::sparse_population(
                users, events, intervals, interests, active, seed,
            ),
        }
    }

    /// One-line description for the run header.
    pub fn describe(self) -> String {
        match self {
            Profile::Dense {
                users,
                events,
                intervals,
            } => format!("workload profile {users}u/{events}e/{intervals}t"),
            Profile::Sparse {
                users,
                events,
                intervals,
                interests,
                active,
            } => format!(
                "sparse_population {users}u/{events}e/{intervals}t, \
                 {interests} interests, {active} active slots"
            ),
        }
    }
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// The tenant the in-process solve loop runs on.
    pub tenant: Profile,
}

/// The tenant every workload's serve schedule solves over `POST /solve`: a
/// mid-size sparse universe, so each HTTP solve takes milliseconds next to
/// sub-millisecond session events.
pub const SERVE_TENANT: Profile = Profile::Sparse {
    users: 2_000,
    events: 200,
    intervals: 48,
    interests: 8,
    active: 6,
};

/// Every workload, in `BENCHMARK.json` order. Both run the whole serve
/// schedule beside their solve loop, so the serving layers are measured in
/// every run.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "solve-dense",
        tenant: Profile::Dense {
            users: 3_000,
            events: 100,
            intervals: 48,
        },
    },
    Workload {
        name: "solve-sparse",
        tenant: Profile::Sparse {
            users: 12_000,
            events: 200,
            intervals: 48,
            interests: 8,
            active: 6,
        },
    },
];

/// Distinct solve-loop tenants: a run's tenant is generated from
/// [`tenant_seed`], so every seed has a recorded reference solve in
/// `reference.tsv` while the rest of the run's inputs use the full seed.
pub const TENANT_SEEDS: u64 = 1_000;

/// The seed of the solve-loop tenant for a run's `--seed`.
pub fn tenant_seed(seed: u64) -> u64 {
    seed % TENANT_SEEDS
}

/// Offered session traffic (events, reports, opens, closes) of the serve
/// schedule, requests per second across all connections.
pub const SESSION_RATE: f64 = 200.0;
/// Period of the serve schedule's stateless `POST /solve` requests.
pub const SOLVE_EVERY_MS: u64 = 200;

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The server's in-memory session instance (`"default"`): sessions open,
/// repair and report over it in every workload.
pub const SESSION_USERS: usize = 400;
/// Candidate events of the session instance.
pub const SESSION_EVENTS: usize = 60;
/// Intervals of the session instance.
pub const SESSION_INTERVALS: usize = 24;
/// Schedule size of every solve and session open.
pub const K: usize = 20;
/// Disruptions recorded per session stream (withheld-candidate toggles
/// come on top).
pub const STREAM_STEPS: u64 = 16;
/// Distinct session streams; sessions cycle through them.
pub const STREAMS: usize = 4;
/// Shard workers of the server.
pub const SHARDS: usize = 2;
/// Registry name of the packed serve tenant.
pub const TENANT: &str = "tenant";

/// The spec every solve and open uses (the paper's GRD).
pub const SPEC: SchedulerSpec = SchedulerSpec::Greedy;

/// A recorded session event stream.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Scenario that produced it.
    pub scenario: &'static str,
    /// The events, in order (withheld-candidate toggles first).
    pub events: Vec<SessionEvent>,
    /// Their JSON bodies, as sent on the wire.
    pub bodies: Vec<String>,
}

/// The open request for a session name.
pub fn session_open(name: &str) -> SessionOpen {
    SessionOpen {
        name: name.to_owned(),
        spec: SPEC,
        k: K,
        threads: 1,
        instance: Default::default(),
    }
}

/// Records [`STREAMS`] disruption streams over the session instance with
/// the simulator's scenarios.
pub fn make_streams(inst: &Arc<SesInstance>, seed: u64) -> Vec<Stream> {
    const SCENARIOS: [&str; 4] = ["flash-crowd", "steady", "adversarial", "seasonal"];
    (0..STREAMS)
        .map(|i| {
            let scenario = SCENARIOS[i % SCENARIOS.len()];
            let stream_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
            let mut service = SchedulerService::new();
            service
                .open_session(inst, &session_open("rec"))
                .expect("recording session opens");
            let source = scenario_by_name(scenario, stream_seed).expect("known scenario");
            let mut sim =
                Simulator::over_service(service, "rec".to_owned(), vec![source]).expect("sim");
            let withheld = sim.withhold_fraction(0.1);
            sim.set_recording(true);
            sim.run(STREAM_STEPS);
            let mut events: Vec<SessionEvent> = withheld
                .into_iter()
                .map(|event| {
                    SessionEvent::SetAvailable(Availability {
                        event,
                        available: false,
                    })
                })
                .collect();
            events.extend(
                sim.take_recorded()
                    .iter()
                    .map(|t| t.disruption.to_session_event()),
            );
            let bodies = events
                .iter()
                .map(|e| serde_json::to_string(e).expect("event serializes"))
                .collect();
            Stream {
                scenario,
                events,
                bodies,
            }
        })
        .collect()
}

/// Everything one set-up round produced.
pub struct Universe {
    /// The solve loop's tenant, as cold-opened from its packed file.
    pub tenant: Arc<SesInstance>,
    /// The serve tenant, as cold-opened from its packed file.
    pub serve_tenant: Arc<SesInstance>,
    /// The session instance (bit-identical to the server's `"default"`).
    pub sessions: Arc<SesInstance>,
    /// The recorded session streams.
    pub streams: Vec<Stream>,
    /// The running server.
    pub server: ServerHandle,
    /// Wall time of `store::open_path` on the solve loop's tenant file.
    pub open_ms: f64,
    /// Wall time of the whole round.
    pub setup_s: f64,
}

/// The server's WAL fsync policy. With the default `interval:25`, every
/// second event appended an inline `fdatasync` on the shard thread, so
/// `event_ms_p50` sat on the edge between two modes (about 0.5 ms without
/// a sync, 1 ms and more with one) and followed the shared disk's fsync
/// latency from run to run. `off` keeps every WAL append, LSN and recovery
/// on the serving path and leaves the disk out of it; the durable layer's
/// fsync cost is measured on its own (`serve::wal_layer`).
pub const FSYNC: FsyncPolicy = FsyncPolicy::Off;

/// The server configuration of every run.
pub fn server_config(seed: u64, tenant_path: &Path, wal_dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: SHARDS,
        io_threads: 4,
        users: SESSION_USERS,
        events: SESSION_EVENTS,
        intervals: SESSION_INTERVALS,
        seed,
        instances: vec![(TENANT.to_owned(), tenant_path.to_path_buf())],
        wal_dir: Some(wal_dir.to_path_buf()),
        fsync: FSYNC,
        slow_request_millis: 60_000,
        ..ServerConfig::default()
    }
}

/// Generates a profile's instance, packs it to `path` and cold-opens it,
/// returning the opened instance and the open's wall time (ms).
fn pack_and_open(
    profile: Profile,
    seed: u64,
    path: &Path,
) -> Result<(Arc<SesInstance>, f64), String> {
    let generated = profile.generate(seed);
    // `store::pack_to_path` would also `sync_all` the file. That fsync
    // times the shared disk, not the program, so set-up packs through the
    // same writer without it.
    let file = std::fs::File::create(path).map_err(|e| format!("pack: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    store::write_instance(&generated, &mut out).map_err(|e| format!("pack: {e}"))?;
    out.flush().map_err(|e| format!("pack: {e}"))?;
    drop((out, generated));
    let start = Instant::now();
    let inst = store::open_path(path).map_err(|e| format!("open: {e}"))?;
    Ok((inst, start.elapsed().as_secs_f64() * 1e3))
}

/// One set-up round: generate, pack and cold-open the tenants, generate
/// the session instance and streams, boot the server on the WAL directory
/// and wait until every shard has finished WAL recovery.
///
/// Each round packs to files of its own: truncating the previous round's
/// file took 2 to 15 ms, which varied from round to round.
pub fn setup_round(w: &Workload, seed: u64, round: usize, work: &Path) -> Result<Universe, String> {
    let file = |stem: &str, round: usize| work.join(format!("{stem}-{round}.ses"));
    if let Some(previous) = round.checked_sub(1) {
        // Untimed: the previous round's server is down and its instances
        // are in memory.
        for stem in ["tenant", "serve-tenant"] {
            let _ = std::fs::remove_file(file(stem, previous));
        }
    }
    let start = Instant::now();
    let tenant_path: PathBuf = file("tenant", round);
    let (tenant, open_ms) = pack_and_open(w.tenant, tenant_seed(seed), &tenant_path)?;
    let serve_path = file("serve-tenant", round);
    let (serve_tenant, _) = pack_and_open(SERVE_TENANT, seed, &serve_path)?;
    let sessions = workload_instance(SESSION_USERS, SESSION_EVENTS, SESSION_INTERVALS, seed);
    let streams = make_streams(&sessions, seed);
    let cfg = server_config(seed, &serve_path, &work.join("wal"));
    let server = serve(&cfg).map_err(|e| format!("serve: {e}"))?;
    // Shards recover their WAL before serving their first message; a
    // metrics scrape waits on every shard, so it marks recovery complete.
    let mut client = ses_server::HttpClient::new(server.addr().to_string());
    let (status, body) = client
        .get("/metrics")
        .map_err(|e| format!("first scrape: {e}"))?;
    if status != 200 {
        return Err(format!("first scrape answered {status}: {body}"));
    }
    Ok(Universe {
        tenant,
        serve_tenant,
        sessions,
        streams,
        server,
        open_ms,
        setup_s: start.elapsed().as_secs_f64(),
    })
}
