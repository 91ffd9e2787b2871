//! The solve phase: stateless GRD solves through `SchedulerService::solve`,
//! one after another from one thread, plus the traced per-layer breakdown
//! (engine build, Eq. 4 sweep, selection).

use crate::ledger::{mean, Ledger};
use crate::stats::median;
use crate::steal::ThreadClock;
use crate::universe::{K, SPEC, TENANT};
use ses_core::{
    evaluate_schedule, registry, AttendanceEngine, EngineCounters, EventId, IntervalId, SesInstance,
};
use ses_obs::{Stage, TraceId};
use ses_service::{SchedulerService, SolveRequest, SolveResponse};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The request every in-process solve sends (`threads: 1`, k = [`K`]).
pub fn request() -> SolveRequest {
    SolveRequest {
        spec: SPEC,
        k: K,
        threads: 1,
        instance: TENANT.into(),
    }
}

/// FNV-1a over the assignments' (event, interval) ids: a compact
/// fingerprint of a schedule for the per-seed reference.
pub fn assignment_digest(resp: &SolveResponse) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for a in &resp.assignments {
        for v in [a.event.index() as u32, a.interval.index() as u32] {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Whether two responses carry the same schedule, Ω bits and work counts.
pub fn same_solve(a: &SolveResponse, b: &SolveResponse) -> bool {
    a.total_utility.to_bits() == b.total_utility.to_bits()
        && a.assignments == b.assignments
        && a.counters == b.counters
}

/// Checks a solve against the `evaluate_schedule` oracle: the schedule is
/// feasible and its from-scratch Ω matches the solver's running Ω to 1e-9
/// relative (the two sum in different orders, so bits may differ).
pub fn oracle_check(inst: &SesInstance, resp: &SolveResponse) -> Result<(), String> {
    let mut schedule = inst.empty_schedule();
    for a in &resp.assignments {
        schedule
            .assign(a.event, a.interval)
            .map_err(|e| format!("oracle: {e}"))?;
    }
    inst.check_schedule(&schedule)
        .map_err(|e| format!("oracle: infeasible schedule: {e}"))?;
    let eval = evaluate_schedule(inst, &schedule);
    let rel = (eval.total_utility - resp.total_utility).abs() / eval.total_utility.abs().max(1.0);
    if rel > 1e-9 {
        return Err(format!(
            "oracle: Ω {} vs evaluate_schedule {}",
            resp.total_utility, eval.total_utility
        ));
    }
    if resp.assignments.len() != K.min(inst.num_events()) || !resp.complete {
        return Err(format!("oracle: {} of {K} placed", resp.assignments.len()));
    }
    Ok(())
}

/// What one solve phase measured.
pub struct SolvePhase {
    /// Time of each timed solve (ms): its wall time less host steal (see
    /// [`crate::steal`]).
    pub times_ms: Vec<f64>,
    /// Wall time of each timed solve (ms), steal included.
    pub wall_ms: Vec<f64>,
    /// Timed solves in which the thread blocked, so no steal was taken out.
    pub blocked: usize,
    /// Traced spans per solve: (sweep ms, select ms), when traced.
    pub spans_ms: Vec<(f64, f64)>,
    /// The warm-up solve every timed solve must equal.
    pub first: SolveResponse,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Runs solves until `seconds` have passed and at least `min_samples`
/// solves were timed (giving up at three times `seconds`). With `traced`,
/// each solve runs under its own trace id and its `sweep` and `select`
/// spans are read back with `ses_obs::collect_trace` after the timer stops.
pub fn run(inst: &Arc<SesInstance>, seconds: f64, min_samples: usize, traced: bool) -> SolvePhase {
    let service = SchedulerService::new();
    let req = request();
    let first = service.solve(inst, &req).expect("warm-up solve");
    let mut phase = SolvePhase {
        times_ms: Vec::new(),
        wall_ms: Vec::new(),
        blocked: 0,
        spans_ms: Vec::new(),
        first,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = phase.times_ms.len() >= min_samples;
        if (elapsed >= seconds && enough) || elapsed >= 3.0 * seconds {
            break;
        }
        let trace = traced.then(TraceId::generate);
        let scope = trace.map(ses_obs::trace_scope);
        let clock0 = ThreadClock::now();
        let t0 = Instant::now();
        let result = service.solve(inst, &req);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let clock1 = ThreadClock::now();
        drop(scope);
        let steal_ms = match (&clock0, &clock1) {
            (Some(c0), Some(c1)) => {
                phase.blocked += usize::from(c1.blocked_since(c0));
                c1.steal_ms(c0, wall_ms)
            }
            _ => 0.0,
        };
        phase.attempted += 1;
        match result {
            Ok(resp) if same_solve(&resp, &phase.first) => {
                phase.times_ms.push(wall_ms - steal_ms);
                phase.wall_ms.push(wall_ms);
            }
            Ok(_) => {
                phase.failed += 1;
                phase
                    .errors
                    .push("a solve differs from the warm-up solve".to_owned());
            }
            Err(e) => {
                phase.failed += 1;
                phase.errors.push(format!("solve failed: {e}"));
            }
        }
        if let Some(id) = trace {
            let spans = ses_obs::collect_trace(id);
            let total = |stage: Stage| {
                spans
                    .iter()
                    .filter(|s| s.stage == stage)
                    .map(|s| s.dur_ns as f64 / 1e6)
                    .sum::<f64>()
            };
            phase
                .spans_ms
                .push((total(Stage::Sweep), total(Stage::Select)));
        }
    }
    phase
}

/// Per-layer figures of the solve path.
pub struct SolveLayers {
    pub build_ms: f64,
    pub sweep_ms: f64,
    pub ns_per_visit: f64,
    pub posting_visits: f64,
    pub score_evaluations: f64,
    pub resident_mib: f64,
    /// Median of the traced solves' `select` spans.
    pub select_ms: f64,
    pub pop_yield: f64,
    pub ledger: Ledger,
}

/// Times the engine layers directly and builds the solve ledger from a
/// traced phase.
pub fn layers(inst: &Arc<SesInstance>, traced: &SolvePhase) -> SolveLayers {
    const REPS: usize = 7;
    let mut builds = Vec::with_capacity(REPS);
    let mut sweeps = Vec::with_capacity(REPS);
    let mut sweep_visits = 0u64;
    let mut resident = 0u64;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let engine = black_box(AttendanceEngine::new(inst));
        builds.push(t0.elapsed().as_secs_f64() * 1e3);
        resident = engine.memory_stats().total_resident_bytes();
        // Interval-major, as GRD's opening sweep runs it: one interval's
        // column block scores every event before the next. Event-major
        // (`score_all_with` per event) took about 1.5 times as long on the
        // dense tenant, so it would not add up to the traced `sweep` span.
        let all_events: Vec<EventId> = (0..inst.num_events())
            .map(|e| EventId::new(e as u32))
            .collect();
        let mut counters = EngineCounters::default();
        let t0 = Instant::now();
        for t in 0..inst.num_intervals() {
            black_box(engine.score_frontier_with(
                &all_events,
                IntervalId::new(t as u32),
                &mut counters,
            ));
        }
        sweeps.push(t0.elapsed().as_secs_f64() * 1e3);
        sweep_visits = counters.posting_visits;
    }
    let build_ms = median(&builds);
    let sweep_ms = median(&sweeps);
    let outcome = registry::build_threaded(SPEC, 1)
        .run(inst, K)
        .expect("direct scheduler run");
    let pop_yield = outcome.stats.engine.assigns as f64 / outcome.stats.pops.max(1) as f64;
    let sweep_spans: Vec<f64> = traced.spans_ms.iter().map(|s| s.0).collect();
    let select_spans: Vec<f64> = traced.spans_ms.iter().map(|s| s.1).collect();
    // Wall time, steal included, as in the spans it is split into.
    let ledger = Ledger::new(
        "in-process solve wall time",
        "ms",
        traced.wall_ms.len(),
        mean(&traced.wall_ms),
    )
    .part("core.engine build (timed)", build_ms)
    .part("core.engine sweep (span)", mean(&sweep_spans))
    .part("core.algorithms select (span)", mean(&select_spans));
    SolveLayers {
        build_ms,
        sweep_ms,
        ns_per_visit: sweep_ms * 1e6 / sweep_visits.max(1) as f64,
        posting_visits: traced.first.counters.posting_visits as f64,
        score_evaluations: traced.first.counters.score_evaluations as f64,
        resident_mib: resident as f64 / (1 << 20) as f64,
        select_ms: median(&select_spans),
        pop_yield,
        ledger,
    }
}
