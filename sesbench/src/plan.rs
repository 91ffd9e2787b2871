//! The serve phase's open-loop arrival schedule, fixed by the seed before
//! any request is sent.
//!
//! Each connection gets evenly spaced session slots at its share of the
//! offered rate. A slot carries the next step of one of the connection's
//! live sessions — open, an event of its recorded stream, a report, or
//! close once the stream is used up — so every session's requests stay in
//! order on one connection. Stateless solves and `/metrics` scrapes come at
//! fixed periods, alternating between connections; a request due while its
//! connection is still busy is sent late, and its latency counts from the
//! due time.

/// One request of the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `POST /sessions/{name}/open`.
    Open { name: String, stream: usize },
    /// `POST /sessions/{name}/event` with event `idx` of `stream`.
    Event {
        name: String,
        stream: usize,
        idx: usize,
    },
    /// `POST /sessions/{name}/report`, after `applied` events.
    Report {
        name: String,
        stream: usize,
        applied: usize,
    },
    /// `POST /sessions/{name}/close`, after `applied` events.
    Close {
        name: String,
        stream: usize,
        applied: usize,
    },
    /// `POST /solve` on the tenant.
    Solve,
    /// `GET /metrics`.
    Metrics,
}

impl Op {
    /// Request class, as used in the latency metrics.
    pub fn class(&self) -> Class {
        match self {
            Op::Open { .. } => Class::Open,
            Op::Event { .. } => Class::Event,
            Op::Report { .. } => Class::Report,
            Op::Close { .. } => Class::Close,
            Op::Solve => Class::Solve,
            Op::Metrics => Class::Metrics,
        }
    }
}

/// Request classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Open,
    Event,
    Report,
    Close,
    Solve,
    Metrics,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 6] = [
        Class::Event,
        Class::Report,
        Class::Open,
        Class::Close,
        Class::Solve,
        Class::Metrics,
    ];

    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Class::Open => "open",
            Class::Event => "event",
            Class::Report => "report",
            Class::Close => "close",
            Class::Solve => "solve",
            Class::Metrics => "metrics",
        }
    }

    /// The latency limit a reply must meet to count towards goodput (ms).
    pub fn limit_ms(self) -> f64 {
        match self {
            Class::Event | Class::Report | Class::Close | Class::Metrics => 50.0,
            Class::Open => 250.0,
            Class::Solve => 1_000.0,
        }
    }
}

/// One scheduled request: when it is due (ns after the window opens) and
/// what it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Due {
    pub at_ns: u64,
    pub op: Op,
}

/// Shape of a schedule.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub seed: u64,
    pub conns: usize,
    /// Session-traffic slots per second, across all connections.
    pub session_rate: f64,
    pub solve_every_ms: u64,
    pub metrics_every_ms: u64,
    pub window_ms: u64,
    /// Live sessions per connection.
    pub live: usize,
    /// Share of non-open/close slots that are reports.
    pub report_share: f64,
}

/// SplitMix64: a small seeded generator, so schedules repeat exactly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct Live {
    name: String,
    stream: usize,
    next: usize,
}

/// Builds the per-connection schedules. `stream_lens[i]` is the number of
/// events in stream `i`. Each connection carries its own sessions at its
/// share of the rate (staggered by a fraction of a slot); solves and
/// scrapes alternate between connections.
pub fn build(shape: &Shape, stream_lens: &[usize]) -> Vec<Vec<Due>> {
    assert!(shape.conns > 0 && shape.live > 0 && !stream_lens.is_empty());
    let window_ns = shape.window_ms * 1_000_000;
    let spacing_ns = (1e9 * shape.conns as f64 / shape.session_rate) as u64;
    let mut plans = Vec::with_capacity(shape.conns);
    for c in 0..shape.conns {
        let mut rng = Rng::new(shape.seed ^ (0xC0 + c as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
        let mut live: Vec<Option<Live>> = (0..shape.live).map(|_| None).collect();
        let mut opened = 0usize;
        let mut plan = Vec::new();
        let mut at = spacing_ns * c as u64 / shape.conns as u64;
        while at < window_ns {
            let slot = rng.below(shape.live);
            let op = match &mut live[slot] {
                None => {
                    let name = format!("c{c}-s{opened}");
                    opened += 1;
                    let stream = rng.below(stream_lens.len());
                    live[slot] = Some(Live {
                        name: name.clone(),
                        stream,
                        next: 0,
                    });
                    Op::Open { name, stream }
                }
                Some(s) if s.next == stream_lens[s.stream] => {
                    let op = Op::Close {
                        name: s.name.clone(),
                        stream: s.stream,
                        applied: s.next,
                    };
                    live[slot] = None;
                    op
                }
                Some(s) => {
                    if rng.unit() < shape.report_share {
                        Op::Report {
                            name: s.name.clone(),
                            stream: s.stream,
                            applied: s.next,
                        }
                    } else {
                        s.next += 1;
                        Op::Event {
                            name: s.name.clone(),
                            stream: s.stream,
                            idx: s.next - 1,
                        }
                    }
                }
            };
            plan.push(Due { at_ns: at, op });
            at += spacing_ns;
        }
        plans.push(plan);
    }
    // Periodic requests start at an offset into their period, so solves
    // and scrapes never share an instant.
    for (every_ms, phase, op) in [
        (shape.solve_every_ms, 1, Op::Solve),
        (shape.metrics_every_ms, 3, Op::Metrics),
    ] {
        let every = every_ms * 1_000_000;
        let mut at = every * phase / 4;
        let mut k = 0usize;
        while at < window_ns {
            plans[k % shape.conns].push(Due {
                at_ns: at,
                op: op.clone(),
            });
            at += every;
            k += 1;
        }
    }
    for plan in &mut plans {
        // Stable: a periodic request due at a slot's instant goes after it.
        plan.sort_by_key(|d| d.at_ns);
    }
    plans
}

/// Session names still open at the end of a schedule (to close after the
/// window).
pub fn left_open(plans: &[Vec<Due>]) -> Vec<String> {
    let mut open = std::collections::BTreeSet::new();
    for due in plans.iter().flatten() {
        match &due.op {
            Op::Open { name, .. } => {
                open.insert(name.clone());
            }
            Op::Close { name, .. } => {
                open.remove(name);
            }
            _ => {}
        }
    }
    open.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(seed: u64) -> Shape {
        Shape {
            seed,
            conns: 2,
            session_rate: 200.0,
            solve_every_ms: 100,
            metrics_every_ms: 1_000,
            window_ms: 3_000,
            live: 2,
            report_share: 0.2,
        }
    }

    const LENS: [usize; 4] = [12, 9, 15, 11];

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(build(&shape(7), &LENS), build(&shape(7), &LENS));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(build(&shape(7), &LENS), build(&shape(8), &LENS));
    }

    #[test]
    fn rate_and_window_are_respected() {
        let plans = build(&shape(1), &LENS);
        let slots: usize = plans
            .iter()
            .flatten()
            .filter(|d| !matches!(d.op, Op::Solve | Op::Metrics))
            .count();
        assert_eq!(slots, 600, "200/s for 3 s");
        let solves = plans.iter().flatten().filter(|d| d.op == Op::Solve).count();
        assert_eq!(solves, 30);
        let scrapes = plans
            .iter()
            .flatten()
            .filter(|d| d.op == Op::Metrics)
            .count();
        assert_eq!(scrapes, 3);
        for plan in &plans {
            assert!(plan.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
            assert!(plan.iter().all(|d| d.at_ns < 3_000_000_000));
        }
    }

    #[test]
    fn sessions_stay_in_order_on_one_connection() {
        let plans = build(&shape(3), &LENS);
        for (c, plan) in plans.iter().enumerate() {
            let mut state: std::collections::HashMap<&str, (usize, bool)> = Default::default();
            for d in plan {
                match &d.op {
                    Op::Open { name, .. } => {
                        assert!(name.starts_with(&format!("c{c}-")));
                        assert!(state.insert(name, (0, true)).is_none(), "reopened {name}");
                    }
                    Op::Event { name, idx, stream } => {
                        let s = state.get_mut(name.as_str()).expect("event before open");
                        assert!(s.1, "event after close");
                        assert_eq!(*idx, s.0, "events in stream order");
                        assert!(*idx < LENS[*stream]);
                        s.0 += 1;
                    }
                    Op::Report { name, applied, .. } => {
                        assert_eq!(state[name.as_str()], (*applied, true));
                    }
                    Op::Close {
                        name,
                        applied,
                        stream,
                    } => {
                        let s = state.get_mut(name.as_str()).expect("close before open");
                        assert_eq!(*applied, LENS[*stream], "close after the whole stream");
                        s.1 = false;
                    }
                    Op::Solve | Op::Metrics => {}
                }
            }
        }
        assert!(!left_open(&plans).is_empty());
    }
}
