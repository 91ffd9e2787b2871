//! Leveled, rate-limited structured logging to stderr.
//!
//! One line per record, in either human-readable text (default) or JSON
//! (`--log-json`). Each record carries a level, a component name, a
//! message, and typed key/value fields — trace ids go in as fields, so
//! every log line about a request is joinable with its span timeline.
//!
//! Rate limiting is per component: at most [`MAX_LINES_PER_SEC`] lines per
//! second per component, with a summary line (`suppressed=N`) when a
//! window dropped records — a misbehaving client can't turn the
//! slow-request log into an I/O storm.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The server cannot do what was asked of it.
    Error = 0,
    /// Something is off but handled (slow requests land here).
    Warn = 1,
    /// Lifecycle events: startup, shutdown, listeners.
    Info = 2,
    /// Per-request detail.
    Debug = 3,
}

impl Level {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses a `--log-level` value (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// One typed field value on a log record.
#[derive(Debug, Clone)]
pub enum FieldValue {
    /// A string (quoted/escaped in JSON mode).
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u16> for FieldValue {
    fn from(v: u16) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl fmt::Display for FieldValue {
    /// The text-mode rendering (unquoted).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Str(s) => write!(f, "{s}"),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v:.3}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_json_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::Str(s) => push_json_str(out, s),
        FieldValue::U64(n) => out.push_str(&n.to_string()),
        FieldValue::F64(n) if n.is_finite() => out.push_str(&format!("{n}")),
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

static LOG_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static LOG_JSON: AtomicBool = AtomicBool::new(false);

/// Sets the global threshold: records *less* severe than `level` are
/// dropped before formatting.
pub fn set_log_level(level: Level) {
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current global threshold.
pub fn log_level() -> Level {
    match LOG_LEVEL.load(Ordering::Relaxed) {
        0 => Level::Error,
        1 => Level::Warn,
        2 => Level::Info,
        _ => Level::Debug,
    }
}

/// Switches between text (false) and JSON-lines (true) output.
pub fn set_log_json(json: bool) {
    LOG_JSON.store(json, Ordering::Relaxed);
}

/// Whether a record at `level` would currently be emitted (cheap check to
/// skip building expensive fields).
pub fn log_enabled(level: Level) -> bool {
    level <= log_level()
}

/// Per-component rate-limit cap, lines per second.
pub const MAX_LINES_PER_SEC: u64 = 50;

/// Per-component window accounting: (window start second, emitted, dropped).
type RateWindows = HashMap<&'static str, (u64, u64, u64)>;

fn limiter() -> &'static Mutex<RateWindows> {
    static LIMITER: OnceLock<Mutex<RateWindows>> = OnceLock::new();
    LIMITER.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Checks the component's budget for this wall-clock second. Returns the
/// number of lines suppressed in the *previous* window (to report) or
/// `None` when this record itself must be dropped.
fn check_rate(component: &'static str, now_sec: u64) -> Option<u64> {
    let mut map = limiter().lock().expect("log limiter");
    let entry = map.entry(component).or_insert((now_sec, 0, 0));
    if entry.0 != now_sec {
        let dropped = entry.2;
        *entry = (now_sec, 0, 0);
        entry.1 = 1;
        return Some(dropped);
    }
    if entry.1 >= MAX_LINES_PER_SEC {
        entry.2 += 1;
        return None;
    }
    entry.1 += 1;
    Some(0)
}

/// Emits one structured record (subject to level threshold and per-component
/// rate limit). `component` names the emitting subsystem (`server`,
/// `shard`, `loadgen`, …).
pub fn log(level: Level, component: &'static str, message: &str, fields: &[(&str, FieldValue)]) {
    if !log_enabled(level) {
        return;
    }
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    let Some(suppressed) = check_rate(component, now.as_secs()) else {
        return;
    };
    let ts_millis = now.as_millis() as u64;
    let mut line = String::with_capacity(128);
    if LOG_JSON.load(Ordering::Relaxed) {
        line.push_str("{\"ts_millis\":");
        line.push_str(&ts_millis.to_string());
        line.push_str(",\"level\":");
        push_json_str(&mut line, level.label());
        line.push_str(",\"component\":");
        push_json_str(&mut line, component);
        line.push_str(",\"msg\":");
        push_json_str(&mut line, message);
        for (key, value) in fields {
            line.push(',');
            push_json_str(&mut line, key);
            line.push(':');
            push_json_value(&mut line, value);
        }
        if suppressed > 0 {
            line.push_str(",\"suppressed\":");
            line.push_str(&suppressed.to_string());
        }
        line.push('}');
    } else {
        line.push_str(&format!(
            "[{ts_millis}] {:<5} {component}: {message}",
            level.label().to_ascii_uppercase()
        ));
        for (key, value) in fields {
            line.push_str(&format!(" {key}={value}"));
        }
        if suppressed > 0 {
            line.push_str(&format!(" suppressed={suppressed}"));
        }
    }
    line.push('\n');
    // One write per line so concurrent emitters never interleave bytes.
    // `eprint!` rather than a direct `stderr().write_all`: libtest captures
    // the former per test, so log lines never splice into test output.
    eprint!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_and_parsing() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
    }

    #[test]
    fn json_escaping_is_safe() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn rate_limit_suppresses_and_reports() {
        // A dedicated component key keeps this test independent.
        let c: &'static str = "obs-test-rate";
        let mut emitted = 0;
        for _ in 0..(MAX_LINES_PER_SEC + 10) {
            if check_rate(c, 42).is_some() {
                emitted += 1;
            }
        }
        assert_eq!(emitted, MAX_LINES_PER_SEC);
        // Next window reports what the previous one dropped.
        assert_eq!(check_rate(c, 43), Some(10));
        assert_eq!(check_rate(c, 43), Some(0));
    }
}
