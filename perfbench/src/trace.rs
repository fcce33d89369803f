//! In-memory spans recorded around calls into the program's public
//! functions, written out as JSON lines when the run ends. Spans of one
//! job share its id; `parent` names the span that caused it.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub job: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Span recorder. A disabled tracer records nothing, and callers skip
/// the extra probe calls (`queued_jobs`, `cache_stats`) it would time.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn span(
        &mut self,
        job: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            self.spans.push(Span {
                job,
                name,
                parent,
                start_ns: start.saturating_duration_since(self.t0).as_nanos() as u64,
                dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            });
        }
    }

    /// Run `f`, recording it as span `name` of `job`, and return its
    /// result with its duration in seconds (timed even when disabled).
    pub fn time<R>(
        &mut self,
        job: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t = Instant::now();
        let r = f();
        let end = Instant::now();
        self.span(job, name, parent, t, end);
        (r, (end - t).as_secs_f64())
    }

    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"job\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.job, s.name, s.parent, s.start_ns, s.dur_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
