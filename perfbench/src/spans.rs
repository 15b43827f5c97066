//! In-memory spans for traced runs, written out once the run ends.
//!
//! A span is a name, a label (the cell or request it covers), start
//! and end on the process clock, the span that caused it, and optional
//! numeric attributes (the sampled child costs of a `sim.run` span).
//! Nothing is written while the benchmark measures.

use std::io::{self, Write};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process clock's epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the log.
    pub id: u64,
    /// The causing span's id (0 for a root).
    pub parent: u64,
    /// The layer boundary, e.g. `sim.run`.
    pub name: &'static str,
    /// The cell or request the span covers.
    pub label: String,
    /// Start, nanoseconds on the process clock.
    pub start_ns: u64,
    /// End, nanoseconds on the process clock.
    pub end_ns: u64,
    /// Extra measurements, e.g. sampled child-call seconds.
    pub attrs: Vec<(&'static str, f64)>,
}

/// The run's spans, kept in memory.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a span and returns its id (for children to cite).
    pub fn push(
        &mut self,
        parent: u64,
        name: &'static str,
        label: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        attrs: Vec<(&'static str, f64)>,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            label: label.into(),
            start_ns,
            end_ns,
            attrs,
        });
        id
    }

    /// Number of spans held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line to `path`,
    /// creating its parent directory.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id,
                s.parent,
                s.name,
                warped_serve::json::escape(&s.label),
                s.start_ns,
                s.end_ns
            )?;
            for (k, v) in &s.attrs {
                write!(out, ",\"{k}\":{v}")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}
