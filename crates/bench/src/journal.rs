//! Crash-safe sweep journal: one JSONL line per completed grid cell.
//!
//! The `sweep` binary appends a line here the moment each cell finishes,
//! so an interrupted sweep (SIGKILL, power loss, panic in an unrelated
//! cell) can resume without re-running work. The format is append-only
//! JSONL because it degrades gracefully: a torn final line — the only
//! corruption an append-only writer can suffer — simply fails to parse
//! and the cell it described re-runs on resume.
//!
//! Entries carry the cell's global grid index, its label, and a key
//! naming everything that determines its row (the cell's content
//! fingerprint and the clock backend); the sweep reuses an entry only
//! when all three match, so a journal written at a different scale,
//! memory model, parameter set, clock or grid shape is never merged.

use std::io::Write as _;
use std::path::Path;
use warped_telemetry::json::{self, escape};

/// One completed grid cell, as journaled by the sweep engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The cell's index in the full benchmark-major grid.
    pub index: usize,
    /// `"{benchmark}/{technique}"`, the row label in `bench_grid.json`.
    pub label: String,
    /// What the row depends on: the cell fingerprint and the clock
    /// backend (see `sweep::journal_key`).
    pub key: String,
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// Cycles covered by the event-driven fast-forward clock.
    pub ff_cycles: u64,
}

impl JournalEntry {
    /// Renders the entry as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        format!(
            "{{\"index\":{},\"label\":\"{}\",\"key\":\"{}\",\"cycles\":{},\"ff_cycles\":{}}}",
            self.index,
            escape(&self.label),
            escape(&self.key),
            self.cycles,
            self.ff_cycles
        )
    }

    /// Parses one journal line; `None` for torn or malformed lines.
    #[must_use]
    pub fn parse(line: &str) -> Option<JournalEntry> {
        let v = json::parse(line).ok()?;
        Some(JournalEntry {
            index: usize::try_from(v.get("index")?.as_u64()?).ok()?,
            label: v.get("label")?.as_str()?.to_owned(),
            key: v.get("key")?.as_str()?.to_owned(),
            cycles: v.get("cycles")?.as_u64()?,
            ff_cycles: v.get("ff_cycles")?.as_u64()?,
        })
    }

    /// Appends this entry as one line and flushes, so the entry is
    /// durable before the next cell is attempted.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the write or flush.
    pub fn append(&self, file: &mut std::fs::File) -> std::io::Result<()> {
        writeln!(file, "{}", self.to_line())?;
        file.flush()
    }
}

/// Loads every parseable entry from a journal file.
///
/// A missing file is an empty journal (first run), and torn or
/// malformed lines are skipped — the cells they described simply
/// re-run. Later entries win over earlier ones with the same index,
/// so a journal that recorded a cell twice stays consistent.
///
/// # Errors
///
/// Returns an I/O error only for genuine read failures (permissions,
/// not `NotFound`).
pub fn load(path: &Path) -> std::io::Result<Vec<JournalEntry>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut entries: Vec<JournalEntry> = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        if let Some(entry) = JournalEntry::parse(line) {
            entries.retain(|e| e.index != entry.index);
            entries.push(entry);
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> JournalEntry {
        JournalEntry {
            index: 42,
            label: "hotspot/Warped Gates".to_owned(),
            key: "00000000deadbeef/event-queue".to_owned(),
            cycles: 123_456,
            ff_cycles: 7_890,
        }
    }

    #[test]
    fn round_trips_through_a_line() {
        let e = entry();
        assert_eq!(JournalEntry::parse(&e.to_line()), Some(e));
    }

    #[test]
    fn escaped_labels_round_trip() {
        let e = JournalEntry {
            label: "odd\"label\\with\tescapes".to_owned(),
            ..entry()
        };
        assert_eq!(JournalEntry::parse(&e.to_line()), Some(e));

        // A label that spells out other fields must stay one string, and
        // a raw control character must survive its \u escape.
        let e = JournalEntry {
            label: "x\",\"cycles\":5,\"x\":\"\u{1}y".to_owned(),
            ..entry()
        };
        assert_eq!(JournalEntry::parse(&e.to_line()), Some(e));
    }

    #[test]
    fn torn_lines_are_rejected_not_fatal() {
        let line = entry().to_line();
        for cut in 1..line.len() {
            // A torn tail must never parse into a wrong entry; parsing
            // a strict prefix either fails or is impossible (no '}').
            assert_eq!(JournalEntry::parse(&line[..cut]), None, "cut at {cut}");
        }
        assert_eq!(JournalEntry::parse(""), None);
        assert_eq!(JournalEntry::parse("not json at all"), None);
    }

    #[test]
    fn load_tolerates_missing_file_and_garbage_lines() {
        let dir = std::env::temp_dir().join("warped_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("missing.jsonl");
        std::fs::remove_file(&path).ok();
        assert_eq!(load(&path).unwrap(), Vec::new());

        let good = entry();
        let mut text = format!("{}\n", good.to_line());
        text.push_str("{\"index\":1,\"label\":\"torn");
        std::fs::write(&path, &text).unwrap();
        assert_eq!(load(&path).unwrap(), vec![good]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_keeps_the_last_entry_per_index() {
        let dir = std::env::temp_dir().join("warped_journal_dup_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dup.jsonl");
        let old = entry();
        let new = JournalEntry {
            cycles: 999,
            ..entry()
        };
        std::fs::write(&path, format!("{}\n{}\n", old.to_line(), new.to_line())).unwrap();
        assert_eq!(load(&path).unwrap(), vec![new]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_is_line_oriented() {
        let dir = std::env::temp_dir().join("warped_journal_append_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        std::fs::remove_file(&path).ok();
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap();
        let a = entry();
        let b = JournalEntry {
            index: 43,
            ..entry()
        };
        a.append(&mut f).unwrap();
        b.append(&mut f).unwrap();
        drop(f);
        assert_eq!(load(&path).unwrap(), vec![a, b]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
