//! Reading `write_json` tables (notably `bench_grid.json`) back in.
//!
//! [`write_json`](crate::write_json) is the single serializer every
//! sweep and figure artifact goes through; [`GridTable::parse`] is its
//! inverse. Consumers — the `warped-serve` `/grid` endpoint, the
//! verification scripts, future plotting tools — load the committed
//! `results/bench_grid.json` and query cells by the same
//! `"{benchmark}/{technique}"` row labels the sweep engine writes, so
//! a freshly simulated cell can be diffed against the checked-in grid
//! without a Python round trip.
//!
//! Parsing is the workspace's one JSON parser
//! ([`warped_telemetry::json`]) plus a shape check over exactly what
//! `write_json` emits: the keys `title`, `headers`, `rows` in that
//! order, each row a `label` plus numeric `values`, `null` for
//! non-finite numbers. Unknown, missing or reordered keys are
//! rejected, so drift between writer and reader fails loudly.

use std::io;
use std::path::Path;
use warped_telemetry::json::{self, JsonValue};

/// One row of a table: the label plus one value per header column.
/// A JSON `null` (how [`write_json`](crate::write_json) spells a
/// non-finite number) loads as [`f64::NAN`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridRow {
    /// The row label, e.g. `"nw/Baseline"`.
    pub label: String,
    /// The numeric columns, in header order.
    pub values: Vec<f64>,
}

/// An in-memory `write_json` table.
#[derive(Debug, Clone, PartialEq)]
pub struct GridTable {
    /// The table title, e.g. `"bench grid"`.
    pub title: String,
    /// Column names, e.g. `["cycles", "ff_cycles"]`.
    pub headers: Vec<String>,
    /// The rows, in file order.
    pub rows: Vec<GridRow>,
}

/// Why a table failed to load.
#[derive(Debug)]
pub enum GridError {
    /// The file could not be read.
    Io(io::Error),
    /// The bytes are not a `write_json` table.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// What the parser expected there.
        message: String,
    },
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::Io(e) => write!(f, "cannot read grid: {e}"),
            GridError::Parse { offset, message } => {
                write!(f, "malformed grid at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for GridError {}

impl From<io::Error> for GridError {
    fn from(e: io::Error) -> Self {
        GridError::Io(e)
    }
}

impl GridTable {
    /// Loads and parses a table from disk.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::Io`] if the file cannot be read and
    /// [`GridError::Parse`] if it is not a `write_json` table.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, GridError> {
        GridTable::parse(&std::fs::read_to_string(path)?)
    }

    /// Parses a table from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::Parse`] on any structural mismatch: with the
    /// byte offset of malformed JSON, or offset 0 when well-formed JSON
    /// is not a `write_json` table.
    pub fn parse(text: &str) -> Result<Self, GridError> {
        let doc = json::parse(text).map_err(|e| GridError::Parse {
            offset: e.offset,
            message: e.message,
        })?;
        let [title, headers, rows] = fields(doc, ["title", "headers", "rows"])?;
        let rows = array(rows, "rows")?
            .into_iter()
            .map(|row| {
                let [label, values] = fields(row, ["label", "values"])?;
                Ok(GridRow {
                    label: string(label, "label")?,
                    values: array(values, "values")?
                        .into_iter()
                        .map(|v| match v {
                            JsonValue::Num(n) => Ok(n),
                            JsonValue::Null => Ok(f64::NAN),
                            _ => Err(shape("values must be numbers or null")),
                        })
                        .collect::<Result<_, _>>()?,
                })
            })
            .collect::<Result<_, GridError>>()?;
        Ok(GridTable {
            title: string(title, "title")?,
            headers: array(headers, "headers")?
                .into_iter()
                .map(|h| string(h, "headers"))
                .collect::<Result<_, _>>()?,
            rows,
        })
    }

    /// The row with the given label, if present.
    #[must_use]
    pub fn row(&self, label: &str) -> Option<&GridRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// One cell, addressed by row label and column header.
    #[must_use]
    pub fn value(&self, label: &str, header: &str) -> Option<f64> {
        let col = self.headers.iter().position(|h| h == header)?;
        self.row(label)?.values.get(col).copied()
    }
}

fn shape(message: impl Into<String>) -> GridError {
    GridError::Parse {
        offset: 0,
        message: message.into(),
    }
}

/// The values of an object whose keys are exactly `keys`, in order.
fn fields<const N: usize>(v: JsonValue, keys: [&str; N]) -> Result<[JsonValue; N], GridError> {
    match v {
        JsonValue::Obj(members) if members.iter().map(|(k, _)| k.as_str()).eq(keys) => {
            let mut values = members.into_iter().map(|(_, v)| v);
            Ok(std::array::from_fn(|_| {
                values.next().expect("key count checked above")
            }))
        }
        _ => Err(shape(format!("expected an object with keys {keys:?}"))),
    }
}

fn array(v: JsonValue, what: &str) -> Result<Vec<JsonValue>, GridError> {
    match v {
        JsonValue::Arr(items) => Ok(items),
        _ => Err(shape(format!("{what} must be an array"))),
    }
}

fn string(v: JsonValue, what: &str) -> Result<String, GridError> {
    match v {
        JsonValue::Str(s) => Ok(s),
        _ => Err(shape(format!("{what} must be a string"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "{\"title\":\"bench grid\",\"headers\":[\"cycles\",\"ff_cycles\"],\
         \"rows\":[{\"label\":\"nw/Baseline\",\"values\":[130559,59691]},\
         {\"label\":\"nw/ConvPG\",\"values\":[131072,null]}]}\n";

    #[test]
    fn parses_the_sweep_format() {
        let t = GridTable::parse(SAMPLE).unwrap();
        assert_eq!(t.title, "bench grid");
        assert_eq!(t.headers, vec!["cycles", "ff_cycles"]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.value("nw/Baseline", "cycles"), Some(130559.0));
        assert_eq!(t.value("nw/Baseline", "ff_cycles"), Some(59691.0));
        assert!(t.value("nw/ConvPG", "ff_cycles").unwrap().is_nan());
        assert_eq!(t.value("nw/Baseline", "ipc"), None);
        assert_eq!(t.value("lud/Baseline", "cycles"), None);
    }

    #[test]
    fn round_trips_write_json_output() {
        let dir = std::env::temp_dir().join("warped_grid_roundtrip_test");
        std::fs::remove_dir_all(&dir).ok();
        let rows = vec![
            ("hotspot/GATES".to_owned(), vec![123.0, 4.5]),
            ("quote\"d\\label".to_owned(), vec![f64::NAN, -2e3]),
            ("x\",\"cycles\":5,\"x\":\"\u{1}y".to_owned(), vec![1.0, 2.0]),
        ];
        crate::write_json(&dir, "Round Trip", &["a", "b"], &rows).unwrap();
        let t = GridTable::load(dir.join("round_trip.json")).unwrap();
        assert_eq!(t.title, "Round Trip");
        assert_eq!(t.rows[0].values, vec![123.0, 4.5]);
        assert_eq!(t.rows[1].label, "quote\"d\\label");
        assert!(t.rows[1].values[0].is_nan());
        assert_eq!(t.rows[1].values[1], -2000.0);
        assert_eq!(t.rows[2].label, rows[2].0);
        assert_eq!(t.rows[2].values, rows[2].1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loads_the_committed_bench_grid_when_present() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench_grid.json");
        let Ok(t) = GridTable::load(&path) else {
            // Fresh checkouts without regenerated results skip here.
            return;
        };
        assert_eq!(t.title, "bench grid");
        assert_eq!(t.headers, vec!["cycles", "ff_cycles"]);
        assert_eq!(t.rows.len(), 108, "18 benchmarks x 6 techniques");
        assert!(t.value("nw/Baseline", "cycles").unwrap() > 0.0);
    }

    #[test]
    fn rejects_malformed_tables_with_an_offset() {
        for bad in [
            "",
            "{",
            "{\"title\":\"x\"}",
            "{\"headers\":[],\"title\":\"x\",\"rows\":[]}",
            "{\"title\":\"x\",\"headers\":[],\"rows\":[]} extra",
            "{\"title\":\"x\",\"headers\":[],\"rows\":[{\"label\":\"a\",\"values\":[oops]}]}",
            "{\"title\":\"x\",\"headers\":[],\"rows\":[{\"label\":\"a\",\"values\":[\"1\"]}]}",
            "{\"title\":\"x\",\"headers\":[],\"rows\":[{\"values\":[],\"label\":\"a\"}]}",
            "{\"title\":\"x\",\"headers\":[1],\"rows\":[]}",
            "{\"title\":\"x\",\"headers\":[],\"rows\":[],\"extra\":0}",
        ] {
            match GridTable::parse(bad) {
                Err(GridError::Parse { .. }) => {}
                other => panic!("{bad:?} should fail to parse, got {other:?}"),
            }
        }
    }

    #[test]
    fn parses_unicode_and_escape_heavy_labels() {
        let text = "{ \"title\" : \"t\\u00e9st\" , \"headers\" : [ ] , \
                    \"rows\" : [ { \"label\" : \"a\\nb\" , \"values\" : [ ] } ] }";
        let t = GridTable::parse(text).unwrap();
        assert_eq!(t.title, "t\u{e9}st");
        assert_eq!(t.rows[0].label, "a\nb");
    }
}
