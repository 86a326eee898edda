//! Structured experiment reports: the machine-readable twin of the
//! stdout tables.
//!
//! Every `exp_*` binary builds a [`Report`] instead of printing directly.
//! [`Report::emit`] then (a) prints the table to stdout in exactly the
//! byte layout the legacy [`crate::table`] helpers produced, and (b)
//! writes a schema-versioned JSON artifact to `results/<exp>.json`
//! (override the directory with `FGQOS_RESULTS_DIR`). The artifact is the
//! source of truth for the experiment book: the `render_book` binary
//! regenerates `results/<exp>.txt` and the measured sections of
//! `EXPERIMENTS.md` from it byte-identically (CI checks for drift).

use crate::table;
use fgqos_sim::json::Value;
use std::path::PathBuf;

/// Schema identifier written into every report artifact.
pub const REPORT_SCHEMA: &str = "fgqos.exp-report";
/// Schema version written into every report artifact.
pub const REPORT_VERSION: u64 = 1;

/// One output block of a report, in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Block {
    /// The `# {id}: {title}` experiment banner.
    Banner {
        /// Experiment id (e.g. `EXP-F1`).
        id: String,
        /// Human-readable title.
        title: String,
    },
    /// A `#   {key} = {value}` run-parameter line.
    Context {
        /// Parameter name.
        key: String,
        /// Formatted parameter value.
        value: String,
    },
    /// A free-form `#   {text}` comment line (summaries, verdicts).
    Note(String),
    /// A fixed-width column header row.
    Header(Vec<String>),
    /// A fixed-width data row (cells unpadded; layout applied at render).
    Row(Vec<String>),
    /// An empty separator line (multi-section reports).
    Blank,
}

/// A structured experiment report (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    exp: String,
    blocks: Vec<Block>,
}

impl Report {
    /// Starts an empty report for the experiment binary named `exp`
    /// (artifact file stem, e.g. `exp_interference`).
    pub fn new(exp: impl Into<String>) -> Self {
        Report {
            exp: exp.into(),
            blocks: Vec::new(),
        }
    }

    /// The experiment name this report belongs to.
    pub fn exp(&self) -> &str {
        &self.exp
    }

    /// The blocks in document order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The value of the first context line named `key`, if any.
    pub fn context_value(&self, key: &str) -> Option<&str> {
        self.blocks.iter().find_map(|b| match b {
            Block::Context { key: k, value } if k == key => Some(value.as_str()),
            _ => None,
        })
    }

    /// Appends the experiment banner.
    pub fn banner(&mut self, id: &str, title: &str) {
        self.blocks.push(Block::Banner {
            id: id.to_string(),
            title: title.to_string(),
        });
    }

    /// Appends a run-parameter context line.
    pub fn context(&mut self, key: &str, value: impl std::fmt::Display) {
        self.blocks.push(Block::Context {
            key: key.to_string(),
            value: value.to_string(),
        });
    }

    /// Appends a free-form comment line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.blocks.push(Block::Note(text.into()));
    }

    /// Appends a column header row.
    pub fn header(&mut self, cols: &[&str]) {
        self.blocks
            .push(Block::Header(cols.iter().map(|c| c.to_string()).collect()));
    }

    /// Appends a data row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.blocks.push(Block::Row(cells));
    }

    /// Appends an empty separator line.
    pub fn blank(&mut self) {
        self.blocks.push(Block::Blank);
    }

    /// Renders the report exactly as the legacy stdout tables looked:
    /// one line per block, right-aligned 14-character columns.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for b in &self.blocks {
            match b {
                Block::Banner { id, title } => out.push_str(&format!("# {id}: {title}")),
                Block::Context { key, value } => out.push_str(&format!("#   {key} = {value}")),
                Block::Note(text) => out.push_str(&format!("#   {text}")),
                Block::Header(cells) => {
                    let refs: Vec<&str> = cells.iter().map(String::as_str).collect();
                    out.push_str(&table::format_header(&refs));
                }
                Block::Row(cells) => out.push_str(&table::format_row(cells)),
                Block::Blank => {}
            }
            out.push('\n');
        }
        out
    }

    /// Serializes the report as a schema-versioned JSON document.
    pub fn to_json(&self) -> Value {
        let mut blocks = Value::arr();
        for b in &self.blocks {
            let mut o = Value::obj();
            match b {
                Block::Banner { id, title } => {
                    o.set("kind", Value::str("banner"));
                    o.set("id", Value::str(id.clone()));
                    o.set("title", Value::str(title.clone()));
                }
                Block::Context { key, value } => {
                    o.set("kind", Value::str("context"));
                    o.set("key", Value::str(key.clone()));
                    o.set("value", Value::str(value.clone()));
                }
                Block::Note(text) => {
                    o.set("kind", Value::str("note"));
                    o.set("text", Value::str(text.clone()));
                }
                Block::Header(cells) => {
                    o.set("kind", Value::str("header"));
                    o.set("cells", str_arr(cells));
                }
                Block::Row(cells) => {
                    o.set("kind", Value::str("row"));
                    o.set("cells", str_arr(cells));
                }
                Block::Blank => {
                    o.set("kind", Value::str("blank"));
                }
            }
            blocks.push(o);
        }
        let mut doc = Value::obj();
        doc.set("schema", Value::str(REPORT_SCHEMA));
        doc.set("version", Value::from(REPORT_VERSION));
        doc.set("exp", Value::str(self.exp.clone()));
        doc.set("blocks", blocks);
        doc
    }

    /// Deserializes a report from its JSON artifact.
    pub fn from_json(doc: &Value) -> Result<Report, String> {
        if doc.get("schema").and_then(Value::as_str) != Some(REPORT_SCHEMA) {
            return Err(format!("not a {REPORT_SCHEMA} document"));
        }
        if doc.get("version").and_then(Value::as_u64) != Some(REPORT_VERSION) {
            return Err(format!("unsupported {REPORT_SCHEMA} version"));
        }
        let exp = doc
            .get("exp")
            .and_then(Value::as_str)
            .ok_or("missing exp")?
            .to_string();
        let mut report = Report::new(exp);
        let blocks = doc
            .get("blocks")
            .and_then(Value::as_arr)
            .ok_or("missing blocks")?;
        for b in blocks {
            let kind = b
                .get("kind")
                .and_then(Value::as_str)
                .ok_or("missing kind")?;
            let block = match kind {
                "banner" => Block::Banner {
                    id: req_str(b, "id")?,
                    title: req_str(b, "title")?,
                },
                "context" => Block::Context {
                    key: req_str(b, "key")?,
                    value: req_str(b, "value")?,
                },
                "note" => Block::Note(req_str(b, "text")?),
                "header" => Block::Header(req_cells(b)?),
                "row" => Block::Row(req_cells(b)?),
                "blank" => Block::Blank,
                other => return Err(format!("unknown block kind '{other}'")),
            };
            report.blocks.push(block);
        }
        Ok(report)
    }

    /// The directory report artifacts are written to / read from:
    /// `$FGQOS_RESULTS_DIR`, or `results` relative to the working
    /// directory.
    pub fn results_dir() -> PathBuf {
        std::env::var_os("FGQOS_RESULTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("results"))
    }

    /// Prints the report to stdout (byte-identical to the legacy tables)
    /// and writes the JSON artifact to
    /// [`results_dir()`](Report::results_dir)`/<exp>.json`.
    ///
    /// An unwritable artifact directory is reported on stderr and does not
    /// disturb the stdout capture.
    pub fn emit(&self) {
        print!("{}", self.render_text());
        let dir = Report::results_dir();
        let path = dir.join(format!("{}.json", self.exp));
        let payload = format!("{}\n", self.to_json().to_pretty());
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(&dir)?;
            std::fs::write(&path, &payload)
        };
        if let Err(e) = write() {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

fn str_arr(cells: &[String]) -> Value {
    let mut a = Value::arr();
    for c in cells {
        a.push(Value::str(c.clone()));
    }
    a
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing '{key}'"))
}

fn req_cells(v: &Value) -> Result<Vec<String>, String> {
    let cells = v
        .get("cells")
        .and_then(Value::as_arr)
        .ok_or("missing 'cells'")?;
    cells
        .iter()
        .map(|c| {
            c.as_str()
                .map(str::to_string)
                .ok_or("non-string cell".to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("exp_sample");
        r.banner("EXP-X", "A sample experiment");
        r.context("seed", 42);
        r.header(&["col_a", "col_b"]);
        r.row(vec!["1".into(), "2.50".into()]);
        r.blank();
        r.banner("EXP-X.2", "Second section");
        r.row(vec!["x".into()]);
        r.note("per-port: worst target error 1.2 %");
        r
    }

    #[test]
    fn text_matches_legacy_layout() {
        let text = sample().render_text();
        let expected = "# EXP-X: A sample experiment\n\
                        #   seed = 42\n\
                        \x20        col_a          col_b\n\
                        \x20            1           2.50\n\
                        \n\
                        # EXP-X.2: Second section\n\
                        \x20            x\n\
                        #   per-port: worst target error 1.2 %\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn json_roundtrip() {
        let r = sample();
        let doc = r.to_json();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(REPORT_SCHEMA));
        let back = Report::from_json(&doc).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.render_text(), r.render_text());
        // And through the text form of the artifact.
        let parsed = fgqos_sim::json::Value::parse(&doc.to_pretty()).unwrap();
        assert_eq!(Report::from_json(&parsed).unwrap(), r);
    }

    #[test]
    fn context_value_reads_the_first_matching_line() {
        let mut r = sample();
        r.context("seed", 7);
        assert_eq!(r.context_value("seed"), Some("42"));
        assert_eq!(r.context_value("col_a"), None, "cells are not context");
    }

    #[test]
    fn from_json_rejects_other_schemas() {
        let mut doc = Value::obj();
        doc.set("schema", Value::str("something.else"));
        assert!(Report::from_json(&doc).is_err());
    }
}
