//! The versioned, self-describing `BENCH_*.json` document format.
//!
//! A bench document is the machine-readable artifact of one meter run:
//! one file per suite (`BENCH_epcc.json`, `BENCH_npb.json`), each
//! carrying enough metadata to be interpreted years later with no access
//! to this code — a `schema` name, a `schema_version`, the unit of every
//! number, and the run parameters that make two documents comparable
//! (scale, thread count, warmup and repetition policy).
//!
//! Serialization is a hand-rolled writer and parsing a hand-rolled
//! recursive-descent JSON reader: the workspace is hermetic (no serde,
//! no registry dependencies), and the subset of JSON we emit — objects,
//! arrays, strings, finite numbers, booleans — is small enough that
//! owning the code beats owning the dependency. Floats are printed with
//! Rust's shortest round-trip formatting, so parse(serialize(doc))
//! reproduces the document exactly.
//!
//! Malformed input fails with a typed [`SchemaError`], distinguishing
//! truncation (the common artifact-upload failure) from corruption, and
//! schema/version mismatches from structural field errors.

use std::fmt::Write as _;

use super::stats::SampleStats;

/// Schema identifier stamped into every document.
pub const SCHEMA_NAME: &str = "ora-meter/bench";
/// Current schema version. Bump on any incompatible shape change.
pub const SCHEMA_VERSION: u64 = 1;

/// One meter run over one suite — the root of a `BENCH_*.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Suite key (`epcc` / `npb`).
    pub suite: String,
    /// Work-sizing scale key (`quick` / `full`).
    pub scale: String,
    /// OpenMP thread count of the measured runtime.
    pub threads: usize,
    /// Warmup repetitions discarded before sampling.
    pub warmup: usize,
    /// Timed repetitions collected per configuration.
    pub target_reps: usize,
    /// Unit of `median`/`ci`/`min`/`max`/`mad` fields.
    pub unit: String,
    /// Synchronization-core configuration active during the run, if the
    /// producer recorded it. Optional for backward compatibility:
    /// documents written before this field existed parse with `None`.
    pub sync_config: Option<SyncConfig>,
    /// Per-workload results.
    pub workloads: Vec<WorkloadResult>,
}

/// The runtime's synchronization configuration at measurement time —
/// which barrier algorithm ran and what the spin budgets were. Two
/// documents with different blocks here are measuring different code
/// paths and should not be ratio-gated against each other blindly.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncConfig {
    /// Active barrier algorithm (`central`).
    pub barrier: String,
    /// Spin iterations before parking in short waits (locks).
    pub spin_budget_short: u64,
    /// Spin iterations before parking in long waits (barriers, doorbells).
    pub spin_budget_long: u64,
}

/// Results of one workload across all collector configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name (`parallel`, `cg`, …).
    pub name: String,
    /// Work units (directive instances / region calls) per repetition.
    pub work_units: u64,
    /// One entry per collector configuration, in ladder order.
    pub configs: Vec<ConfigResult>,
}

impl WorkloadResult {
    /// The entry for configuration `key`, if present.
    pub fn config(&self, key: &str) -> Option<&ConfigResult> {
        self.configs.iter().find(|c| c.config == key)
    }
}

/// One workload × one collector configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigResult {
    /// Collector configuration key (`absent`/`paused`/`state`/`trace`).
    pub config: String,
    /// Analyzed repetition statistics (seconds per repetition).
    pub stats: SampleStats,
    /// Median slowdown relative to the `absent` configuration of the
    /// same run (1.0 for `absent` itself). This is the machine-portable
    /// number: absolute medians move with the hardware, ratios mostly
    /// don't — so regression gating compares ratios.
    pub overhead_ratio: f64,
    /// Conservative lower bound of the ratio (config CI low over absent
    /// CI high).
    pub ratio_ci_lo: f64,
    /// Conservative upper bound of the ratio.
    pub ratio_ci_hi: f64,
}

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// Input ended mid-value — the typical truncated-artifact failure.
    Truncated {
        /// Byte offset where input ran out.
        offset: usize,
    },
    /// Input contains bytes that are not the JSON we emit.
    Syntax {
        /// Byte offset of the offending input.
        offset: usize,
        /// What was found there.
        found: String,
    },
    /// The document parses as JSON but lacks a required field.
    MissingField(String),
    /// A field holds the wrong JSON type.
    WrongType {
        /// Dotted path of the field.
        field: String,
        /// Expected JSON type.
        expected: &'static str,
    },
    /// The `schema` stamp names a different document family.
    WrongSchema {
        /// The stamp found in the document.
        found: String,
    },
    /// The `schema_version` is newer than this reader supports.
    UnsupportedVersion {
        /// Version found in the document.
        found: u64,
    },
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::Truncated { offset } => {
                write!(f, "input truncated at byte {offset}")
            }
            SchemaError::Syntax { offset, found } => {
                write!(f, "JSON syntax error at byte {offset}: found {found:?}")
            }
            SchemaError::MissingField(field) => write!(f, "missing field {field:?}"),
            SchemaError::WrongType { field, expected } => {
                write!(f, "field {field:?} is not of type {expected}")
            }
            SchemaError::WrongSchema { found } => write!(
                f,
                "not an {SCHEMA_NAME} document (schema stamp is {found:?})"
            ),
            SchemaError::UnsupportedVersion { found } => write!(
                f,
                "schema version {found} is newer than supported version {SCHEMA_VERSION}"
            ),
        }
    }
}

impl std::error::Error for SchemaError {}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, v: f64) {
    // Shortest round-trip formatting; the schema has no use for NaN or
    // infinities, and emitting them would not be valid JSON.
    debug_assert!(v.is_finite(), "non-finite value in bench document");
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

impl BenchDoc {
    /// Serialize to the canonical pretty-printed JSON (stable key order,
    /// two-space indent — committed baselines should diff cleanly).
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(4096);
        o.push_str("{\n");
        o.push_str(&format!("  \"schema\": \"{SCHEMA_NAME}\",\n"));
        o.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        o.push_str("  \"suite\": ");
        push_json_string(&mut o, &self.suite);
        o.push_str(",\n  \"scale\": ");
        push_json_string(&mut o, &self.scale);
        let _ = write!(o, ",\n  \"threads\": {}", self.threads);
        let _ = write!(o, ",\n  \"warmup\": {}", self.warmup);
        let _ = write!(o, ",\n  \"target_reps\": {}", self.target_reps);
        o.push_str(",\n  \"unit\": ");
        push_json_string(&mut o, &self.unit);
        if let Some(sc) = &self.sync_config {
            o.push_str(",\n  \"config\": {\n    \"barrier\": ");
            push_json_string(&mut o, &sc.barrier);
            let _ = write!(o, ",\n    \"spin_budget_short\": {}", sc.spin_budget_short);
            let _ = write!(o, ",\n    \"spin_budget_long\": {}", sc.spin_budget_long);
            o.push_str("\n  }");
        }
        o.push_str(",\n  \"workloads\": [");
        for (i, w) in self.workloads.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("\n    {\n      \"name\": ");
            push_json_string(&mut o, &w.name);
            let _ = write!(o, ",\n      \"work_units\": {}", w.work_units);
            o.push_str(",\n      \"configs\": [");
            for (j, c) in w.configs.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                o.push_str("\n        {\n          \"config\": ");
                push_json_string(&mut o, &c.config);
                let _ = write!(o, ",\n          \"reps\": {}", c.stats.reps);
                let _ = write!(o, ",\n          \"rejected\": {}", c.stats.rejected);
                for (key, v) in [
                    ("median", c.stats.median),
                    ("ci95_lo", c.stats.ci_lo),
                    ("ci95_hi", c.stats.ci_hi),
                    ("mad", c.stats.mad),
                    ("min", c.stats.min),
                    ("max", c.stats.max),
                    ("overhead_ratio", c.overhead_ratio),
                    ("ratio_ci_lo", c.ratio_ci_lo),
                    ("ratio_ci_hi", c.ratio_ci_hi),
                ] {
                    let _ = write!(o, ",\n          \"{key}\": ");
                    push_f64(&mut o, v);
                }
                o.push_str("\n        }");
            }
            o.push_str("\n      ]\n    }");
        }
        o.push_str("\n  ]\n}\n");
        o
    }

    /// Parse a document, validating the schema stamp and version.
    pub fn from_json(input: &str) -> Result<BenchDoc, SchemaError> {
        let value = parse_json(input)?;
        let root = value.as_object("$")?;

        let stamp = root.get_str("schema")?;
        if stamp != SCHEMA_NAME {
            return Err(SchemaError::WrongSchema {
                found: stamp.to_string(),
            });
        }
        let version = root.get_u64("schema_version")?;
        if version > SCHEMA_VERSION {
            return Err(SchemaError::UnsupportedVersion { found: version });
        }

        let mut workloads = Vec::new();
        for (i, wv) in root.get_array("workloads")?.iter().enumerate() {
            let path = format!("workloads[{i}]");
            let w = wv.as_object(&path)?;
            let mut configs = Vec::new();
            for (j, cv) in w.get_array("configs")?.iter().enumerate() {
                let cpath = format!("{path}.configs[{j}]");
                let c = cv.as_object(&cpath)?;
                configs.push(ConfigResult {
                    config: c.get_str("config")?.to_string(),
                    stats: SampleStats {
                        reps: c.get_u64("reps")? as usize,
                        rejected: c.get_u64("rejected")? as usize,
                        median: c.get_f64("median")?,
                        ci_lo: c.get_f64("ci95_lo")?,
                        ci_hi: c.get_f64("ci95_hi")?,
                        mad: c.get_f64("mad")?,
                        min: c.get_f64("min")?,
                        max: c.get_f64("max")?,
                    },
                    overhead_ratio: c.get_f64("overhead_ratio")?,
                    ratio_ci_lo: c.get_f64("ratio_ci_lo")?,
                    ratio_ci_hi: c.get_f64("ratio_ci_hi")?,
                });
            }
            workloads.push(WorkloadResult {
                name: w.get_str("name")?.to_string(),
                work_units: w.get_u64("work_units")?,
                configs,
            });
        }

        let sync_config = match root.maybe("config") {
            None => None,
            Some(v) => {
                let c = v.as_object("$.config")?;
                Some(SyncConfig {
                    barrier: c.get_str("barrier")?.to_string(),
                    spin_budget_short: c.get_u64("spin_budget_short")?,
                    spin_budget_long: c.get_u64("spin_budget_long")?,
                })
            }
        };

        Ok(BenchDoc {
            suite: root.get_str("suite")?.to_string(),
            scale: root.get_str("scale")?.to_string(),
            threads: root.get_u64("threads")? as usize,
            warmup: root.get_u64("warmup")? as usize,
            target_reps: root.get_u64("target_reps")? as usize,
            unit: root.get_str("unit")?.to_string(),
            sync_config,
            workloads,
        })
    }

    /// The workload named `name`, if present.
    pub fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

// ---------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser
// ---------------------------------------------------------------------

/// A parsed JSON value (the subset the schema emits).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

struct ObjectView<'a> {
    path: String,
    fields: &'a [(String, Json)],
}

impl Json {
    fn as_object<'a>(&'a self, path: &str) -> Result<ObjectView<'a>, SchemaError> {
        match self {
            Json::Object(fields) => Ok(ObjectView {
                path: path.to_string(),
                fields,
            }),
            _ => Err(SchemaError::WrongType {
                field: path.to_string(),
                expected: "object",
            }),
        }
    }
}

impl ObjectView<'_> {
    /// Optional-field lookup: absent is `None`, not an error.
    fn maybe(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn get(&self, key: &str) -> Result<&Json, SchemaError> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| SchemaError::MissingField(format!("{}.{key}", self.path)))
    }

    fn get_str(&self, key: &str) -> Result<&str, SchemaError> {
        match self.get(key)? {
            Json::String(s) => Ok(s),
            _ => Err(SchemaError::WrongType {
                field: format!("{}.{key}", self.path),
                expected: "string",
            }),
        }
    }

    fn get_f64(&self, key: &str) -> Result<f64, SchemaError> {
        match self.get(key)? {
            Json::Number(n) => Ok(*n),
            _ => Err(SchemaError::WrongType {
                field: format!("{}.{key}", self.path),
                expected: "number",
            }),
        }
    }

    fn get_u64(&self, key: &str) -> Result<u64, SchemaError> {
        let n = self.get_f64(key)?;
        if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
            Ok(n as u64)
        } else {
            Err(SchemaError::WrongType {
                field: format!("{}.{key}", self.path),
                expected: "non-negative integer",
            })
        }
    }

    fn get_array(&self, key: &str) -> Result<&[Json], SchemaError> {
        match self.get(key)? {
            Json::Array(items) => Ok(items),
            _ => Err(SchemaError::WrongType {
                field: format!("{}.{key}", self.path),
                expected: "array",
            }),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_json(input: &str) -> Result<Json, SchemaError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(SchemaError::Syntax {
            offset: p.pos,
            found: p.peek_context(),
        });
    }
    Ok(value)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek_context(&self) -> String {
        let end = (self.pos + 12).min(self.bytes.len());
        String::from_utf8_lossy(&self.bytes[self.pos..end]).into_owned()
    }

    fn truncated(&self) -> SchemaError {
        SchemaError::Truncated { offset: self.pos }
    }

    fn expect(&mut self, b: u8) -> Result<(), SchemaError> {
        match self.bytes.get(self.pos) {
            Some(&found) if found == b => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(SchemaError::Syntax {
                offset: self.pos,
                found: self.peek_context(),
            }),
            None => Err(self.truncated()),
        }
    }

    fn value(&mut self) -> Result<Json, SchemaError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.truncated()),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b) if b.is_ascii_digit() || *b == b'-' => self.number(),
            Some(_) => Err(SchemaError::Syntax {
                offset: self.pos,
                found: self.peek_context(),
            }),
        }
    }

    fn literal(&mut self, lit: &[u8], value: Json) -> Result<Json, SchemaError> {
        let end = self.pos + lit.len();
        if end > self.bytes.len() {
            // A prefix of a valid literal at EOF is truncation, not noise.
            if lit.starts_with(&self.bytes[self.pos..]) {
                self.pos = self.bytes.len();
                return Err(self.truncated());
            }
            return Err(SchemaError::Syntax {
                offset: self.pos,
                found: self.peek_context(),
            });
        }
        if &self.bytes[self.pos..end] == lit {
            self.pos = end;
            Ok(value)
        } else {
            Err(SchemaError::Syntax {
                offset: self.pos,
                found: self.peek_context(),
            })
        }
    }

    fn object(&mut self) -> Result<Json, SchemaError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            if self.pos >= self.bytes.len() {
                return Err(self.truncated());
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                Some(_) => {
                    return Err(SchemaError::Syntax {
                        offset: self.pos,
                        found: self.peek_context(),
                    })
                }
                None => return Err(self.truncated()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, SchemaError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                Some(_) => {
                    return Err(SchemaError::Syntax {
                        offset: self.pos,
                        found: self.peek_context(),
                    })
                }
                None => return Err(self.truncated()),
            }
        }
    }

    fn string(&mut self) -> Result<String, SchemaError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.truncated()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        None => return Err(self.truncated()),
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                self.pos = self.bytes.len();
                                return Err(self.truncated());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => {
                                    return Err(SchemaError::Syntax {
                                        offset: self.pos,
                                        found: self.peek_context(),
                                    })
                                }
                            }
                        }
                        Some(_) => {
                            return Err(SchemaError::Syntax {
                                offset: self.pos,
                                found: self.peek_context(),
                            })
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so
                    // boundaries are valid).
                    let s = &self.bytes[self.pos..];
                    let text = unsafe { std::str::from_utf8_unchecked(s) };
                    let c = text.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, SchemaError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        // A bare "-" or "1e" at EOF is a truncated number.
        match text.parse::<f64>() {
            Ok(n) => Ok(Json::Number(n)),
            Err(_) if self.pos == self.bytes.len() => Err(self.truncated()),
            Err(_) => Err(SchemaError::Syntax {
                offset: start,
                found: text.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> BenchDoc {
        let stats = SampleStats {
            reps: 7,
            rejected: 1,
            median: 1.25e-3,
            ci_lo: 1.1e-3,
            ci_hi: 1.4e-3,
            mad: 5.0e-5,
            min: 1.05e-3,
            max: 1.5e-3,
        };
        BenchDoc {
            suite: "epcc".into(),
            scale: "quick".into(),
            threads: 2,
            warmup: 1,
            target_reps: 7,
            unit: "seconds/rep".into(),
            sync_config: Some(SyncConfig {
                barrier: "central".into(),
                spin_budget_short: 64,
                spin_budget_long: 2000,
            }),
            workloads: vec![WorkloadResult {
                name: "parallel".into(),
                work_units: 96,
                configs: vec![
                    ConfigResult {
                        config: "absent".into(),
                        stats,
                        overhead_ratio: 1.0,
                        ratio_ci_lo: 1.0,
                        ratio_ci_hi: 1.0,
                    },
                    ConfigResult {
                        config: "trace".into(),
                        stats: SampleStats {
                            median: 1.5e-3,
                            ..stats
                        },
                        overhead_ratio: 1.2,
                        ratio_ci_lo: 1.05,
                        ratio_ci_hi: 1.35,
                    },
                ],
            }],
        }
    }

    #[test]
    fn serialize_parse_round_trips_exactly() {
        let doc = sample_doc();
        let json = doc.to_json();
        let parsed = BenchDoc::from_json(&json).unwrap();
        assert_eq!(parsed, doc);
        // And the second serialization is byte-identical (canonical form).
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn document_is_self_describing() {
        let json = sample_doc().to_json();
        assert!(json.contains("\"schema\": \"ora-meter/bench\""));
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"unit\": \"seconds/rep\""));
    }

    #[test]
    fn config_block_is_optional_for_backward_compatibility() {
        // A pre-config-block document (the seed baselines) must parse.
        let mut doc = sample_doc();
        doc.sync_config = None;
        let json = doc.to_json();
        assert!(!json.contains("\n  \"config\": {"));
        let parsed = BenchDoc::from_json(&json).unwrap();
        assert_eq!(parsed.sync_config, None);
        assert_eq!(parsed, doc);
        // And a document carrying the block round-trips it.
        let parsed = BenchDoc::from_json(&sample_doc().to_json()).unwrap();
        let sc = parsed.sync_config.expect("config block present");
        assert_eq!(sc.barrier, "central");
        assert_eq!((sc.spin_budget_short, sc.spin_budget_long), (64, 2000));
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let json = sample_doc().to_json();
        for cut in [json.len() / 4, json.len() / 2, json.len() - 2] {
            let err = BenchDoc::from_json(&json[..cut]).unwrap_err();
            assert!(
                matches!(err, SchemaError::Truncated { .. }),
                "cut at {cut}: got {err:?}"
            );
        }
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let json = sample_doc()
            .to_json()
            .replace("\"workloads\": [", "\"workloads\": @");
        assert!(matches!(
            BenchDoc::from_json(&json).unwrap_err(),
            SchemaError::Syntax { .. }
        ));
    }

    #[test]
    fn wrong_schema_and_version_are_rejected() {
        let json = sample_doc().to_json();
        let other = json.replace("ora-meter/bench", "other/doc");
        assert!(matches!(
            BenchDoc::from_json(&other).unwrap_err(),
            SchemaError::WrongSchema { .. }
        ));
        let future = json.replace("\"schema_version\": 1", "\"schema_version\": 99");
        assert_eq!(
            BenchDoc::from_json(&future).unwrap_err(),
            SchemaError::UnsupportedVersion { found: 99 }
        );
    }

    #[test]
    fn missing_field_and_wrong_type_are_reported_with_paths() {
        let json = sample_doc()
            .to_json()
            .replace("\"work_units\": 96", "\"xx\": 96");
        match BenchDoc::from_json(&json).unwrap_err() {
            SchemaError::MissingField(f) => assert!(f.contains("work_units"), "{f}"),
            e => panic!("expected MissingField, got {e:?}"),
        }
        let json = sample_doc()
            .to_json()
            .replace("\"work_units\": 96", "\"work_units\": \"lots\"");
        match BenchDoc::from_json(&json).unwrap_err() {
            SchemaError::WrongType { field, .. } => assert!(field.contains("work_units")),
            e => panic!("expected WrongType, got {e:?}"),
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut doc = sample_doc();
        doc.workloads[0].name = "we\"ird\\name\n\u{1}".into();
        let parsed = BenchDoc::from_json(&doc.to_json()).unwrap();
        assert_eq!(parsed.workloads[0].name, doc.workloads[0].name);
    }

    #[test]
    fn empty_input_is_truncated() {
        assert_eq!(
            BenchDoc::from_json("").unwrap_err(),
            SchemaError::Truncated { offset: 0 }
        );
        assert_eq!(
            BenchDoc::from_json("   ").unwrap_err(),
            SchemaError::Truncated { offset: 3 }
        );
    }

    #[test]
    fn trailing_garbage_is_syntax_error() {
        let json = format!("{}extra", sample_doc().to_json());
        assert!(matches!(
            BenchDoc::from_json(&json).unwrap_err(),
            SchemaError::Syntax { .. }
        ));
    }
}
