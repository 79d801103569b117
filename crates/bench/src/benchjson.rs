//! Machine-readable benchmark records.
//!
//! `run_all` writes its suite timing as `BENCH_runall.json` so CI and
//! scripts can track wall time without scraping human-readable logs.
//! Files land in `$BENCH_JSON_DIR` when set, else the current directory.

use std::path::PathBuf;

/// One benchmark measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Identifier; becomes the `BENCH_<name>.json` file name.
    pub name: String,
    /// Wall-clock duration of the measured run, in seconds.
    pub wall_seconds: f64,
    /// Additional named measurements appended verbatim as JSON number
    /// fields (e.g. `run_all`'s per-harness `fig12_wall`). Keys must
    /// be unique and distinct from the fixed fields.
    pub extras: Vec<(String, f64)>,
}

impl BenchRecord {
    /// Creates a wall-time-only record.
    pub fn wall(name: impl Into<String>, wall_seconds: f64) -> Self {
        BenchRecord { name: name.into(), wall_seconds, extras: Vec::new() }
    }

    /// The record as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"name\":{},\"wall_seconds\":{}",
            json_string(&self.name),
            json_number(self.wall_seconds)
        );
        for (key, value) in &self.extras {
            s.push_str(&format!(",{}:{}", json_string(key), json_number(*value)));
        }
        s.push('}');
        s
    }

    /// Reads one numeric field out of a previously written record, e.g.
    /// the committed `BENCH_runall.json` baseline's `wall_seconds`.
    /// Minimal by design (the writer above emits flat objects with no
    /// nested structure): returns `None` when the file or field is absent.
    pub fn read_field(path: impl AsRef<std::path::Path>, field: &str) -> Option<f64> {
        let text = std::fs::read_to_string(path).ok()?;
        let needle = format!("{}:", json_string(field));
        let at = text.find(&needle)? + needle.len();
        let rest = &text[at..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    }

    /// The output path: `$BENCH_JSON_DIR/BENCH_<name>.json` (or the current
    /// directory without the variable).
    pub fn path(&self) -> PathBuf {
        let dir = std::env::var_os("BENCH_JSON_DIR").map(PathBuf::from).unwrap_or_default();
        dir.join(format!("BENCH_{}.json", self.name))
    }

    /// Writes the record, returning where it landed.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = self.path();
        std::fs::write(&path, format!("{}\n", self.to_json()))?;
        Ok(path)
    }
}

/// Escapes a string for JSON (the names we use are tame, but be correct).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float as valid JSON (no NaN/inf; those become null).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_only_record() {
        let r = BenchRecord::wall("fig3", 1.5);
        assert_eq!(r.to_json(), "{\"name\":\"fig3\",\"wall_seconds\":1.5}");
    }

    #[test]
    fn extras_append_as_number_fields() {
        let mut r = BenchRecord::wall("runall", 1.0);
        r.extras.push(("fig12_wall".into(), 2.5));
        let j = r.to_json();
        assert!(j.ends_with(",\"fig12_wall\":2.5}"), "{j}");
    }

    #[test]
    fn read_field_round_trips() {
        let r = BenchRecord {
            name: "readback".into(),
            wall_seconds: 0.5,
            extras: vec![("msgs_per_sec".into(), 200.0), ("speedup_1m".into(), 3.25)],
        };
        let path = std::env::temp_dir().join("perfcloud_benchjson_readback.json");
        std::fs::write(&path, format!("{}\n", r.to_json())).unwrap();
        assert_eq!(BenchRecord::read_field(&path, "msgs_per_sec"), Some(200.0));
        assert_eq!(BenchRecord::read_field(&path, "speedup_1m"), Some(3.25));
        assert_eq!(BenchRecord::read_field(&path, "missing"), None);
        assert_eq!(BenchRecord::read_field("/no/such/file.json", "msgs_per_sec"), None);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn non_finite_wall_is_null() {
        let r = BenchRecord::wall("x", f64::NAN);
        assert!(r.to_json().contains("\"wall_seconds\":null"));
    }

    #[test]
    fn path_respects_env_dir() {
        let r = BenchRecord::wall("probe", 1.0);
        assert!(r.path().to_string_lossy().ends_with("BENCH_probe.json"));
    }
}
