//! What the `bench_*` binaries share: environment knobs and the
//! `BENCH_*.json` writer. The output is a `customSmallerIsBetter` entry
//! list, `[{"name", "value", "unit"}]`, one entry per line;
//! `scripts/check.sh` parses those lines into `BENCH_HISTORY.jsonl`.

/// The environment variable `name` parsed as a `u64`, or `default`.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The environment variable `name` parsed as an `f64`, or `default`.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One reported metric.
pub struct Entry {
    /// `<bench>/<what>`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit label.
    pub unit: String,
}

/// Writes `entries` to `out_path` as a JSON array, says so on stderr and
/// echoes the JSON to stdout.
pub fn write_entries(out_path: &str, entries: &[Entry]) {
    let mut json = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}{}\n",
            e.name,
            e.value,
            e.unit,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    std::fs::write(out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
    println!("{json}");
}
