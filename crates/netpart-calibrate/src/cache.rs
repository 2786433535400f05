//! Persistent calibration cache.
//!
//! The full offline procedure of [`calibrate_testbed`](crate::calibrate_testbed) simulates hundreds
//! of communication-cycle benchmarks; its output depends only on the
//! testbed description, the topology list, and the sweep configuration.
//! [`calibrate_testbed_cached`] therefore keys the result by a fingerprint
//! of those inputs and reuses it:
//!
//! * **process memo** — a `OnceLock`-guarded map, so one process never
//!   calibrates the same inputs twice (not even from different threads);
//! * **disk cache** — `target/netpart-calib/<fingerprint>.json`, so
//!   benches, examples, tests, and repeated experiment runs on one machine
//!   all share a single calibration.
//!
//! The on-disk format is a small hand-rolled JSON document (the workspace
//! is offline and carries no serde); floats are written with Rust's `{:?}`
//! shortest-round-trip formatting and re-read with `str::parse`, which
//! reproduces the exact bit pattern, so a cache hit yields byte-identical
//! fitted constants.

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use netpart_model::{Budget, NetpartError};
use netpart_topology::Topology;

use crate::costmodel::{CalibratedCostModel, FittedCost, LinearCost};
use crate::fit::{calibrate_testbed_budgeted, CalibrationConfig};
use crate::testbed::Testbed;

/// Where a cached-calibration request was satisfied from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Already calibrated in this process.
    MemoHit,
    /// Loaded from `target/netpart-calib/<fingerprint>.json`.
    DiskHit,
    /// Ran the full calibration (and persisted it).
    Miss,
}

/// Fingerprint of everything the calibration result depends on: the full
/// testbed description (machine classes, segment/router recipes, MMPS
/// tuning, seed, wiring), the topology list, and the sweep configuration.
/// FNV-1a over the `Debug` rendering — every field of every component
/// derives `Debug`, and `{:?}` prints floats with full round-trip
/// precision, so any change to any constant changes the fingerprint.
pub fn calibration_fingerprint(
    testbed: &Testbed,
    topologies: &[Topology],
    cfg: &CalibrationConfig,
) -> u64 {
    let repr = format!("{testbed:?}|{topologies:?}|{cfg:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in repr.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The cache directory: `$NETPART_CALIB_DIR` if set, otherwise
/// `target/netpart-calib` in the workspace.
pub fn cache_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("NETPART_CALIB_DIR") {
        return PathBuf::from(dir);
    }
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/netpart-calib"
    ))
}

fn cache_path(fingerprint: u64) -> PathBuf {
    cache_dir().join(format!("{fingerprint:016x}.json"))
}

/// Like [`calibrate_testbed`](crate::calibrate_testbed), but consults the process memo and the
/// on-disk cache first. Returns the model and where it came from — the
/// [`CacheStatus`] is the only signal; nothing is logged.
pub fn calibrate_testbed_cached_status(
    testbed: &Testbed,
    topologies: &[Topology],
    cfg: &CalibrationConfig,
) -> Result<(CalibratedCostModel, CacheStatus), NetpartError> {
    cached(testbed, topologies, cfg, &Budget::unlimited())
}

/// The cached calibration under a cooperative [`Budget`]. Cache hits are
/// served regardless of the budget (they are cheap); only a miss — the
/// full simulated benchmarking procedure — polls the budget, so an
/// expired plan-server request stops sweeping instead of burning a
/// worker. The memo lock is held across the fill, so concurrent requests
/// for the same fingerprint wait for one calibration (single-flight) —
/// a waiter's own deadline is re-checked once it acquires the lock.
fn cached(
    testbed: &Testbed,
    topologies: &[Topology],
    cfg: &CalibrationConfig,
    budget: &Budget,
) -> Result<(CalibratedCostModel, CacheStatus), NetpartError> {
    static MEMO: OnceLock<Mutex<HashMap<u64, CalibratedCostModel>>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    let fp = calibration_fingerprint(testbed, topologies, cfg);

    // Hold the lock across the whole fill so concurrent callers with the
    // same fingerprint wait for one calibration instead of racing.
    let mut map = memo.lock().expect("calibration memo poisoned");
    if let Some(model) = map.get(&fp) {
        return Ok((model.clone(), CacheStatus::MemoHit));
    }

    let path = cache_path(fp);
    if let Some(model) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| parse_model(&text, fp))
    {
        map.insert(fp, model.clone());
        return Ok((model, CacheStatus::DiskHit));
    }

    budget.check()?;
    let model = calibrate_testbed_budgeted(testbed, topologies, cfg, budget)?;
    // A failed write costs the next process a recalibration, nothing else.
    let _ = persist(&path, fp, &model);
    map.insert(fp, model.clone());
    Ok((model, CacheStatus::Miss))
}

/// Like [`calibrate_testbed`](crate::calibrate_testbed), but computed at most once per machine for a
/// given (testbed, topologies, config) input.
pub fn calibrate_testbed_cached(
    testbed: &Testbed,
    topologies: &[Topology],
    cfg: &CalibrationConfig,
) -> Result<CalibratedCostModel, NetpartError> {
    Ok(calibrate_testbed_cached_status(testbed, topologies, cfg)?.0)
}

/// [`calibrate_testbed_cached`] under a cooperative [`Budget`].
pub fn calibrate_testbed_cached_budgeted(
    testbed: &Testbed,
    topologies: &[Topology],
    cfg: &CalibrationConfig,
    budget: &Budget,
) -> Result<CalibratedCostModel, NetpartError> {
    Ok(cached(testbed, topologies, cfg, budget)?.0)
}

// ---------------------------------------------------------------------------
// Serialization: a line-per-entry JSON document, written and parsed by hand.

fn topo_name(t: Topology) -> &'static str {
    match t {
        Topology::OneD => "OneD",
        Topology::Ring => "Ring",
        Topology::TwoD => "TwoD",
        Topology::Tree => "Tree",
        Topology::Broadcast => "Broadcast",
    }
}

fn topo_from_name(s: &str) -> Option<Topology> {
    Some(match s {
        "OneD" => Topology::OneD,
        "Ring" => Topology::Ring,
        "TwoD" => Topology::TwoD,
        "Tree" => Topology::Tree,
        "Broadcast" => Topology::Broadcast,
        _ => return None,
    })
}

/// Render the model as JSON. Entries are sorted so the document is
/// deterministic for a given model.
fn render(fingerprint: u64, model: &CalibratedCostModel) -> String {
    let mut intra: Vec<(&(usize, Topology), &FittedCost)> = model.intra.iter().collect();
    intra.sort_by_key(|((c, t), _)| (*c, topo_name(*t)));
    let mut router: Vec<(&(usize, usize), &LinearCost)> = model.router.iter().collect();
    router.sort_by_key(|(k, _)| **k);
    let mut coerce: Vec<(&(usize, usize), &LinearCost)> = model.coerce.iter().collect();
    coerce.sort_by_key(|(k, _)| **k);

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"fingerprint\": \"{fingerprint:016x}\",\n"));
    out.push_str("  \"intra\": [\n");
    for (i, ((cluster, topo), f)) in intra.iter().enumerate() {
        let comma = if i + 1 < intra.len() { "," } else { "" };
        out.push_str(&format!(
            "    [{cluster}, \"{}\", {:?}, {:?}, {:?}, {:?}, {:?}, {}]{comma}\n",
            topo_name(*topo),
            f.c1,
            f.c2,
            f.c3,
            f.c4,
            f.r_squared,
            f.abs_fix
        ));
    }
    out.push_str("  ],\n");
    for (section, entries, trailing) in [("router", &router, ","), ("coerce", &coerce, "")] {
        out.push_str(&format!("  \"{section}\": [\n"));
        for (i, ((a, b), c)) in entries.iter().enumerate() {
            let comma = if i + 1 < entries.len() { "," } else { "" };
            out.push_str(&format!("    [{a}, {b}, {:?}, {:?}]{comma}\n", c.a, c.k));
        }
        out.push_str(&format!("  ]{trailing}\n"));
    }
    out.push_str("}\n");
    out
}

/// Write atomically: temp file in the same directory, then rename, so a
/// concurrent reader never sees a half-written document.
fn persist(path: &PathBuf, fingerprint: u64, model: &CalibratedCostModel) -> std::io::Result<()> {
    let dir = path.parent().expect("cache path has a parent");
    std::fs::create_dir_all(dir)?;
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(render(fingerprint, model).as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Extract the `[...]` rows of one named section. Returns `None` when the
/// section is missing or malformed — the caller treats that as a miss.
fn section_rows<'a>(text: &'a str, name: &str) -> Option<Vec<&'a str>> {
    let start = text.find(&format!("\"{name}\": ["))?;
    let rest = &text[start..];
    // Rows end in `]` too; the array's own closer is the only one on its
    // own (two-space-indented) line.
    let end = rest.find("\n  ]")?;
    let body = &rest[..end];
    Some(
        body.lines()
            .skip(1) // the `"name": [` line itself
            .filter_map(|line| {
                let line = line.trim().trim_end_matches(',');
                line.strip_prefix('[').and_then(|l| l.strip_suffix(']'))
            })
            .collect(),
    )
}

/// Parse a document produced by [`render`]. Any structural mismatch or a
/// fingerprint that differs from `expected` yields `None` (recalibrate and
/// overwrite) rather than an error.
fn parse_model(text: &str, expected: u64) -> Option<CalibratedCostModel> {
    let fp_tag = "\"fingerprint\": \"";
    let fp_start = text.find(fp_tag)? + fp_tag.len();
    let fp_hex = text.get(fp_start..fp_start + 16)?;
    if u64::from_str_radix(fp_hex, 16).ok()? != expected {
        return None;
    }
    let mut model = CalibratedCostModel::default();
    for row in section_rows(text, "intra")? {
        let fields: Vec<&str> = row.split(',').map(str::trim).collect();
        if fields.len() != 8 {
            return None;
        }
        let cluster: usize = fields[0].parse().ok()?;
        let topo = topo_from_name(fields[1].trim_matches('"'))?;
        model.set_intra(
            cluster,
            topo,
            FittedCost {
                c1: fields[2].parse().ok()?,
                c2: fields[3].parse().ok()?,
                c3: fields[4].parse().ok()?,
                c4: fields[5].parse().ok()?,
                r_squared: fields[6].parse().ok()?,
                abs_fix: fields[7].parse().ok()?,
            },
        );
    }
    type SetPair = fn(&mut CalibratedCostModel, usize, usize, LinearCost);
    let sections: [(&str, SetPair); 2] = [
        ("router", CalibratedCostModel::set_router),
        ("coerce", CalibratedCostModel::set_coerce),
    ];
    for (name, set) in sections {
        for row in section_rows(text, name)? {
            let fields: Vec<&str> = row.split(',').map(str::trim).collect();
            if fields.len() != 4 {
                return None;
            }
            set(
                &mut model,
                fields[0].parse().ok()?,
                fields[1].parse().ok()?,
                LinearCost {
                    a: fields[2].parse().ok()?,
                    k: fields[3].parse().ok()?,
                },
            );
        }
    }
    Some(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> CalibratedCostModel {
        let mut m = CalibratedCostModel::default();
        m.set_intra(
            0,
            Topology::OneD,
            FittedCost {
                c1: 1.1,
                c2: 0.1 + 0.2, // deliberately non-representable exactly
                c3: -0.0055,
                c4: 2.83e-3,
                r_squared: 0.993_521,
                abs_fix: true,
            },
        );
        m.set_intra(
            1,
            Topology::Broadcast,
            FittedCost {
                c1: f64::MIN_POSITIVE,
                c2: 1.0 / 3.0,
                c3: 0.0,
                c4: 1e300,
                r_squared: 0.5,
                abs_fix: false,
            },
        );
        m.set_router(0, 1, LinearCost { a: 0.0, k: 6e-4 });
        m.set_coerce(0, 1, LinearCost { a: 0.25, k: 0.0 });
        m
    }

    #[test]
    fn render_parse_roundtrip_is_exact() {
        let m = sample_model();
        let text = render(42, &m);
        let back = parse_model(&text, 42).expect("parses");
        assert_eq!(back.intra, m.intra);
        assert_eq!(back.router, m.router);
        assert_eq!(back.coerce, m.coerce);
    }

    #[test]
    fn fingerprint_mismatch_is_a_miss() {
        let text = render(42, &sample_model());
        assert!(parse_model(&text, 43).is_none());
    }

    #[test]
    fn corrupt_document_is_a_miss() {
        let text = render(42, &sample_model());
        assert!(parse_model(&text[..text.len() / 2], 42).is_none());
        assert!(parse_model("", 42).is_none());
    }

    #[test]
    fn fingerprint_tracks_every_input() {
        let tb = Testbed::paper();
        let cfg = CalibrationConfig::default();
        let base = calibration_fingerprint(&tb, &[Topology::OneD], &cfg);

        let mut tb2 = tb.clone();
        tb2.seed += 1;
        assert_ne!(base, calibration_fingerprint(&tb2, &[Topology::OneD], &cfg));

        let mut tb3 = tb.clone();
        tb3.clusters[0].proc_type.sec_per_flop *= 1.0 + 1e-12;
        assert_ne!(base, calibration_fingerprint(&tb3, &[Topology::OneD], &cfg));

        assert_ne!(
            base,
            calibration_fingerprint(&tb, &[Topology::OneD, Topology::Ring], &cfg)
        );

        let mut cfg2 = cfg.clone();
        cfg2.cycles += 1;
        assert_ne!(base, calibration_fingerprint(&tb, &[Topology::OneD], &cfg2));
    }
}
