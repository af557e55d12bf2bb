//! Results serialisation: CSV (also the cache's on-disk format) and
//! JSON.
//!
//! Floats are written with Rust's shortest-round-trip `Display`, so a
//! parse of our own output reproduces every value bit-for-bit — which
//! is what lets the evaluation cache return results indistinguishable
//! from a fresh run.

use std::fmt;
use std::io::{self, Write};

use crate::spec::{app_slug, encoding_slug, parse_app, parse_encoding, DesignPoint, SweepSpec};
use crate::sweep::{ArchPoint, EvaluatedPoint, SweepOutcome};

/// Column header of the points CSV.
pub const CSV_HEADER: &str = "index,app,encoding,pixels,nfp_units,clock_ghz,grid_sram_kb,\
                              grid_sram_banks,encoding_engines,mac_rows,mac_cols,\
                              lanes_per_engine,input_fifo_depth,speedup,\
                              area_pct_of_gpu,power_pct_of_gpu,gpu_ms,\
                              ngpc_frame_ms,amdahl_bound,plateaued";

/// Write one CSV data row of an evaluated point (no trailing newline)
/// — the unit both the full-sweep CSV and the point-store shards are
/// built from.
pub(crate) fn write_point_row(w: &mut impl Write, p: &EvaluatedPoint) -> io::Result<()> {
    let d = &p.point;
    write!(
        w,
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        d.index,
        app_slug(d.app),
        encoding_slug(d.encoding),
        d.pixels,
        d.nfp_units,
        d.clock_ghz,
        d.grid_sram_kb,
        d.grid_sram_banks,
        d.encoding_engines,
        d.mac_rows,
        d.mac_cols,
        d.lanes_per_engine,
        d.input_fifo_depth,
        p.speedup,
        p.area_pct_of_gpu,
        p.power_pct_of_gpu,
        p.gpu_ms,
        p.ngpc_frame_ms,
        p.amdahl_bound,
        p.plateaued,
    )
}

/// Parse one data row as written by the CSV emitters (no trailing
/// newline).
pub fn point_from_row(line: &str) -> Result<EvaluatedPoint, String> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 20 {
        return Err(format!("expected 20 fields, got {}", fields.len()));
    }
    let err = |what: &str| format!("bad {what}");
    Ok(EvaluatedPoint {
        point: DesignPoint {
            index: fields[0].parse().map_err(|_| err("index"))?,
            app: parse_app(fields[1]).ok_or_else(|| err("app"))?,
            encoding: parse_encoding(fields[2]).ok_or_else(|| err("encoding"))?,
            pixels: fields[3].parse().map_err(|_| err("pixels"))?,
            nfp_units: fields[4].parse().map_err(|_| err("nfp_units"))?,
            clock_ghz: fields[5].parse().map_err(|_| err("clock_ghz"))?,
            grid_sram_kb: fields[6].parse().map_err(|_| err("grid_sram_kb"))?,
            grid_sram_banks: fields[7].parse().map_err(|_| err("grid_sram_banks"))?,
            encoding_engines: fields[8].parse().map_err(|_| err("encoding_engines"))?,
            mac_rows: fields[9].parse().map_err(|_| err("mac_rows"))?,
            mac_cols: fields[10].parse().map_err(|_| err("mac_cols"))?,
            lanes_per_engine: fields[11].parse().map_err(|_| err("lanes_per_engine"))?,
            input_fifo_depth: fields[12].parse().map_err(|_| err("input_fifo_depth"))?,
        },
        speedup: fields[13].parse().map_err(|_| err("speedup"))?,
        area_pct_of_gpu: fields[14].parse().map_err(|_| err("area_pct_of_gpu"))?,
        power_pct_of_gpu: fields[15].parse().map_err(|_| err("power_pct_of_gpu"))?,
        gpu_ms: fields[16].parse().map_err(|_| err("gpu_ms"))?,
        ngpc_frame_ms: fields[17].parse().map_err(|_| err("ngpc_frame_ms"))?,
        amdahl_bound: fields[18].parse().map_err(|_| err("amdahl_bound"))?,
        plateaued: fields[19].parse().map_err(|_| err("plateaued"))?,
    })
}

/// Stream evaluated points as CSV into `w`: the header, then one row
/// per point, each field written straight into the writer. Floats use
/// shortest-round-trip `Display`, so a parse reproduces every value.
pub fn write_points_csv(w: &mut impl Write, points: &[EvaluatedPoint]) -> io::Result<()> {
    writeln!(w, "{CSV_HEADER}")?;
    for p in points {
        write_point_row(w, p)?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Run a writer-based emitter into memory.
fn emit_to_string(emit: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut out = Vec::new();
    emit(&mut out).expect("writing into a Vec cannot fail");
    String::from_utf8(out).expect("the emitters write UTF-8")
}

/// Render evaluated points as CSV (header + one row per point):
/// [`write_points_csv`] into a `String`.
pub fn points_to_csv(points: &[EvaluatedPoint]) -> String {
    emit_to_string(|w| write_points_csv(w, points))
}

/// Parse [`points_to_csv`] output (used by the evaluation cache).
/// Lines starting with `#` are ignored.
pub fn points_from_csv(text: &str) -> Result<Vec<EvaluatedPoint>, String> {
    let mut points = Vec::new();
    let mut saw_header = false;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if !saw_header {
            // First non-comment line must be the header.
            if line != CSV_HEADER {
                return Err(format!("line {}: unexpected header `{line}`", i + 1));
            }
            saw_header = true;
            continue;
        }
        points.push(point_from_row(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    if !saw_header {
        return Err("empty CSV".to_string());
    }
    Ok(points)
}

/// A JSON number: finite floats via shortest-round-trip `Display`,
/// non-finite as `null` (JSON has no inf/nan).
struct JsonF64(f64);

impl fmt::Display for JsonF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            fmt::Display::fmt(&self.0, f)
        } else {
            f.write_str("null")
        }
    }
}

/// A quoted, escaped JSON string.
pub(crate) struct JsonStr<'a>(pub(crate) &'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use fmt::Write as _;
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\t' => f.write_str("\\t")?,
                '\r' => f.write_str("\\r")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// A JSON array of quoted slugs.
fn write_slug_list<T: Copy>(
    w: &mut impl Write,
    items: &[T],
    slug: impl Fn(T) -> &'static str,
) -> io::Result<()> {
    w.write_all(b"[")?;
    for (i, &item) in items.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        write!(w, "{}", JsonStr(slug(item)))?;
    }
    w.write_all(b"]")
}

/// One point's JSON object.
fn write_json_point(w: &mut impl Write, p: &EvaluatedPoint) -> io::Result<()> {
    let d = &p.point;
    write!(
        w,
        "{{\"index\":{},\"app\":{},\"encoding\":{},\"pixels\":{},\"nfp_units\":{},\
         \"clock_ghz\":{},\"grid_sram_kb\":{},\"grid_sram_banks\":{},\"encoding_engines\":{},\
         \"mac_rows\":{},\"mac_cols\":{},\"lanes_per_engine\":{},\"input_fifo_depth\":{},\
         \"speedup\":{},\
         \"area_pct_of_gpu\":{},\"power_pct_of_gpu\":{},\"gpu_ms\":{},\"ngpc_frame_ms\":{},\
         \"amdahl_bound\":{},\"plateaued\":{}}}",
        d.index,
        JsonStr(app_slug(d.app)),
        JsonStr(encoding_slug(d.encoding)),
        d.pixels,
        d.nfp_units,
        JsonF64(d.clock_ghz),
        d.grid_sram_kb,
        d.grid_sram_banks,
        d.encoding_engines,
        d.mac_rows,
        d.mac_cols,
        d.lanes_per_engine,
        d.input_fifo_depth,
        JsonF64(p.speedup),
        JsonF64(p.area_pct_of_gpu),
        JsonF64(p.power_pct_of_gpu),
        JsonF64(p.gpu_ms),
        JsonF64(p.ngpc_frame_ms),
        JsonF64(p.amdahl_bound),
        p.plateaued,
    )
}

fn write_json_arch(w: &mut impl Write, a: &ArchPoint) -> io::Result<()> {
    write!(
        w,
        "{{\"encoding\":{},\"pixels\":{},\"nfp_units\":{},\"clock_ghz\":{},\"grid_sram_kb\":{},\
         \"grid_sram_banks\":{},\"encoding_engines\":{},\"mac_rows\":{},\"mac_cols\":{},\
         \"lanes_per_engine\":{},\"input_fifo_depth\":{},\
         \"apps\":{},\"avg_speedup\":{},\"area_pct_of_gpu\":{},\
         \"power_pct_of_gpu\":{}}}",
        JsonStr(encoding_slug(a.encoding)),
        a.pixels,
        a.nfp_units,
        JsonF64(a.clock_ghz),
        a.grid_sram_kb,
        a.grid_sram_banks,
        a.encoding_engines,
        a.mac_rows,
        a.mac_cols,
        a.lanes_per_engine,
        a.input_fifo_depth,
        a.apps,
        JsonF64(a.avg_speedup),
        JsonF64(a.area_pct_of_gpu),
        JsonF64(a.power_pct_of_gpu),
    )
}

fn write_json_spec(w: &mut impl Write, spec: &SweepSpec) -> io::Result<()> {
    write!(w, "{{\"name\":{},\"apps\":", JsonStr(&spec.name))?;
    write_slug_list(w, &spec.apps, app_slug)?;
    w.write_all(b",\"encodings\":")?;
    write_slug_list(w, &spec.encodings, encoding_slug)?;
    write!(
        w,
        ",\"pixels\":{:?},\"nfp_units\":{:?},\
         \"clock_ghz\":{:?},\"grid_sram_kb\":{:?},\"grid_sram_banks\":{:?},\
         \"encoding_engines\":{:?},\"mac_rows\":{:?},\"mac_cols\":{:?},\
         \"lanes_per_engine\":{:?},\"input_fifo_depth\":{:?}}}",
        spec.pixels,
        spec.nfp_units,
        spec.clock_ghz,
        spec.grid_sram_kb,
        spec.grid_sram_banks,
        spec.encoding_engines,
        spec.mac_rows,
        spec.mac_cols,
        spec.lanes_per_engine,
        spec.input_fifo_depth,
    )
}

/// Stream a full outcome — spec, stats, the cross-app `frontier`, and
/// every point — into `w` as a single JSON document, one point per
/// line.
pub fn write_outcome_json(
    w: &mut impl Write,
    outcome: &SweepOutcome,
    frontier: &[ArchPoint],
) -> io::Result<()> {
    w.write_all(b"{\n\"spec\":")?;
    write_json_spec(w, &outcome.spec)?;
    let s = &outcome.stats;
    writeln!(
        w,
        ",\n\"stats\":{{\"total_points\":{},\"evaluated\":{},\"cache_hits\":{},\
         \"cache_hit\":{},\"threads\":{},\"wall_ms\":{},\"points_per_sec\":{}}},",
        s.total_points,
        s.evaluated,
        s.cache_hits,
        s.cache_hit,
        s.threads,
        JsonF64(s.wall.as_secs_f64() * 1e3),
        JsonF64(s.points_per_sec()),
    )?;
    w.write_all(b"\"frontier\":[")?;
    for (i, a) in frontier.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        write_json_arch(w, a)?;
    }
    w.write_all(b"],\n\"points\":[\n")?;
    for (i, p) in outcome.points.iter().enumerate() {
        if i > 0 {
            w.write_all(b",\n")?;
        }
        write_json_point(w, p)?;
    }
    w.write_all(b"\n]\n}\n")
}

/// Render a full outcome — spec, stats, every point, and the cross-app
/// frontier — as a single JSON document: [`write_outcome_json`] into a
/// `String`.
pub fn outcome_to_json(outcome: &SweepOutcome, frontier: &[ArchPoint]) -> String {
    emit_to_string(|w| write_outcome_json(w, outcome, frontier))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::Constraints;
    use crate::spec::SweepSpec;
    use crate::sweep::SweepEngine;

    fn outcome() -> SweepOutcome {
        SweepEngine::new().without_cache().run(&SweepSpec::quick()).unwrap()
    }

    #[test]
    fn csv_round_trips_bit_exactly() {
        let outcome = outcome();
        let csv = points_to_csv(&outcome.points);
        let parsed = points_from_csv(&csv).unwrap();
        assert_eq!(parsed, outcome.points);
    }

    #[test]
    fn csv_rejects_malformed_input() {
        assert!(points_from_csv("").is_err());
        assert!(points_from_csv("not,a,header\n").is_err());
        let outcome = outcome();
        let mut csv = points_to_csv(&outcome.points[..1]);
        csv.push_str("1,nerf,hashgrid,bad\n");
        assert!(points_from_csv(&csv).is_err());
    }

    #[test]
    fn csv_ignores_comment_lines() {
        let outcome = outcome();
        let csv = format!("# cache header\n{}", points_to_csv(&outcome.points));
        assert_eq!(points_from_csv(&csv).unwrap(), outcome.points);
    }

    #[test]
    fn json_has_the_expected_shape() {
        let outcome = outcome();
        let frontier = outcome.cross_app_frontier(&Constraints::NONE);
        let json = outcome_to_json(&outcome, &frontier);
        assert!(json.contains("\"spec\":"));
        assert!(json.contains("\"frontier\":["));
        assert!(json.contains("\"points\":["));
        assert!(json.contains("\"app\":\"nerf\""));
        assert!(!json.contains("NaN"));
        // Balanced braces/brackets (cheap well-formedness check).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    /// Every writer emitter produces exactly the bytes of its `String`
    /// wrapper, also through a buffer far smaller than one row (as the
    /// CLI streams into a `BufWriter`).
    #[test]
    fn writer_emitters_match_their_string_wrappers_byte_for_byte() {
        let outcome = outcome();
        let frontier = outcome.cross_app_frontier(&Constraints::NONE);
        let written = |emit: &dyn Fn(&mut io::BufWriter<Vec<u8>>) -> io::Result<()>| {
            let mut w = io::BufWriter::with_capacity(7, Vec::new());
            emit(&mut w).unwrap();
            String::from_utf8(w.into_inner().unwrap()).unwrap()
        };
        assert_eq!(
            written(&|w| write_points_csv(w, &outcome.points)),
            points_to_csv(&outcome.points)
        );
        assert_eq!(
            written(&|w| write_outcome_json(w, &outcome, &frontier)),
            outcome_to_json(&outcome, &frontier)
        );
    }

    #[test]
    fn json_strings_escape_controls() {
        assert_eq!(JsonStr("a\"b\\c\n").to_string(), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(JsonF64(f64::NAN).to_string(), "null");
        assert_eq!(JsonF64(1.5).to_string(), "1.5");
    }
}
