//! Table formatting for the `experiments` binary, and the one JSON writer
//! behind every `BENCH_*.json` artefact.

use netpart_apps::stencil::StencilVariant;

use crate::experiments::{Table1Row, Table2Row, TABLE2_CONFIGS};

/// Human label of a variant.
pub fn variant_name(v: StencilVariant) -> &'static str {
    match v {
        StencilVariant::Sten1 => "STEN-1",
        StencilVariant::Sten2 => "STEN-2",
    }
}

/// Render the Table 1 reproduction.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 1 — partitioning decisions under the paper's printed cost model\n");
    out.push_str(
        "variant   N     paper(P1,P2) paper(A1,A2) | ours(P1,P2) ours Tc[ms] | paper-cfg Tc[ms] | exhaustive\n",
    );
    for r in rows {
        let a = &r.predicted.vector;
        let a1 = a.count(0);
        let a2 = if r.predicted.config.get(1).copied().unwrap_or(0) > 0 {
            a.count(a.num_ranks() - 1)
        } else {
            0
        };
        out.push_str(&format!(
            "{:<8} {:>5}  ({:>2},{:>2})      ({:>3},{:>3})   |  ({:>2},{:>2}) A=({:>3},{:>3}) {:>9.2} | {:>13.2} | {:?}\n",
            variant_name(r.variant),
            r.n,
            r.paper_config[0],
            r.paper_config[1],
            r.paper_a[0],
            r.paper_a[1],
            r.predicted.config[0],
            r.predicted.config.get(1).copied().unwrap_or(0),
            a1,
            a2,
            r.predicted.predicted_tc_ms(),
            r.paper_tc_ms,
            r.exhaustive.config,
        ));
    }
    out
}

/// Render the Table 2 reproduction.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 2 — simulated elapsed times (ms), 10 iterations; * = measured minimum\n");
    out.push_str("variant   N    ");
    for c in TABLE2_CONFIGS {
        out.push_str(&format!("{:>12}", format!("{}S+{}I", c[0], c[1])));
    }
    out.push_str("   predicted      pred ms   equal(6,6)\n");
    for r in rows {
        out.push_str(&format!("{:<8} {:>5} ", variant_name(r.variant), r.n));
        for (i, ms) in r.measured_ms.iter().enumerate() {
            let star = if i == r.measured_min { "*" } else { " " };
            out.push_str(&format!("{:>11.1}{star}", ms));
        }
        out.push_str(&format!(
            "  ({},{})    {:>9.1}",
            r.predicted_config[0],
            r.predicted_config.get(1).copied().unwrap_or(0),
            r.predicted_ms,
        ));
        if let Some(eq) = r.equal_decomposition_ms {
            out.push_str(&format!("   {:>9.1}", eq));
        }
        out.push('\n');
    }
    out
}

/// Simple ASCII plot of the Fig. 3 curve.
pub fn format_fig3(points: &[crate::experiments::Fig3Point]) -> String {
    let mut out = String::new();
    out.push_str("Fig. 3 — T_c vs processors (estimated | measured), ms/cycle\n");
    let max = points
        .iter()
        .map(|p| p.measured_tc_ms.max(p.estimated_tc_ms))
        .fold(0.0f64, f64::max);
    for p in points {
        let bar = |v: f64| "#".repeat(((v / max) * 40.0).round() as usize);
        out.push_str(&format!(
            "P={:>2} ({},{})  est {:>9.2} {:<40}  meas {:>9.2} {:<40}\n",
            p.total_p,
            p.config[0],
            p.config[1],
            p.estimated_tc_ms,
            bar(p.estimated_tc_ms),
            p.measured_tc_ms,
            bar(p.measured_tc_ms),
        ));
    }
    out
}

/// Render the Table 1 stdout segment exactly as the `experiments` binary
/// prints it (table, trailing blank line, pointer to the analysis).
///
/// The golden-parity test concatenates these `render_*` segments and
/// compares them byte-for-byte against a pre-refactor fixture, so any
/// change here must be intentional.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = format_table1(rows);
    out.push('\n');
    out.push_str("(see EXPERIMENTS.md for the per-cell agreement analysis)\n");
    out
}

/// Render the Table 2 stdout segment exactly as the `experiments` binary
/// prints it.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = format_table2(rows);
    out.push('\n');
    out
}

/// Render one Fig. 3 curve's stdout segment exactly as the `experiments`
/// binary prints it: header, bar chart, and the measured-ideal footer.
pub fn render_fig3(
    n: u64,
    variant: StencilVariant,
    points: &[crate::experiments::Fig3Point],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("— {} N={n} —\n", variant_name(variant)));
    out.push_str(&format_fig3(points));
    out.push('\n');
    let min = points
        .iter()
        .min_by(|a, b| a.measured_tc_ms.total_cmp(&b.measured_tc_ms))
        .expect("non-empty Fig. 3 curve");
    out.push_str(&format!(
        "p_ideal (measured) = {} at ({},{})\n\n",
        min.total_p, min.config[0], min.config[1]
    ));
    out
}

/// Write the core experiment results as CSV files under `dir`, for
/// plotting outside this repository. Returns the files written.
pub fn export_csv(
    dir: &std::path::Path,
    table1: &[Table1Row],
    table2: &[Table2Row],
    fig3_curves: &[(String, Vec<crate::experiments::Fig3Point>)],
) -> std::io::Result<Vec<std::path::PathBuf>> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();

    let t1 = dir.join("table1.csv");
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&t1)?);
        writeln!(
            f,
            "variant,n,paper_p1,paper_p2,ours_p1,ours_p2,ours_tc_ms,paper_cfg_tc_ms,exhaustive_p1,exhaustive_p2"
        )?;
        for r in table1 {
            writeln!(
                f,
                "{},{},{},{},{},{},{:.6},{:.6},{},{}",
                variant_name(r.variant),
                r.n,
                r.paper_config[0],
                r.paper_config[1],
                r.predicted.config[0],
                r.predicted.config.get(1).copied().unwrap_or(0),
                r.predicted.predicted_tc_ms(),
                r.paper_tc_ms,
                r.exhaustive.config[0],
                r.exhaustive.config.get(1).copied().unwrap_or(0),
            )?;
        }
        f.flush()?;
    }
    written.push(t1);

    let t2 = dir.join("table2.csv");
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&t2)?);
        write!(f, "variant,n")?;
        for c in TABLE2_CONFIGS {
            write!(f, ",ms_{}s_{}i", c[0], c[1])?;
        }
        writeln!(
            f,
            ",min_config,predicted_p1,predicted_p2,predicted_ms,equal_ms"
        )?;
        for r in table2 {
            write!(f, "{},{}", variant_name(r.variant), r.n)?;
            for ms in &r.measured_ms {
                write!(f, ",{ms:.3}")?;
            }
            let min = TABLE2_CONFIGS[r.measured_min];
            writeln!(
                f,
                ",{}s+{}i,{},{},{:.3},{}",
                min[0],
                min[1],
                r.predicted_config[0],
                r.predicted_config.get(1).copied().unwrap_or(0),
                r.predicted_ms,
                r.equal_decomposition_ms
                    .map(|v| format!("{v:.3}"))
                    .unwrap_or_default(),
            )?;
        }
        f.flush()?;
    }
    written.push(t2);

    let f3 = dir.join("fig3.csv");
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&f3)?);
        writeln!(f, "curve,total_p,p1,p2,estimated_tc_ms,measured_tc_ms")?;
        for (label, points) in fig3_curves {
            for p in points {
                writeln!(
                    f,
                    "{label},{},{},{},{:.6},{:.6}",
                    p.total_p, p.config[0], p.config[1], p.estimated_tc_ms, p.measured_tc_ms
                )?;
            }
        }
        f.flush()?;
    }
    written.push(f3);
    Ok(written)
}

/// A JSON value for the `BENCH_*.json` artefacts. Emitters build one from
/// their report; [`Json::render`] alone decides commas, indentation and
/// string escaping, so no harness writes a brace or a quote by hand.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, already formatted (see [`Json::fixed`]).
    Num(String),
    /// A string, escaped when rendered.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; fields keep their order.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// An object from its fields, in order.
    pub fn obj<const N: usize>(fields: [(&'static str, Json); N]) -> Json {
        Json::Obj(fields.into())
    }

    /// An array with one element per item.
    pub fn arr<T>(items: &[T], each: impl Fn(&T) -> Json) -> Json {
        Json::Arr(items.iter().map(each).collect())
    }

    /// `v` in fixed point with `digits` decimals; JSON has no NaN or
    /// infinity, so a non-finite value is `null`.
    pub fn fixed(v: f64, digits: usize) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:.digits$}"))
        } else {
            Json::Null
        }
    }

    /// Simulated milliseconds, the artefacts' commonest quantity: four
    /// decimals.
    pub fn ms(v: f64) -> Json {
        Json::fixed(v, 4)
    }

    /// The value as a document: two-space indentation, a container whose
    /// members are all scalars on one line, a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_members(out, depth, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Json::Obj(fields) => {
                let members = fields.iter().map(|(k, v)| (Some(*k), v));
                write_members(out, depth, ['{', '}'], members)
            }
        }
    }
}

fn write_members<'a>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    let inline = members
        .clone()
        .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
    let pad = |out: &mut String, depth: usize| {
        if inline {
            out.push(' ');
        } else {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
    };
    out.push(open);
    let mut empty = true;
    for (key, v) in members {
        if !empty {
            out.push(',');
        }
        empty = false;
        pad(out, depth + 1);
        if let Some(key) = key {
            write_escaped(out, key);
            out.push_str(": ");
        }
        v.write(out, depth + 1);
    }
    if !empty {
        pad(out, depth);
    }
    out.push(close);
}

/// RFC 8259 §7: `"`, `\` and U+0000–U+001F must be escaped; everything
/// else may stand for itself.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < '\u{20}' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

macro_rules! json_from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v.to_string())
            }
        }
    )*};
}
json_from_integer!(u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names() {
        assert_eq!(variant_name(StencilVariant::Sten1), "STEN-1");
        assert_eq!(variant_name(StencilVariant::Sten2), "STEN-2");
    }

    /// Regression: the emitters' only escaping was `replace('"', "'")`,
    /// so a backslash or a newline in an error text made invalid JSON.
    #[test]
    fn strings_are_escaped_per_rfc_8259() {
        let doc = Json::from("a\"b\\c\n\u{1}").render();
        assert_eq!(doc, "\"a\\\"b\\\\c\\u000a\\u0001\"\n");
    }

    #[test]
    fn scalar_containers_render_inline_and_nested_ones_indent() {
        let doc = Json::obj([
            ("n", 3u32.into()),
            ("gate", Json::fixed(0.97, 3)),
            ("inf", Json::ms(f64::INFINITY)),
            ("knee", Option::<u32>::None.into()),
            (
                "rows",
                Json::arr(&[1u64, 2], |&v| Json::obj([("v", v.into())])),
            ),
            ("none", Json::Arr(Vec::new())),
        ]);
        let want = "{\n  \"n\": 3,\n  \"gate\": 0.970,\n  \"inf\": null,\n  \"knee\": null,\n  \
                    \"rows\": [\n    { \"v\": 1 },\n    { \"v\": 2 }\n  ],\n  \"none\": []\n}\n";
        assert_eq!(doc.render(), want);
    }
}
