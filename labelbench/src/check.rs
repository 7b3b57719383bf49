//! Output checks computed apart from the program.
//!
//! [`Truth`] recomputes a ranking with the paper's recipe — a weighted sum
//! of min-max normalized attributes — straight from the raw column values,
//! and [`check_label`] holds a label against it: the top-k (up to score
//! ties), the protected members and diversity categories counted in that
//! top-k, and the properties the method must have (trials completed equal
//! trials requested unless truncated, Kendall τ in [−1, 1], rND/rKL/rRD in
//! [0, 1]).  [`self_test`] shows the checks fail tampered labels.

use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A ranking and the attributes the label audits, recomputed from raw rows.
#[derive(Debug)]
pub struct Truth {
    /// The recipe's score of every row.
    pub scores: Vec<f64>,
    /// Rows best first: score descending, ties by row order.
    pub order: Vec<usize>,
    /// `(attribute, protected value, membership per row)` per audited
    /// feature, in configuration order.
    pub protected: Vec<(String, String, Vec<bool>)>,
    /// `(attribute, value per row)` per diversity attribute, in order.
    pub diversity: Vec<(String, Vec<Option<String>>)>,
}

impl Truth {
    /// Scores `weighted` columns (`(weight, raw values)`) with min-max
    /// normalization fitted on all rows.
    pub fn new(
        weighted: &[(f64, Vec<f64>)],
        protected: Vec<(String, String, Vec<Option<String>>)>,
        diversity: Vec<(String, Vec<Option<String>>)>,
    ) -> Truth {
        let rows = weighted.first().map_or(0, |(_, values)| values.len());
        let mut scores = vec![0.0; rows];
        for (weight, values) in weighted {
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for (score, value) in scores.iter_mut().zip(values) {
                *score += weight * ((value - lo) / (hi - lo));
            }
        }
        let mut order: Vec<usize> = (0..rows).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        let protected = protected
            .into_iter()
            .map(|(attribute, value, column)| {
                let member = column
                    .iter()
                    .map(|v| v.as_deref() == Some(&value))
                    .collect();
                (attribute, value, member)
            })
            .collect();
        Truth {
            scores,
            order,
            protected,
            diversity,
        }
    }

    /// The truth of a catalogue dataset under its label configuration.
    pub fn from_table(
        table: &rf_table::Table,
        config: &rf_core::LabelConfig,
    ) -> Result<Truth, String> {
        let err = |e: rf_table::TableError| e.to_string();
        let mut weighted = Vec::new();
        for weight in config.scoring.weights() {
            weighted.push((
                weight.weight,
                table.numeric_column(&weight.attribute).map_err(err)?,
            ));
        }
        let mut protected = Vec::new();
        for (attribute, value) in config.protected_features() {
            let column = table.categorical_column(attribute).map_err(err)?;
            protected.push((attribute.to_string(), value.to_string(), column));
        }
        let mut diversity = Vec::new();
        for attribute in &config.diversity_attributes {
            diversity.push((
                attribute.clone(),
                table.categorical_column(attribute).map_err(err)?,
            ));
        }
        Ok(Truth::new(&weighted, protected, diversity))
    }
}

/// What one label response must show.
#[derive(Debug, Clone)]
pub struct Expect {
    pub truth: Arc<Truth>,
    pub k: usize,
    /// Monte-Carlo trials requested (0: the label has no MC detail).
    pub trials: usize,
    /// The `mc_seed` the request carried, echoed in the label's config.
    pub mc_seed: Option<u64>,
}

fn get<'a>(value: &'a Value, path: &str) -> Result<&'a Value, String> {
    path.split('.')
        .try_fold(value, |v, key| v.get(key))
        .ok_or_else(|| format!("label lacks `{path}`"))
}

fn num(value: &Value, path: &str) -> Result<f64, String> {
    get(value, path)?
        .as_f64()
        .ok_or_else(|| format!("`{path}` is not a number"))
}

fn uint(value: &Value, path: &str) -> Result<u64, String> {
    get(value, path)?
        .as_u64()
        .ok_or_else(|| format!("`{path}` is not a whole number"))
}

fn text<'a>(value: &'a Value, path: &str) -> Result<&'a str, String> {
    get(value, path)?
        .as_str()
        .ok_or_else(|| format!("`{path}` is not a string"))
}

fn list<'a>(value: &'a Value, path: &str) -> Result<&'a Vec<Value>, String> {
    get(value, path)?
        .as_array()
        .ok_or_else(|| format!("`{path}` is not a list"))
}

fn tolerance(x: f64) -> f64 {
    1e-9 * x.abs().max(1.0)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= tolerance(a)
}

fn in_range(value: f64, lo: f64, hi: f64, name: &str) -> Result<(), String> {
    if (lo..=hi).contains(&value) {
        Ok(())
    } else {
        Err(format!("{name} = {value} lies outside [{lo}, {hi}]"))
    }
}

/// The label's top-level sections the checks read, parsed as one object.
/// The `ranking` section lists every row of the table and is left out, so
/// checking a 10⁵-row label does not hold a parsed copy of it in memory.
/// Sections are found by their two-space indentation in the pretty-printed
/// document (JSON strings cannot hold a raw newline).
fn checked_sections(body: &str) -> Result<Value, String> {
    const WANTED: [&str; 5] = ["config", "top_k_rows", "stability", "fairness", "diversity"];
    let starts: Vec<usize> = body.match_indices("\n  \"").map(|(at, _)| at + 3).collect();
    let mut sections = Vec::new();
    for (n, &start) in starts.iter().enumerate() {
        let end = starts
            .get(n + 1)
            .map_or(body.trim_end().len().saturating_sub(1), |&next| next - 3)
            .max(start + 1);
        let section = body[start..end].trim_end().trim_end_matches(',');
        let key = section[1..].split('"').next().unwrap_or("");
        if WANTED.contains(&key) {
            sections.push(section);
        }
    }
    serde_json::from_str(&format!("{{{}}}", sections.join(",")))
        .map_err(|e| format!("label is not JSON: {e}"))
}

/// Checks one label body against `expect`.  `allow_truncated` accepts a
/// Monte-Carlo summary cut short by a request deadline.
pub fn check_label(body: &[u8], expect: &Expect, allow_truncated: bool) -> Result<(), String> {
    let body = std::str::from_utf8(body).map_err(|_| "label is not UTF-8".to_string())?;
    let label = checked_sections(body)?;
    let truth = &expect.truth;
    let n = truth.scores.len();
    let k = expect.k.min(n);
    if uint(&label, "config.top_k")? != k as u64 {
        return Err(format!(
            "label audits a top-{} instead of the top-{k}",
            uint(&label, "config.top_k")?
        ));
    }
    if let Some(seed) = expect.mc_seed {
        if uint(&label, "config.monte_carlo.seed")? != seed {
            return Err(format!("label ignores mc_seed {seed}"));
        }
    }

    // The top-k, up to score ties: k distinct rows, each scoring what the
    // recipe gives it, in score order, none below the recomputed k-th.
    let rows = list(&label, "top_k_rows")?;
    if rows.len() != k {
        return Err(format!("label lists {} top-k rows, not {k}", rows.len()));
    }
    let threshold = truth.scores[truth.order[k - 1]];
    let mut seen = vec![false; n];
    let mut previous = f64::INFINITY;
    let mut listed = Vec::with_capacity(k);
    for (position, row) in rows.iter().enumerate() {
        let index = uint(row, "row_index")? as usize;
        if index >= n || seen[index] {
            return Err(format!("top-k row {index} is out of range or repeated"));
        }
        seen[index] = true;
        let mine = truth.scores[index];
        let reported = num(row, "score")?;
        if !close(mine, reported) {
            return Err(format!("row {index} scores {reported}, recomputed {mine}"));
        }
        if mine < threshold - tolerance(threshold) {
            return Err(format!(
                "row {index} at rank {} lies outside the recomputed top-{k}",
                position + 1
            ));
        }
        if mine > previous + tolerance(previous) {
            return Err(format!(
                "top-k rows leave score order at rank {}",
                position + 1
            ));
        }
        previous = mine;
        listed.push(index);
    }
    // Count in the recomputed top-k, unless a score tie straddles its
    // border; then the label's own (just verified) choice among the tied.
    let members: Vec<usize> = if k < n && close(threshold, truth.scores[truth.order[k]]) {
        listed
    } else {
        truth.order[..k].to_vec()
    };

    let reports = list(&label, "fairness.reports")?;
    if reports.len() != truth.protected.len() {
        return Err(format!(
            "label has {} fairness reports, not {}",
            reports.len(),
            truth.protected.len()
        ));
    }
    for ((attribute, value, member), report) in truth.protected.iter().zip(reports) {
        if text(report, "attribute")? != attribute || text(report, "protected_value")? != value {
            return Err(format!(
                "fairness report out of order at {attribute}={value}"
            ));
        }
        let count = members.iter().filter(|&&row| member[row]).count() as u64;
        let reported = uint(report, "proportion.protected_in_top_k")?;
        if reported != count {
            return Err(format!("{attribute}={value}: label counts {reported} protected in the top-k, recomputed {count}"));
        }
        let cumulative = list(report, "fair_star.observed_counts")?;
        if cumulative.last().and_then(Value::as_u64) != Some(count) {
            return Err(format!(
                "{attribute}={value}: FA*IR prefix counts end off {count}"
            ));
        }
        for measure in ["rnd", "rkl", "rrd"] {
            in_range(
                num(report, &format!("discounted.{measure}"))?,
                0.0,
                1.0,
                measure,
            )?;
        }
    }

    let reports = list(&label, "diversity.reports")?;
    if reports.len() != truth.diversity.len() {
        return Err(format!(
            "label has {} diversity reports, not {}",
            reports.len(),
            truth.diversity.len()
        ));
    }
    for ((attribute, values), report) in truth.diversity.iter().zip(reports) {
        if text(report, "attribute")? != attribute {
            return Err(format!("diversity report out of order at {attribute}"));
        }
        let mut mine: BTreeMap<&str, u64> = BTreeMap::new();
        let mut missing = 0u64;
        for &row in &members {
            match &values[row] {
                Some(category) => *mine.entry(category).or_default() += 1,
                None => missing += 1,
            }
        }
        let mut theirs: BTreeMap<&str, u64> = BTreeMap::new();
        for category in list(report, "top_k.categories")? {
            theirs.insert(text(category, "category")?, uint(category, "count")?);
        }
        if theirs != mine || uint(report, "top_k.missing")? != missing {
            return Err(format!(
                "{attribute}: label's top-k categories {theirs:?} differ from recomputed {mine:?}"
            ));
        }
    }

    if expect.trials > 0 {
        let mc = get(&label, "stability.monte_carlo")?;
        let trials = uint(mc, "trials")?;
        let requested = uint(mc, "trials_requested")?;
        if requested != expect.trials as u64 {
            return Err(format!(
                "label requested {requested} trials, not {}",
                expect.trials
            ));
        }
        let truncated = get(mc, "truncated")?.as_bool() == Some(true);
        if truncated && !allow_truncated {
            return Err("Monte-Carlo detail truncated without a deadline".to_string());
        }
        if truncated && (trials == 0 || trials >= requested) {
            return Err(format!(
                "truncated run reports {trials} of {requested} trials"
            ));
        }
        if !truncated && trials != requested {
            return Err(format!(
                "{trials} of {requested} trials completed without truncation"
            ));
        }
        for tau in ["expected_kendall_tau", "worst_kendall_tau"] {
            in_range(num(mc, tau)?, -1.0, 1.0, tau)?;
        }
    }
    Ok(())
}

/// The label with the value after the first `key` at or past `from`
/// replaced by `value`.
fn replace_value(body: &str, from: usize, key: &str, value: &str) -> Option<String> {
    let at = from + body[from..].find(key)? + key.len();
    let end = at + body[at..].find([',', '\n', '}', ']'])?;
    Some(format!("{}{value}{}", &body[..at], &body[end..]))
}

/// The label with the whole number after the first `key` at or past
/// `from` moved by `delta`.
fn bump(body: &str, from: usize, key: &str, delta: i64) -> Option<String> {
    let at = from + body[from..].find(key)? + key.len();
    let end = at + body[at..].find(|c: char| !c.is_ascii_digit())?;
    let number: i64 = body[at..end].parse().ok()?;
    Some(format!("{}{}{}", &body[..at], number + delta, &body[end..]))
}

/// Feeds the checks tampered copies of a valid label and fails unless
/// every copy is rejected.
pub fn self_test(body: &[u8], expect: &Expect) -> Result<(), String> {
    check_label(body, expect, false)
        .map_err(|e| format!("self-test: the untampered label fails: {e}"))?;
    let body =
        std::str::from_utf8(body).map_err(|_| "self-test: label is not UTF-8".to_string())?;
    let outside = expect.truth.order.last().copied().unwrap_or(0).to_string();
    let tampered = [
        (
            "protected count",
            bump(body, 0, "\"protected_in_top_k\": ", 1),
        ),
        (
            "diversity count",
            body.find("\"categories\"")
                .and_then(|at| bump(body, at, "\"count\": ", 1)),
        ),
        ("rND", replace_value(body, 0, "\"rnd\": ", "1.5")),
        (
            "Kendall tau",
            replace_value(body, 0, "\"worst_kendall_tau\": ", "-1.5"),
        ),
        (
            "trial count",
            body.rfind("\"trials\": ")
                .and_then(|at| bump(body, at, "\"trials\": ", -1)),
        ),
        (
            "top-k row",
            replace_value(body, 0, "\"row_index\": ", &outside),
        ),
    ];
    for (what, copy) in tampered {
        let copy = copy.ok_or_else(|| format!("self-test: the label has no {what} to tamper"))?;
        if check_label(copy.as_bytes(), expect, false).is_ok() {
            return Err(format!(
                "self-test: the checks accept a label with a tampered {what}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_core::AnalysisPipeline;

    /// A German-credit label (two audited features, two diversity
    /// attributes) from the sequential reference pipeline, and its truth.
    fn german_label(
        config: impl FnOnce(rf_core::LabelConfig) -> rf_core::LabelConfig,
    ) -> (String, Expect) {
        let catalog = rf_server::DatasetCatalog::with_demo_datasets();
        let entry = catalog.get("german-credit").unwrap();
        let config = Arc::new(config(entry.config.clone()));
        let label = AnalysisPipeline::sequential()
            .generate(Arc::clone(&entry.table), Arc::clone(&config))
            .unwrap();
        let expect = Expect {
            truth: Arc::new(Truth::from_table(&entry.table, &config).unwrap()),
            k: config.top_k,
            trials: config.monte_carlo.trials,
            mc_seed: Some(config.monte_carlo.seed),
        };
        (rf_core::render_json(&label).unwrap(), expect)
    }

    #[test]
    fn self_test_rejects_every_tampered_copy_of_a_real_label() {
        let (body, expect) = german_label(|c| c.with_monte_carlo_seed(9));
        check_label(body.as_bytes(), &expect, false).unwrap();
        self_test(body.as_bytes(), &expect).unwrap();
    }

    #[test]
    fn checks_reject_a_label_for_another_k_or_seed() {
        let (body, expect) = german_label(|c| c.with_top_k(50));
        check_label(body.as_bytes(), &expect, false).unwrap();
        let wrong_k = Expect {
            k: 60,
            ..expect.clone()
        };
        assert!(check_label(body.as_bytes(), &wrong_k, false).is_err());
        let wrong_seed = Expect {
            mc_seed: Some(1),
            ..expect
        };
        assert!(check_label(body.as_bytes(), &wrong_seed, false).is_err());
    }

    #[test]
    fn a_truncated_summary_passes_only_where_a_deadline_allows_it() {
        let (body, expect) = german_label(|c| c.with_monte_carlo_seed(3));
        let truncated = body.replace("\"truncated\": false", "\"truncated\": true");
        let truncated = bump(
            &truncated,
            truncated.rfind("\"trials\": ").unwrap(),
            "\"trials\": ",
            -1,
        )
        .unwrap();
        assert!(check_label(truncated.as_bytes(), &expect, false).is_err());
        check_label(truncated.as_bytes(), &expect, true).unwrap();
    }
}
