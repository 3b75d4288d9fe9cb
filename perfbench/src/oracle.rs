//! The raw-column answer oracle: exact answers to the benchmark's `SCAN`
//! shapes, computed from the uncompressed columns the fixture was built
//! from, and the check of a server reply against them.
//!
//! Answers keep integer partials (`sum`, `count` per group) and divide once
//! at the end with the same `sum as f64 / count as f64` the engine uses, so
//! a correct reply matches bit for bit.

use leco_bench::report::Json;
use std::collections::HashMap;

/// Aggregate of a `SCAN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// `COUNT` of the selected rows.
    Count,
    /// `SUM val`.
    Sum,
    /// `GROUPBY id AGG avg val`.
    GroupAvg,
}

/// A `SCAN` over the `(ts, id, val)` schema: optional inclusive `ts`
/// window plus an aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Inclusive `ts` window; `None` scans every row.
    pub window: Option<(u64, u64)>,
    /// What to compute over the selected rows.
    pub agg: Agg,
}

impl Query {
    /// The wire command for this query against `table`.
    pub fn command(&self, table: &str) -> String {
        let mut cmd = format!("SCAN {table}");
        if let Some((lo, hi)) = self.window {
            cmd.push_str(&format!(" FILTER ts {lo} {hi}"));
        }
        match self.agg {
            Agg::Count => {}
            Agg::Sum => cmd.push_str(" SUM val"),
            Agg::GroupAvg => cmd.push_str(" GROUPBY id AGG avg val"),
        }
        cmd
    }

    fn selects(&self, ts: u64) -> bool {
        self.window.is_none_or(|(lo, hi)| lo <= ts && ts <= hi)
    }
}

/// Exact answer: selected rows, `SUM val` over them, and `(id, sum, count)`
/// group partials sorted by id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Answer {
    /// Rows passing the window.
    pub rows: u64,
    /// Sum of `val` over those rows.
    pub sum: u128,
    /// Group partials, sorted by id (filled for every query shape).
    pub groups: Vec<(u64, u128, u64)>,
}

/// Running integer partials for one query.
#[derive(Debug, Default)]
pub struct Accum {
    rows: u64,
    sum: u128,
    groups: HashMap<u64, (u128, u64)>,
}

impl Accum {
    /// Fold one selected row in.
    pub fn add(&mut self, id: u64, val: u64) {
        self.rows += 1;
        self.sum += val as u128;
        let g = self.groups.entry(id).or_default();
        g.0 += val as u128;
        g.1 += 1;
    }

    /// The finished answer.
    pub fn finish(self) -> Answer {
        let mut groups: Vec<(u64, u128, u64)> = self
            .groups
            .into_iter()
            .map(|(id, (sum, count))| (id, sum, count))
            .collect();
        groups.sort_unstable_by_key(|g| g.0);
        Answer {
            rows: self.rows,
            sum: self.sum,
            groups,
        }
    }
}

/// Answer every query in one pass over the raw columns.
pub fn answer_all(ts: &[u64], id: &[u64], val: &[u64], queries: &[Query]) -> Vec<Answer> {
    let mut accs: Vec<Accum> = queries.iter().map(|_| Accum::default()).collect();
    for r in 0..ts.len() {
        for (q, acc) in queries.iter().zip(accs.iter_mut()) {
            if q.selects(ts[r]) {
                acc.add(id[r], val[r]);
            }
        }
    }
    accs.into_iter().map(Accum::finish).collect()
}

/// A `SCAN` reply, parsed and shape-checked.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanReply {
    /// `rows_selected`.
    pub rows: u64,
    /// `rows_scanned`.
    pub rows_scanned: u64,
    /// `sum` (rendered as a decimal string on the wire).
    pub sum: u128,
    /// `(id, avg)` rows.
    pub groups: Vec<(u64, f64)>,
}

impl ScanReply {
    /// Parse a `200` reply; `None` if any field is missing, mistyped, or
    /// inconsistent (more rows selected than scanned, group ids not
    /// strictly ascending, groups on a non-group query).
    pub fn parse(reply: &Json, agg: Agg) -> Option<ScanReply> {
        if leco_server::protocol::response_code(reply) != 200 {
            return None;
        }
        let num = |key: &str| {
            let v = reply.get(key)?.as_f64()?;
            (v >= 0.0 && v.fract() == 0.0).then_some(v as u64)
        };
        let rows = num("rows_selected")?;
        let rows_scanned = num("rows_scanned")?;
        let sum: u128 = reply.get("sum")?.as_str()?.parse().ok()?;
        let mut groups = Vec::new();
        for g in reply.get("groups")?.as_arr()? {
            let pair = g.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            groups.push((pair[0].as_f64()? as u64, pair[1].as_f64()?));
        }
        let ascending = groups.windows(2).all(|w| w[0].0 < w[1].0);
        let groups_ok = match agg {
            Agg::GroupAvg => ascending && (groups.is_empty() == (rows == 0)),
            Agg::Count | Agg::Sum => groups.is_empty(),
        };
        (rows <= rows_scanned && groups_ok).then_some(ScanReply {
            rows,
            rows_scanned,
            sum,
            groups,
        })
    }

    /// Does this reply carry exactly `answer` for a query of shape `agg`?
    pub fn matches(&self, answer: &Answer, agg: Agg) -> bool {
        if self.rows != answer.rows {
            return false;
        }
        match agg {
            Agg::Count => true,
            Agg::Sum => self.sum == answer.sum,
            Agg::GroupAvg => {
                self.groups.len() == answer.groups.len()
                    && self.groups.iter().zip(&answer.groups).all(
                        |(&(id, avg), &(want_id, sum, count))| {
                            id == want_id && avg.to_bits() == (sum as f64 / count as f64).to_bits()
                        },
                    )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leco_columnar::{Encoding, TableFile, TableFileOptions};
    use leco_scan::Scanner;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn columns(n: usize, seed: u64) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ts: Vec<u64> = (0..n as u64).map(|i| i * 3 + rng.gen_range(0..3)).collect();
        let id: Vec<u64> = (0..n).map(|_| rng.gen_range(1..20)).collect();
        let val: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
        (ts, id, val)
    }

    #[test]
    fn one_pass_answers_equal_per_query_brute_force() {
        let (ts, id, val) = columns(5_000, 1);
        let queries = vec![
            Query {
                window: Some((100, 900)),
                agg: Agg::GroupAvg,
            },
            Query {
                window: Some((0, 0)),
                agg: Agg::Count,
            },
            Query {
                window: None,
                agg: Agg::Sum,
            },
            Query {
                window: Some((14_000, u64::MAX)),
                agg: Agg::Count,
            },
        ];
        let got = answer_all(&ts, &id, &val, &queries);
        for (q, answer) in queries.iter().zip(&got) {
            let mut rows = 0u64;
            let mut sum = 0u128;
            let mut groups = std::collections::BTreeMap::<u64, (u128, u64)>::new();
            for r in 0..ts.len() {
                if q.window.is_none_or(|(lo, hi)| lo <= ts[r] && ts[r] <= hi) {
                    rows += 1;
                    sum += val[r] as u128;
                    let g = groups.entry(id[r]).or_default();
                    g.0 += val[r] as u128;
                    g.1 += 1;
                }
            }
            assert_eq!(answer.rows, rows);
            assert_eq!(answer.sum, sum);
            let want: Vec<_> = groups.into_iter().map(|(i, (s, c))| (i, s, c)).collect();
            assert_eq!(answer.groups, want);
        }
        assert_eq!(got[2].rows, 5_000);
    }

    #[test]
    fn commands_render_every_shape() {
        let q = Query {
            window: Some((5, 9)),
            agg: Agg::GroupAvg,
        };
        assert_eq!(
            q.command("t"),
            "SCAN t FILTER ts 5 9 GROUPBY id AGG avg val"
        );
        let q = Query {
            window: None,
            agg: Agg::Sum,
        };
        assert_eq!(q.command("t"), "SCAN t SUM val");
        let q = Query {
            window: Some((1, 2)),
            agg: Agg::Count,
        };
        assert_eq!(q.command("t"), "SCAN t FILTER ts 1 2");
    }

    /// The oracle agrees with the compressed scan engine bit for bit, and a
    /// reply built from the engine's result passes the check while a
    /// perturbed one fails.
    #[test]
    fn oracle_matches_the_engine_and_rejects_wrong_replies() {
        let (ts, id, val) = columns(30_000, 2);
        let path =
            std::env::temp_dir().join(format!("perfbench-oracle-{}.tbl", std::process::id()));
        let options = TableFileOptions {
            encoding: Encoding::Leco,
            row_group_size: 4_096,
            ..Default::default()
        };
        let file = TableFile::write(
            &path,
            &["ts", "id", "val"],
            &[ts.clone(), id.clone(), val.clone()],
            options,
        )
        .unwrap();
        let q = Query {
            window: Some((9_000, 40_000)),
            agg: Agg::GroupAvg,
        };
        let answer = &answer_all(&ts, &id, &val, &[q])[0];
        let result = Scanner::new(&file)
            .filter("ts", 9_000, 40_000)
            .group_by_avg("id", "val")
            .run(2)
            .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(result.rows_selected, answer.rows);
        assert_eq!(result.group_partials, answer.groups);

        let reply_json = |groups: &[(u64, f64)], rows: u64| {
            leco_server::protocol::ok_response(vec![
                ("rows_selected".into(), Json::Num(rows as f64)),
                ("rows_scanned".into(), Json::Num(result.rows_scanned as f64)),
                ("sum".into(), Json::Str("0".into())),
                (
                    "groups".into(),
                    Json::Arr(
                        groups
                            .iter()
                            .map(|&(i, a)| Json::Arr(vec![Json::Num(i as f64), Json::Num(a)]))
                            .collect(),
                    ),
                ),
            ])
        };
        // Round-trip through the wire text, as a client sees it.
        let wire = |j: Json| Json::parse(&j.render()).unwrap();
        let good = ScanReply::parse(&wire(reply_json(&result.groups, answer.rows)), q.agg).unwrap();
        assert!(good.matches(answer, q.agg));

        let mut off = result.groups.clone();
        off[3].1 = f64::from_bits(off[3].1.to_bits() + 1);
        let bad = ScanReply::parse(&wire(reply_json(&off, answer.rows)), q.agg).unwrap();
        assert!(!bad.matches(answer, q.agg));
        let short = ScanReply::parse(&wire(reply_json(&result.groups, answer.rows - 1)), q.agg);
        assert!(!short.unwrap().matches(answer, q.agg));
        // Shape failures: error code, groups on a COUNT.
        let error = leco_server::protocol::error_response(500, "boom");
        assert!(ScanReply::parse(&error, Agg::Count).is_none());
        assert!(
            ScanReply::parse(&wire(reply_json(&result.groups, answer.rows)), Agg::Count).is_none()
        );
    }
}
