//! The live table's ground truth: every row the server acknowledged, every
//! acknowledged delete, and the seeded generator new rows come from.
//!
//! Rows are `(ts, id, val)` with `ts` equal to the row's position in the
//! log (preloaded rows first, then every acknowledged `PUT` in order), `id`
//! drawn from `0..EVENT_IDS` and `val` a random walk.  Readers take a
//! consistent *watermark* — every row up to it acknowledged — and check
//! scan replies against the log.

use crate::data::{rng_for, EVENT_IDS};
use crate::oracle::{Accum, Answer};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;
use std::sync::{Mutex, RwLock};

/// Deletes target one of this many most recent rows.
const DEL_REACH: u64 = 1024;

struct Walker {
    next_ts: u64,
    val: u64,
    rng: StdRng,
}

impl Walker {
    fn row(&mut self) -> [u64; 3] {
        let ts = self.next_ts;
        self.next_ts += 1;
        self.val = (self.val + self.rng.gen_range(0..=32))
            .saturating_sub(16)
            .max(1);
        [ts, self.rng.gen_range(0..EVENT_IDS), self.val]
    }
}

#[derive(Default)]
struct State {
    id: Vec<u64>,
    val: Vec<u64>,
    deleted: Vec<u64>,
    deleted_set: HashSet<u64>,
    /// A write failed or was not acknowledged: the log no longer knows the
    /// table's contents, so exact checks are off (the run already failed).
    tainted: bool,
}

/// Acknowledged contents of the live table.
pub struct EventLog {
    preloaded: u64,
    state: RwLock<State>,
    walker: Mutex<Walker>,
    pending_del: Mutex<Option<u64>>,
}

/// A reader's view at the moment it sent a scan.
#[derive(Debug, Clone, Copy)]
pub struct Watermark {
    /// Every row with `ts <= hi` was acknowledged.
    pub hi: u64,
    /// Deletes acknowledged so far.
    pub dels: usize,
    /// A delete sent but not yet acknowledged.
    pub pending: Option<u64>,
}

impl EventLog {
    /// A log holding `rows` preloaded rows generated from `seed`.
    pub fn preload(seed: u64, rows: u64) -> EventLog {
        let mut walker = Walker {
            next_ts: 0,
            val: 1_000_000,
            rng: rng_for(seed, 31),
        };
        let mut state = State::default();
        for _ in 0..rows {
            let [_, id, val] = walker.row();
            state.id.push(id);
            state.val.push(val);
        }
        EventLog {
            preloaded: rows,
            state: RwLock::new(state),
            walker: Mutex::new(walker),
            pending_del: Mutex::new(None),
        }
    }

    /// The logged rows as `ts`, `id`, `val` columns.
    pub fn columns(&self) -> [Vec<u64>; 3] {
        let st = self.state.read().expect("log lock");
        [
            (0..st.id.len() as u64).collect(),
            st.id.clone(),
            st.val.clone(),
        ]
    }

    /// The next `n` rows to write (not yet in the log).
    pub fn next_rows(&self, n: usize) -> Vec<[u64; 3]> {
        let mut w = self.walker.lock().expect("walker lock");
        (0..n).map(|_| w.row()).collect()
    }

    /// Record rows and deletes the server acknowledged.  Rows must continue
    /// the log (`rows[0][0]` is the next `ts`).
    pub fn commit(&self, rows: &[[u64; 3]], dels: &[u64]) {
        let mut st = self.state.write().expect("log lock");
        for row in rows {
            assert_eq!(row[0], st.id.len() as u64, "rows commit in ts order");
            st.id.push(row[1]);
            st.val.push(row[2]);
        }
        for &ts in dels {
            st.deleted.push(ts);
            st.deleted_set.insert(ts);
        }
    }

    /// Stop exact checks: a write outcome is unknown.
    pub fn taint(&self) {
        self.state.write().expect("log lock").tainted = true;
    }

    /// Pick a recent, still-live row to delete, and mark it pending.
    pub fn begin_delete(&self, rng: &mut StdRng) -> Option<u64> {
        let st = self.state.read().expect("log lock");
        let len = st.id.len() as u64;
        let lo = self.preloaded.max(len.saturating_sub(DEL_REACH));
        if lo >= len {
            return None;
        }
        let target = (0..4)
            .map(|_| rng.gen_range(lo..len))
            .find(|ts| !st.deleted_set.contains(ts))?;
        *self.pending_del.lock().expect("pending lock") = Some(target);
        Some(target)
    }

    /// The pending delete was acknowledged (or failed): clear it.
    pub fn end_delete(&self) {
        *self.pending_del.lock().expect("pending lock") = None;
    }

    /// The reader's view now; `None` while the log is empty.
    pub fn watermark(&self) -> Option<Watermark> {
        let st = self.state.read().expect("log lock");
        let pending = *self.pending_del.lock().expect("pending lock");
        (!st.id.is_empty()).then(|| Watermark {
            hi: st.id.len() as u64 - 1,
            dels: st.deleted.len(),
            pending,
        })
    }

    /// Check a scan of `[lo, seen.hi]` that returned `rows` rows: the count
    /// must lie between "every delete racing the scan applied" and "none
    /// applied".  When no delete raced it and `exact` is given, the full
    /// answer is compared with `exact` instead.
    pub fn check_window(
        &self,
        lo: u64,
        seen: Watermark,
        rows: u64,
        exact: Option<&dyn Fn(&Answer) -> bool>,
    ) -> bool {
        let st = self.state.read().expect("log lock");
        if st.tainted {
            return false;
        }
        let hi = seen.hi;
        let inside = |ts: &u64| lo <= *ts && *ts <= hi;
        let settled = st.deleted[..seen.dels]
            .iter()
            .filter(|ts| inside(ts))
            .count() as u64;
        let pending_now = *self.pending_del.lock().expect("pending lock");
        let racing = st.deleted[seen.dels..]
            .iter()
            .chain(seen.pending.iter())
            .chain(pending_now.iter())
            .filter(|ts| inside(ts))
            .collect::<HashSet<_>>()
            .len() as u64;
        let most = hi - lo + 1 - settled;
        if rows > most || rows + racing < most {
            return false;
        }
        match exact {
            Some(check) if racing == 0 => {
                let mut acc = Accum::default();
                for ts in lo..=hi {
                    if !st.deleted_set.contains(&ts) {
                        acc.add(st.id[ts as usize], st.val[ts as usize]);
                    }
                }
                check(&acc.finish())
            }
            _ => true,
        }
    }

    /// Live rows and `SUM val` over everything acknowledged; `None` if the
    /// log is tainted.
    pub fn totals(&self) -> Option<(u64, u128)> {
        let st = self.state.read().expect("log lock");
        if st.tainted {
            return None;
        }
        let mut rows = 0u64;
        let mut sum = 0u128;
        for (ts, &val) in st.val.iter().enumerate() {
            if !st.deleted_set.contains(&(ts as u64)) {
                rows += 1;
                sum += val as u128;
            }
        }
        Some((rows, sum))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::rng_for;

    fn log_with(preload: u64, more: usize) -> EventLog {
        let log = EventLog::preload(3, preload);
        let rows = log.next_rows(more);
        log.commit(&rows, &[]);
        log
    }

    #[test]
    fn rows_continue_the_preload_and_are_seeded() {
        let a = log_with(10, 5);
        let b = log_with(10, 5);
        assert_eq!(a.columns(), b.columns());
        let [ts, id, val] = a.columns();
        assert_eq!(ts, (0..15).collect::<Vec<u64>>());
        assert!(id.iter().all(|&i| i < EVENT_IDS));
        assert!(val.iter().all(|&v| v > 0));
    }

    #[test]
    fn window_checks_bound_racing_deletes() {
        let log = log_with(0, 100);
        let mut rng = rng_for(1, 1);
        let victim = log.begin_delete(&mut rng).unwrap();
        let seen = log.watermark().unwrap();
        assert_eq!(seen.pending, Some(victim));
        // With the delete in flight either outcome is accepted ...
        assert!(log.check_window(0, seen, 100, None));
        assert!(log.check_window(0, seen, 99, None));
        assert!(!log.check_window(0, seen, 98, None));
        assert!(!log.check_window(0, seen, 101, None));
        // ... and no exact check runs.
        assert!(log.check_window(0, seen, 100, Some(&|_: &Answer| false)));
        log.commit(&[], &[victim]);
        log.end_delete();
        let after = log.watermark().unwrap();
        assert!(log.check_window(0, after, 99, None));
        assert!(!log.check_window(0, after, 100, None));
        let want = log.totals().unwrap();
        let exact = |a: &Answer| a.rows == want.0 && a.sum == want.1;
        assert!(log.check_window(0, after, 99, Some(&exact)));
    }

    #[test]
    fn totals_skip_deleted_rows_and_taint_disables_checks() {
        let log = log_with(4, 0);
        let [_, _, val] = log.columns();
        log.commit(&[], &[2]);
        let (rows, sum) = log.totals().unwrap();
        assert_eq!(rows, 3);
        assert_eq!(sum, (val[0] + val[1] + val[3]) as u128);
        log.taint();
        assert!(log.totals().is_none());
        assert!(!log.check_window(0, log.watermark().unwrap(), 3, None));
    }
}
