//! Self-time of every span in an np-obs log.
//!
//! A span's self-time is its duration minus the part of its interval that
//! its children cover. Children of one span can run in parallel (the
//! tuner's candidate pool), so the covered part is the *union* of the
//! child intervals, not their sum: summing would subtract overlapping
//! wall time twice.

use np_obs::{EvKind, RawEvent};
use std::collections::{BTreeMap, HashMap};

/// One closed span: `[start_us, start_us + dur_us)` on the recorder's
/// clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
}

impl Span {
    fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

/// Pair `Open` and `Close` records into spans. Spans that never closed
/// carry no duration and are left out.
pub fn spans(events: &[RawEvent]) -> Vec<Span> {
    let mut open: HashMap<u64, (Option<u64>, &str, u64)> = HashMap::new();
    let mut out = Vec::new();
    for ev in events {
        match &ev.kind {
            EvKind::Open {
                span,
                parent,
                name,
                wall_t_us,
            } => {
                open.insert(*span, (*parent, name.as_str(), *wall_t_us));
            }
            EvKind::Close { span, wall_us, .. } => {
                if let Some((parent, name, start)) = open.remove(span) {
                    out.push(Span {
                        id: *span,
                        parent,
                        name: name.to_string(),
                        start_us: start,
                        dur_us: *wall_us,
                    });
                }
            }
            EvKind::Event { .. } => {}
        }
    }
    out
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain_mut(|(a, b)| {
        *a = (*a).max(lo);
        *b = (*b).min(hi);
        a < b
    });
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Self-time in microseconds of every span, keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry(p)
                .or_default()
                .push((s.start_us, s.end_us()));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.dur_us - covered(kids, s.start_us, s.end_us()))
        })
        .collect()
}

/// Self-time in seconds and span count per span name, sorted by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, (f64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += selfs[&s.id] as f64 * 1e-6;
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_us: u64, dur_us: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start_us,
            dur_us,
        }
    }

    #[test]
    fn parallel_children_are_subtracted_once() {
        // tune [0, 100) with two candidates running side by side on two
        // threads, [10, 60) and [30, 90), each with an interpret child.
        let tree = vec![
            span(0, None, "tune", 0, 100),
            span(1, Some(0), "tune.candidate", 10, 50),
            span(2, Some(0), "tune.candidate", 30, 60),
            span(3, Some(1), "exec.interpret", 15, 40),
            span(4, Some(2), "exec.interpret", 40, 45),
        ];
        let st = self_times(&tree);
        // Union of [10,60) and [30,90) is [10,90): 80 us, so tune keeps 20.
        // Summing the children (110 us) would give a negative self-time.
        assert_eq!(st[&0], 20);
        assert_eq!(st[&1], 10);
        assert_eq!(st[&2], 15);
        assert_eq!(st[&3], 40);
        assert_eq!(st[&4], 45);
        let names = by_name(&tree);
        assert!((names["tune.candidate"].0 - 25e-6).abs() < 1e-12);
        assert_eq!(names["tune.candidate"].1, 2);
        assert!((names["exec.interpret"].0 - 85e-6).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_their_parent_and_gaps_count() {
        // A child that starts before and one that ends after the parent
        // (microsecond clock skew) only cover the parent's own interval;
        // disjoint children leave the gap between them as self-time.
        let tree = vec![
            span(0, None, "p", 100, 50),
            span(1, Some(0), "c", 95, 10),
            span(2, Some(0), "c", 130, 30),
        ];
        let st = self_times(&tree);
        assert_eq!(st[&0], 50 - 5 - 20);
    }

    #[test]
    fn spans_pair_open_and_close_records() {
        let ev = |seq, kind| RawEvent {
            seq,
            corr: None,
            kind,
        };
        let log = vec![
            ev(
                0,
                EvKind::Open {
                    span: 7,
                    parent: None,
                    name: "a".into(),
                    wall_t_us: 5,
                },
            ),
            ev(
                1,
                EvKind::Open {
                    span: 8,
                    parent: Some(7),
                    name: "b".into(),
                    wall_t_us: 6,
                },
            ),
            ev(
                2,
                EvKind::Close {
                    span: 8,
                    name: "b".into(),
                    wall_us: 2,
                },
            ),
            ev(
                3,
                EvKind::Close {
                    span: 7,
                    name: "a".into(),
                    wall_us: 9,
                },
            ),
            ev(
                4,
                EvKind::Open {
                    span: 9,
                    parent: None,
                    name: "never closed".into(),
                    wall_t_us: 1,
                },
            ),
        ];
        let s = spans(&log);
        assert_eq!(s.len(), 2);
        assert_eq!(
            s[0],
            Span {
                id: 8,
                parent: Some(7),
                name: "b".into(),
                start_us: 6,
                dur_us: 2
            }
        );
        assert_eq!(self_times(&s)[&7], 7);
    }
}
