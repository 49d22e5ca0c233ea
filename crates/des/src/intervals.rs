//! Busy-interval bookkeeping for "exposed time" breakdowns.
//!
//! The paper (Fig. 9 and Fig. 11) reports runtime broken into *compute time*
//! plus the **exposed** (non-hidden) portion of communication, remote-memory,
//! and local-memory time. This module records per-category busy intervals and
//! attributes every instant of wall-clock time to the highest-priority
//! category active at that instant.

use crate::Time;

/// A log of (possibly overlapping) busy intervals for one activity category.
///
/// # Example
///
/// ```
/// use astra_des::{IntervalLog, Time};
///
/// let mut log = IntervalLog::new();
/// log.push(Time::from_us(0), Time::from_us(4));
/// log.push(Time::from_us(2), Time::from_us(6)); // overlaps the first
/// assert_eq!(log.union_measure(), Time::from_us(6));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntervalLog {
    spans: Vec<(Time, Time)>,
}

impl IntervalLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty log with room for `capacity` intervals.
    pub fn with_capacity(capacity: usize) -> Self {
        IntervalLog {
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Records a busy interval `[start, end)`. Empty intervals are ignored.
    /// An interval that starts where the last recorded one ends extends
    /// it instead, as a FIFO resource's back-to-back grants do: no
    /// measure, end or attribution of the log changes, only
    /// [`IntervalLog::iter`] sees one interval where two were pushed.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn push(&mut self, start: Time, end: Time) {
        assert!(end >= start, "interval ends before it starts");
        if end > start {
            match self.spans.last_mut() {
                Some(last) if last.1 == start => last.1 = end,
                _ => self.spans.push((start, end)),
            }
        }
    }

    /// Total busy time counting overlaps once (the measure of the union).
    pub fn union_measure(&self) -> Time {
        let mut spans = self.spans.clone();
        spans.sort_unstable();
        let mut total = Time::ZERO;
        let mut cur: Option<(Time, Time)> = None;
        for (s, e) in spans {
            match cur {
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    total += ce - cs;
                    cur = Some((s, e));
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            total += ce - cs;
        }
        total
    }

    /// Sum of raw interval lengths (overlaps counted multiply).
    pub fn raw_measure(&self) -> Time {
        self.spans.iter().map(|&(s, e)| e - s).sum()
    }

    /// Latest interval end, or `Time::ZERO` for an empty log.
    pub fn end(&self) -> Time {
        self.spans
            .iter()
            .map(|&(_, e)| e)
            .fold(Time::ZERO, Time::max)
    }

    /// Whether no intervals were recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterates over the recorded raw intervals in insertion order, with
    /// back-to-back ones merged (see [`IntervalLog::push`]).
    pub fn iter(&self) -> impl Iterator<Item = (Time, Time)> + '_ {
        self.spans.iter().copied()
    }
}

/// Attributes every instant in `[0, horizon)` to the *first* (highest
/// priority) category in `logs` that is busy at that instant.
///
/// Returns one exclusive measure per input log, followed by a final entry
/// holding the unattributed (idle) time. The sum of the returned values
/// always equals `horizon`.
///
/// This implements the paper's exposed-time definition with a priority order
/// chosen by the caller (compute > comm > remote memory > local memory for
/// Fig. 11).
///
/// # Example
///
/// ```
/// use astra_des::{attribute_exclusive, IntervalLog, Time};
///
/// let mut compute = IntervalLog::new();
/// compute.push(Time::from_us(0), Time::from_us(5));
/// let mut comm = IntervalLog::new();
/// comm.push(Time::from_us(3), Time::from_us(8)); // 2us hidden behind compute
///
/// let out = attribute_exclusive(&[&compute, &comm], Time::from_us(10));
/// assert_eq!(out, vec![Time::from_us(5), Time::from_us(3), Time::from_us(2)]);
/// ```
pub fn attribute_exclusive(logs: &[&IntervalLog], horizon: Time) -> Vec<Time> {
    let segments = attribute_exclusive_intervals(logs, horizon);
    segments
        .iter()
        .map(|spans| spans.iter().map(|&(s, e)| e - s).sum())
        .collect()
}

/// The segment-level form of [`attribute_exclusive`]: the same sweep, but
/// instead of summing each category's exclusive time it returns the actual
/// attributed segments, coalesced, in time order.
///
/// Returns one span list per input log, followed by a final list holding the
/// idle segments. Summing each list's lengths reproduces
/// [`attribute_exclusive`]'s output exactly — the two share one sweep.
pub fn attribute_exclusive_intervals(
    logs: &[&IntervalLog],
    horizon: Time,
) -> Vec<Vec<(Time, Time)>> {
    // A category owns what it adds to the union of the categories before
    // it, everything clipped to `[0, horizon)`. `covered` is that union so
    // far, as disjoint, non-touching intervals in time order, so the
    // differences below come out coalesced.
    let mut covered: Vec<(Time, Time)> = Vec::new();
    let mut out = Vec::with_capacity(logs.len() + 1);
    for log in logs {
        let before = covered.clone();
        covered.extend(log.iter().filter_map(|(s, e)| {
            let e = e.min(horizon);
            (s < e).then_some((s, e))
        }));
        covered.sort_unstable();
        covered.dedup_by(|next, kept| {
            let joins = next.0 <= kept.1;
            if joins {
                kept.1 = kept.1.max(next.1);
            }
            joins
        });
        out.push(difference(&covered, &before));
    }
    let all: &[(Time, Time)] = if horizon > Time::ZERO {
        &[(Time::ZERO, horizon)]
    } else {
        &[]
    };
    out.push(difference(all, &covered));
    out
}

/// The parts of `a` that `b` does not cover. Both hold disjoint,
/// non-touching intervals in time order, and so does the result.
fn difference(a: &[(Time, Time)], b: &[(Time, Time)]) -> Vec<(Time, Time)> {
    let mut out = Vec::new();
    let mut cuts = b.iter().peekable();
    for &(mut s, e) in a {
        while let Some(&&(cut_s, cut_e)) = cuts.peek() {
            if cut_e <= s {
                cuts.next();
                continue;
            }
            if cut_s >= e {
                break;
            }
            if cut_s > s {
                out.push((s, cut_s));
            }
            s = cut_e;
            if cut_e >= e {
                // The cut may reach into the next interval of `a`.
                break;
            }
            cuts.next();
        }
        if s < e {
            out.push((s, e));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Time {
        Time::from_us(v)
    }

    #[test]
    fn union_merges_overlaps() {
        let mut log = IntervalLog::new();
        log.push(us(0), us(4));
        log.push(us(2), us(6));
        log.push(us(10), us(11));
        assert_eq!(log.union_measure(), us(7));
        assert_eq!(log.raw_measure(), us(9));
        assert_eq!(log.end(), us(11));
    }

    #[test]
    fn back_to_back_intervals_merge() {
        let mut log = IntervalLog::new();
        log.push(us(0), us(2));
        log.push(us(2), us(5));
        log.push(us(5), us(5));
        log.push(us(5), us(6));
        log.push(us(4), us(7)); // overlaps: kept apart
        log.push(us(8), us(9));
        let spans: Vec<_> = log.iter().collect();
        assert_eq!(spans, [(us(0), us(6)), (us(4), us(7)), (us(8), us(9))]);
        assert_eq!(log.union_measure(), us(8));
        assert_eq!(log.raw_measure(), us(10));
        assert_eq!(log.end(), us(9));
    }

    #[test]
    fn empty_log() {
        let log = IntervalLog::new();
        assert!(log.is_empty());
        assert_eq!(log.union_measure(), Time::ZERO);
        assert_eq!(log.end(), Time::ZERO);
    }

    #[test]
    fn zero_length_intervals_ignored() {
        let mut log = IntervalLog::new();
        log.push(us(3), us(3));
        assert!(log.is_empty());
    }

    #[test]
    #[should_panic(expected = "ends before")]
    fn backwards_interval_panics() {
        let mut log = IntervalLog::new();
        log.push(us(3), us(2));
    }

    #[test]
    fn attribution_priority_and_idle() {
        let mut a = IntervalLog::new();
        a.push(us(0), us(5));
        let mut b = IntervalLog::new();
        b.push(us(3), us(8));
        b.push(us(12), us(14));
        let out = attribute_exclusive(&[&a, &b], us(20));
        assert_eq!(out[0], us(5)); // a fully attributed
        assert_eq!(out[1], us(5)); // b minus the 2us hidden behind a
        assert_eq!(out[2], us(10)); // idle
        assert_eq!(out.iter().copied().sum::<Time>(), us(20));
    }

    #[test]
    fn attribution_clips_to_horizon() {
        let mut a = IntervalLog::new();
        a.push(us(0), us(100));
        let out = attribute_exclusive(&[&a], us(10));
        assert_eq!(out, vec![us(10), us(0)]);
    }

    #[test]
    fn attribution_with_overlapping_intervals_within_category() {
        let mut a = IntervalLog::new();
        a.push(us(0), us(2));
        a.push(us(1), us(6));
        let out = attribute_exclusive(&[&a], us(6));
        assert_eq!(out[0], us(6));
        assert_eq!(out[1], Time::ZERO);
    }

    #[test]
    fn attribution_no_categories_is_all_idle() {
        let out = attribute_exclusive(&[], us(9));
        assert_eq!(out, vec![us(9)]);
    }

    #[test]
    fn attribution_intervals_match_measures_and_coalesce() {
        let mut a = IntervalLog::new();
        a.push(us(0), us(2));
        a.push(us(2), us(5)); // adjacent: must coalesce into one span
        let mut b = IntervalLog::new();
        b.push(us(3), us(8));
        b.push(us(12), us(14));
        let spans = attribute_exclusive_intervals(&[&a, &b], us(20));
        assert_eq!(spans[0], vec![(us(0), us(5))]);
        assert_eq!(spans[1], vec![(us(5), us(8)), (us(12), us(14))]);
        assert_eq!(spans[2], vec![(us(8), us(12)), (us(14), us(20))]);
        let sums: Vec<Time> = spans
            .iter()
            .map(|s| s.iter().map(|&(x, y)| y - x).sum())
            .collect();
        assert_eq!(sums, attribute_exclusive(&[&a, &b], us(20)));
    }
}
