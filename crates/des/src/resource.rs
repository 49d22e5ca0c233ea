//! Serial (FIFO) resource timelines.
//!
//! Besides the per-request [`FifoResource::acquire`], the resource supports
//! bulk reservation of a whole *packet train*
//! ([`FifoResource::acquire_train`]): because the packets of one message
//! enter a link in order and the link serves FIFO, the entire train's
//! occupancy is computable in closed form from the arrival profile — one
//! call instead of one `acquire` per packet, with bit-identical results.

use std::fmt;

use crate::Time;

/// A time interval granted by [`FifoResource::acquire`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Reservation {
    /// When the resource actually starts serving the request.
    pub start: Time,
    /// When the request completes and the resource becomes free again.
    pub end: Time,
}

impl Reservation {
    /// Duration between queueing for the resource and completion.
    pub fn latency_from(&self, ready: Time) -> Time {
        self.end.saturating_sub(ready)
    }
}

/// A serial resource that serves one request at a time in arrival order.
///
/// This models a network-dimension lane, a compute stream, or a memory port:
/// a request that becomes ready at time `t` starts at `max(t, free_at)` and
/// occupies the resource for its service time.
///
/// # Example
///
/// ```
/// use astra_des::{FifoResource, Time};
///
/// let mut link = FifoResource::new();
/// let a = link.acquire(Time::from_us(0), Time::from_us(10));
/// let b = link.acquire(Time::from_us(3), Time::from_us(5)); // queued behind `a`
/// assert_eq!(a.end, Time::from_us(10));
/// assert_eq!(b.start, Time::from_us(10));
/// assert_eq!(b.end, Time::from_us(15));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FifoResource {
    free_at: Time,
    busy: Time,
    /// When set, every grant is appended to `log` (telemetry surface).
    recording: bool,
    log: Vec<RecordedReservation>,
}

/// One recorded grant of a recording [`FifoResource`]: the request's ready
/// time plus the granted interval. A bulk [`FifoResource::acquire_train`]
/// records a single entry spanning the whole train.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct RecordedReservation {
    /// When the request became ready (entered the queue).
    pub ready: Time,
    /// When the resource started serving it.
    pub start: Time,
    /// When it completed.
    pub end: Time,
}

impl FifoResource {
    /// Creates a resource that is free from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a resource that only becomes available at `t` (used to seed
    /// an engine-local resource from an externally tracked timeline).
    pub fn available_from(t: Time) -> Self {
        FifoResource {
            free_at: t,
            ..FifoResource::default()
        }
    }

    /// Reserves the resource for `service` time for a request that is ready
    /// at `ready`, returning the granted interval.
    pub fn acquire(&mut self, ready: Time, service: Time) -> Reservation {
        let start = ready.max(self.free_at);
        let end = start + service;
        self.free_at = end;
        self.busy += service;
        if self.recording {
            self.log.push(RecordedReservation { ready, start, end });
        }
        Reservation { start, end }
    }

    /// Turns grant recording on or off. Recording is off by default; while
    /// off, [`FifoResource::acquire`] and [`FifoResource::acquire_train`]
    /// cost exactly what they did before recording existed (one branch).
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// The grants recorded so far, in grant order. Empty unless
    /// [`FifoResource::set_recording`] was enabled.
    pub fn recorded(&self) -> &[RecordedReservation] {
        &self.log
    }

    /// The earliest time a new request could start.
    pub fn free_at(&self) -> Time {
        self.free_at
    }

    /// Captures the resource's current timeline so a batch of speculative
    /// reservations can later be undone with [`FifoResource::restore`].
    ///
    /// This is what lets the batched transport *re-plan* a link: when a new
    /// train overlaps an already-reserved one, the transport rewinds the
    /// link to the checkpoint taken before the first train's reservation and
    /// re-serves the merged packet sequence.
    pub fn checkpoint(&self) -> FifoCheckpoint {
        FifoCheckpoint {
            free_at: self.free_at,
            busy: self.busy,
            log_len: self.log.len(),
        }
    }

    /// Rewinds the resource to a previously captured [`FifoCheckpoint`],
    /// discarding every reservation (and recorded grant) made since.
    pub fn restore(&mut self, checkpoint: FifoCheckpoint) {
        self.free_at = checkpoint.free_at;
        self.busy = checkpoint.busy;
        self.log.truncate(checkpoint.log_len);
    }

    /// Total busy (serving) time accumulated so far.
    pub fn busy_time(&self) -> Time {
        self.busy
    }

    /// Reserves the resource for a whole packet train in one call.
    ///
    /// The train's packets become ready at the times described by
    /// `arrivals`; every packet occupies the resource for `service`, except
    /// the last one, which takes `tail_service` (messages rarely split into
    /// an exact number of full packets). The result is **bit-identical** to
    /// calling [`FifoResource::acquire`] once per packet in arrival order —
    /// the FIFO recursion `end_i = max(arrival_i, end_{i-1}) + service_i`
    /// collapses into at most two arithmetic runs per input run (a queued
    /// prefix served back-to-back, then an arrival-paced suffix), so the
    /// whole train costs `O(runs)` instead of `O(packets)`.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is empty.
    ///
    /// # Example
    ///
    /// ```
    /// use astra_des::{FifoResource, Time, TrainProfile};
    ///
    /// // Four packets all ready at t=0 on a link serving 10 us each: they
    /// // serialize back-to-back, exactly like four individual acquires.
    /// let mut bulk = FifoResource::new();
    /// let train = TrainProfile::simultaneous(4, Time::ZERO);
    /// let occ = bulk.acquire_train(&train, Time::from_us(10), Time::from_us(10));
    /// assert_eq!(occ.last.end, Time::from_us(40));
    ///
    /// let mut serial = FifoResource::new();
    /// for _ in 0..4 {
    ///     serial.acquire(Time::ZERO, Time::from_us(10));
    /// }
    /// assert_eq!(serial.free_at(), bulk.free_at());
    /// ```
    pub fn acquire_train(
        &mut self,
        arrivals: &TrainProfile,
        service: Time,
        tail_service: Time,
    ) -> TrainOccupancy {
        let total = arrivals.count();
        assert!(total > 0, "cannot reserve an empty packet train");
        let mut completions = TrainProfile::empty();
        let mut prev_end = self.free_at;
        let mut first: Option<Reservation> = None;
        let mut served = 0u64;
        let mut last = Reservation {
            start: prev_end,
            end: prev_end,
        };
        for run in arrivals.runs() {
            // The train's final packet is served at `tail_service`; split it
            // off the run that contains it.
            let body = if served + run.count == total {
                run.count - 1
            } else {
                run.count
            };
            if body > 0 {
                let start_1 = run.first.max(prev_end);
                if first.is_none() {
                    first = Some(Reservation {
                        start: start_1,
                        end: start_1 + service,
                    });
                }
                prev_end = fold_body_run(&mut completions, prev_end, run, body, service);
            }
            served += body;
            if body < run.count {
                // This run carries the train's last packet.
                let arrival = run.first + run.spacing * (run.count - 1);
                let start = arrival.max(prev_end);
                last = Reservation {
                    start,
                    end: start + tail_service,
                };
                if first.is_none() {
                    first = Some(last);
                }
                completions.push_run(ArrivalRun {
                    count: 1,
                    first: last.end,
                    spacing: Time::ZERO,
                });
                prev_end = last.end;
                served += 1;
            }
        }
        self.free_at = prev_end;
        self.busy += service * (total - 1) + tail_service;
        if self.recording {
            // One coarse entry for the whole train: per-packet grants would
            // blow the log up by the packet count for no telemetry value.
            self.log.push(RecordedReservation {
                ready: arrivals.first(),
                start: first.map_or(last.start, |f| f.start),
                end: prev_end,
            });
        }
        TrainOccupancy {
            // astra-lint: allow(panic, trains carry >= 1 packet by construction; the loop above always runs)
            first: first.expect("train has at least one packet"),
            last,
            completions,
        }
    }
}

/// Serves `body` packets of one arithmetic arrival run and appends their
/// completion runs, returning the end of the run's last served packet.
fn fold_body_run(
    completions: &mut TrainProfile,
    prev_end: Time,
    run: &ArrivalRun,
    body: u64,
    service: Time,
) -> Time {
    let (a, d, s) = (run.first, run.spacing, service);
    if d <= s {
        // Packets arrive at least as fast as the resource serves: after the
        // first one starts, the rest queue back-to-back at `service` spacing.
        let first_end = a.max(prev_end) + s;
        completions.push_run(ArrivalRun {
            count: body,
            first: first_end,
            spacing: s,
        });
        return first_end + s * (body - 1);
    }
    // Arrivals are slower than the service rate. A (possibly empty) prefix
    // queues behind `prev_end` back-to-back; once arrivals catch up, each
    // packet starts on arrival and the output keeps the input spacing.
    let queued = if a >= prev_end {
        0
    } else {
        (prev_end - a).as_ps().div_ceil((d - s).as_ps()).min(body)
    };
    if queued > 0 {
        completions.push_run(ArrivalRun {
            count: queued,
            first: prev_end + s,
            spacing: s,
        });
    }
    if queued < body {
        let paced_first = a + d * queued;
        completions.push_run(ArrivalRun {
            count: body - queued,
            first: paced_first + s,
            spacing: d,
        });
        return paced_first + d * (body - queued - 1) + s;
    }
    prev_end + s * queued
}

/// An opaque snapshot of a [`FifoResource`] timeline, produced by
/// [`FifoResource::checkpoint`] and consumed by [`FifoResource::restore`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FifoCheckpoint {
    free_at: Time,
    busy: Time,
    log_len: usize,
}

/// One arithmetic run of packet times: `count` packets at `first`,
/// `first + spacing`, `first + 2*spacing`, …
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ArrivalRun {
    /// Packets in the run (≥ 1).
    pub count: u64,
    /// Time of the run's first packet.
    pub first: Time,
    /// Gap between consecutive packets (zero for a simultaneous burst).
    pub spacing: Time,
}

impl ArrivalRun {
    /// Time of the run's last packet.
    pub fn last(&self) -> Time {
        self.first + self.spacing * (self.count - 1)
    }
}

/// Runs a [`TrainProfile`] stores inline before it spills to the heap.
///
/// A message injected at one instant is a single run, and a FIFO link
/// traversal typically leaves one or two (a back-to-back body, then a
/// short tail or an arrival-paced suffix), so the profiles the batched
/// transport hands from hop to hop fit with room to spare. The replayed
/// per-packet completions of split-merged trains are what spills.
const INLINE_RUNS: usize = 4;

/// Filler for the unused inline slots (never read through [`TrainProfile::runs`]).
const NO_RUN: ArrivalRun = ArrivalRun {
    count: 0,
    first: Time::ZERO,
    spacing: Time::ZERO,
};

/// Backing store of a [`TrainProfile`]: the first [`INLINE_RUNS`] runs
/// live in place, and the whole list moves to a `Vec` once it outgrows
/// them.
#[derive(Clone)]
enum RunStore {
    Inline {
        len: u8,
        runs: [ArrivalRun; INLINE_RUNS],
    },
    Spilled(Vec<ArrivalRun>),
}

/// Piecewise-arithmetic time profile of a packet train (arrival or
/// completion instants), kept as a short list of [`ArrivalRun`]s.
///
/// A message injected at one instant is a single zero-spacing run; each
/// FIFO link traversal maps the profile to at most one extra run (see
/// [`FifoResource::acquire_train`]), so profiles stay tiny even for trains
/// of millions of packets.
///
/// Storage: the first four runs are held inline, so building, copying,
/// delaying and serving a typical profile never touches the heap; a
/// profile with more runs (a split-merged train's replayed completions)
/// moves them all into one `Vec`. The storage is invisible through the
/// API: equality compares the run lists, whichever way they are stored.
#[derive(Clone)]
pub struct TrainProfile {
    store: RunStore,
}

impl TrainProfile {
    /// A burst of `count` packets all ready at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn simultaneous(count: u64, at: Time) -> Self {
        assert!(count > 0, "a packet train needs at least one packet");
        Self::single(ArrivalRun {
            count,
            first: at,
            spacing: Time::ZERO,
        })
    }

    /// An empty profile, to be filled with [`TrainProfile::append`].
    ///
    /// Unlike the other constructors this may stay empty; callers that build
    /// profiles incrementally must append at least one time before handing
    /// the profile to [`FifoResource::acquire_train`].
    pub fn empty() -> Self {
        TrainProfile {
            store: RunStore::Inline {
                len: 0,
                runs: [NO_RUN; INLINE_RUNS],
            },
        }
    }

    fn single(run: ArrivalRun) -> Self {
        let mut profile = Self::empty();
        profile.push_run(run);
        profile
    }

    /// Appends a single packet time, merging it into the trailing run when
    /// the combined sequence stays arithmetic. Times must be appended in
    /// non-decreasing order.
    pub fn append(&mut self, time: Time) {
        self.push_run(ArrivalRun {
            count: 1,
            first: time,
            spacing: Time::ZERO,
        });
    }

    /// A profile made of a single arithmetic run.
    ///
    /// # Panics
    ///
    /// Panics if `run.count == 0`.
    pub fn arithmetic(run: ArrivalRun) -> Self {
        assert!(run.count > 0, "a packet train needs at least one packet");
        Self::single(run)
    }

    /// Concatenates two profiles into one train.
    ///
    /// # Panics
    ///
    /// Panics if `other` starts before this profile's last packet (packet
    /// times must stay non-decreasing).
    pub fn concat(&self, other: &TrainProfile) -> TrainProfile {
        let mut out = self.clone();
        for &run in other.runs() {
            out.push_run(run);
        }
        out
    }

    /// The runs making up the profile, in time order.
    pub fn runs(&self) -> &[ArrivalRun] {
        match &self.store {
            RunStore::Inline { len, runs } => &runs[..usize::from(*len)],
            RunStore::Spilled(runs) => runs,
        }
    }

    fn runs_mut(&mut self) -> &mut [ArrivalRun] {
        match &mut self.store {
            RunStore::Inline { len, runs } => &mut runs[..usize::from(*len)],
            RunStore::Spilled(runs) => runs,
        }
    }

    /// Total packets in the train.
    pub fn count(&self) -> u64 {
        self.runs().iter().map(|r| r.count).sum()
    }

    /// Time of the first packet.
    pub fn first(&self) -> Time {
        // astra-lint: allow(panic, profiles are built non-empty; an empty one is a transport bug)
        self.runs().first().expect("non-empty train").first
    }

    /// Time of the last packet.
    pub fn last(&self) -> Time {
        // astra-lint: allow(panic, profiles are built non-empty; an empty one is a transport bug)
        self.runs().last().expect("non-empty train").last()
    }

    /// The same profile shifted later by `delay` (e.g. a link's propagation
    /// latency applied to its completion profile).
    pub fn delayed_by(&self, delay: Time) -> TrainProfile {
        let mut out = self.clone();
        for run in out.runs_mut() {
            run.first += delay;
        }
        out
    }

    /// Every packet time, expanded (test/diagnostic helper — O(packets)).
    pub fn times(&self) -> impl Iterator<Item = Time> + '_ {
        self.runs()
            .iter()
            .flat_map(|r| (0..r.count).map(move |i| r.first + r.spacing * i))
    }

    /// Appends a run, merging it into the previous one when the combined
    /// sequence stays arithmetic.
    fn push_run(&mut self, run: ArrivalRun) {
        if run.count == 0 {
            return;
        }
        if let Some(prev) = self.runs_mut().last_mut() {
            // Completion instants are non-decreasing, so the gap between the
            // previous run's last packet and this run's first is well-defined.
            let gap = run.first - prev.last();
            let prev_ok = prev.count == 1 || prev.spacing == gap;
            let run_ok = run.count == 1 || run.spacing == gap;
            if prev_ok && run_ok {
                prev.spacing = gap;
                prev.count += run.count;
                return;
            }
        }
        match &mut self.store {
            RunStore::Inline { len, runs } if usize::from(*len) < INLINE_RUNS => {
                runs[usize::from(*len)] = run;
                *len += 1;
            }
            RunStore::Inline { runs, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_RUNS);
                spilled.extend_from_slice(runs);
                spilled.push(run);
                self.store = RunStore::Spilled(spilled);
            }
            RunStore::Spilled(runs) => runs.push(run),
        }
    }
}

impl PartialEq for TrainProfile {
    fn eq(&self, other: &Self) -> bool {
        self.runs() == other.runs()
    }
}

impl Eq for TrainProfile {}

impl fmt::Debug for TrainProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrainProfile")
            .field("runs", &self.runs())
            .finish()
    }
}

/// The interval granted to a whole packet train by
/// [`FifoResource::acquire_train`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrainOccupancy {
    /// Reservation of the train's first packet.
    pub first: Reservation,
    /// Reservation of the train's last packet (its `end` is when the train
    /// leaves the resource).
    pub last: Reservation,
    /// Completion instants of every packet, as a compact profile.
    pub completions: TrainProfile,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_overlapping_requests() {
        let mut r = FifoResource::new();
        let a = r.acquire(Time::from_us(0), Time::from_us(4));
        let b = r.acquire(Time::from_us(1), Time::from_us(4));
        assert_eq!(a.start, Time::from_us(0));
        assert_eq!(b.start, Time::from_us(4));
        assert_eq!(r.free_at(), Time::from_us(8));
        assert_eq!(r.busy_time(), Time::from_us(8));
    }

    #[test]
    fn idle_gap_preserved() {
        let mut r = FifoResource::new();
        r.acquire(Time::from_us(0), Time::from_us(1));
        let b = r.acquire(Time::from_us(10), Time::from_us(1));
        assert_eq!(b.start, Time::from_us(10));
        assert_eq!(r.busy_time(), Time::from_us(2));
    }

    #[test]
    fn reservation_latency() {
        let mut r = FifoResource::new();
        r.acquire(Time::from_us(0), Time::from_us(6));
        let b = r.acquire(Time::from_us(2), Time::from_us(3));
        assert_eq!(b.latency_from(Time::from_us(2)), Time::from_us(7));
    }

    /// Per-packet reference: the loop the bulk API must match bit-for-bit.
    fn acquire_each(
        res: &mut FifoResource,
        arrivals: &TrainProfile,
        service: Time,
        tail_service: Time,
    ) -> Vec<Reservation> {
        let total = arrivals.count();
        arrivals
            .times()
            .enumerate()
            .map(|(i, a)| {
                let s = if i as u64 + 1 == total {
                    tail_service
                } else {
                    service
                };
                res.acquire(a, s)
            })
            .collect()
    }

    fn assert_train_matches(
        arrivals: &TrainProfile,
        service: Time,
        tail_service: Time,
        seed: Time,
    ) {
        let mut bulk = FifoResource::available_from(seed);
        let mut serial = FifoResource::available_from(seed);
        let occ = bulk.acquire_train(arrivals, service, tail_service);
        let refs = acquire_each(&mut serial, arrivals, service, tail_service);
        let ends: Vec<Time> = occ.completions.times().collect();
        let want: Vec<Time> = refs.iter().map(|r| r.end).collect();
        assert_eq!(ends, want, "completion profile diverged");
        assert_eq!(occ.first, refs[0], "first reservation");
        assert_eq!(occ.last, *refs.last().unwrap(), "last reservation");
        assert_eq!(bulk.free_at(), serial.free_at());
        assert_eq!(bulk.busy_time(), serial.busy_time());
    }

    #[test]
    fn train_burst_matches_per_packet_loop() {
        // Simultaneous burst (hop-0 shape), with and without a short tail.
        let t = TrainProfile::simultaneous(5, Time::from_us(3));
        assert_train_matches(&t, Time::from_us(4), Time::from_us(4), Time::ZERO);
        assert_train_matches(&t, Time::from_us(4), Time::from_us(1), Time::from_us(40));
    }

    #[test]
    fn train_dense_arrivals_queue_back_to_back() {
        // Arrivals at exactly the service spacing (saturated upstream link).
        let t = TrainProfile::arithmetic(ArrivalRun {
            count: 8,
            first: Time::from_us(10),
            spacing: Time::from_us(2),
        });
        assert_train_matches(&t, Time::from_us(2), Time::from_us(2), Time::ZERO);
        assert_train_matches(&t, Time::from_us(2), Time::from_us(1), Time::from_us(25));
    }

    #[test]
    fn train_sparse_arrivals_split_into_queued_then_paced() {
        // Arrivals slower than the service rate behind a busy resource: a
        // queued prefix drains back-to-back, then packets start on arrival.
        let t = TrainProfile::arithmetic(ArrivalRun {
            count: 10,
            first: Time::from_us(0),
            spacing: Time::from_us(5),
        });
        assert_train_matches(&t, Time::from_us(2), Time::from_us(2), Time::from_us(19));
        let mut res = FifoResource::available_from(Time::from_us(19));
        let occ = res.acquire_train(&t, Time::from_us(2), Time::from_us(2));
        assert_eq!(occ.completions.runs().len(), 2, "{:?}", occ.completions);
    }

    #[test]
    fn single_packet_train_is_one_tail() {
        let t = TrainProfile::simultaneous(1, Time::from_us(7));
        assert_train_matches(&t, Time::from_us(9), Time::from_us(3), Time::from_us(2));
    }

    #[test]
    fn train_profile_delay_and_accessors() {
        let t = TrainProfile::simultaneous(4, Time::from_us(2));
        let d = t.delayed_by(Time::from_us(1));
        assert_eq!(d.first(), Time::from_us(3));
        assert_eq!(d.last(), Time::from_us(3));
        assert_eq!(d.count(), 4);
        assert_eq!(d.runs().len(), 1);
    }

    #[test]
    fn checkpoint_restore_rewinds_reservations() {
        let mut r = FifoResource::new();
        r.acquire(Time::from_us(0), Time::from_us(4));
        let cp = r.checkpoint();
        r.acquire(Time::from_us(1), Time::from_us(7));
        r.acquire(Time::from_us(2), Time::from_us(3));
        r.restore(cp);
        assert_eq!(r.free_at(), Time::from_us(4));
        assert_eq!(r.busy_time(), Time::from_us(4));
        // Replaying after a restore lands exactly where the original did.
        let b = r.acquire(Time::from_us(1), Time::from_us(7));
        assert_eq!(b.end, Time::from_us(11));
    }

    #[test]
    fn recording_logs_grants_and_restore_truncates() {
        let mut r = FifoResource::new();
        r.acquire(Time::from_us(0), Time::from_us(4));
        assert!(r.recorded().is_empty(), "recording is off by default");
        r.set_recording(true);
        let a = r.acquire(Time::from_us(1), Time::from_us(2));
        let cp = r.checkpoint();
        r.acquire(Time::from_us(2), Time::from_us(3));
        r.acquire_train(
            &TrainProfile::simultaneous(3, Time::from_us(2)),
            Time::from_us(1),
            Time::from_us(1),
        );
        assert_eq!(r.recorded().len(), 3);
        r.restore(cp);
        assert_eq!(
            r.recorded(),
            &[RecordedReservation {
                ready: Time::from_us(1),
                start: a.start,
                end: a.end,
            }]
        );
    }

    #[test]
    fn recorded_train_is_one_coarse_entry() {
        let mut r = FifoResource::new();
        r.set_recording(true);
        let t = TrainProfile::simultaneous(4, Time::from_us(3));
        let occ = r.acquire_train(&t, Time::from_us(2), Time::from_us(1));
        assert_eq!(
            r.recorded(),
            &[RecordedReservation {
                ready: Time::from_us(3),
                start: occ.first.start,
                end: occ.last.end,
            }]
        );
    }

    #[test]
    fn append_builds_compact_profile() {
        let mut p = TrainProfile::empty();
        for i in 0..5 {
            p.append(Time::from_us(10 + 2 * i));
        }
        p.append(Time::from_us(30));
        assert_eq!(p.count(), 6);
        assert_eq!(p.runs().len(), 2, "{p:?}");
        let times: Vec<Time> = p.times().collect();
        assert_eq!(times[0], Time::from_us(10));
        assert_eq!(times[5], Time::from_us(30));
    }

    #[test]
    #[should_panic(expected = "empty packet train")]
    fn empty_train_rejected() {
        FifoResource::new().acquire_train(
            &TrainProfile::empty(),
            Time::from_us(1),
            Time::from_us(1),
        );
    }

    /// Test-only model of a profile: the plain `Vec` the inline storage
    /// replaced, with the same run-merging rule.
    #[derive(Clone, Debug, Default)]
    struct ModelProfile {
        runs: Vec<ArrivalRun>,
    }

    impl ModelProfile {
        fn push_run(&mut self, run: ArrivalRun) {
            if let Some(prev) = self.runs.last_mut() {
                let gap = run.first - prev.last();
                if (prev.count == 1 || prev.spacing == gap)
                    && (run.count == 1 || run.spacing == gap)
                {
                    prev.spacing = gap;
                    prev.count += run.count;
                    return;
                }
            }
            self.runs.push(run);
        }

        fn last(&self) -> Time {
            self.runs.last().unwrap().last()
        }

        fn times(&self) -> Vec<Time> {
            self.runs
                .iter()
                .flat_map(|r| (0..r.count).map(move |i| r.first + r.spacing * i))
                .collect()
        }
    }

    /// One step of a random profile history: `(kind, gap_ns, count,
    /// spacing_ns)`. Kind 0 appends one time, kind 1 concatenates an
    /// arithmetic run, kind 2 delays the whole profile by `gap_ns`.
    type Step = (u8, u64, u64, u64);

    fn apply(profile: &mut TrainProfile, model: &mut ModelProfile, step: Step) {
        let (kind, gap, count, spacing) = step;
        let gap = Time::from_ns(gap);
        match kind {
            0 => {
                let at = model.last() + gap;
                profile.append(at);
                model.push_run(ArrivalRun {
                    count: 1,
                    first: at,
                    spacing: Time::ZERO,
                });
            }
            1 => {
                let run = ArrivalRun {
                    count,
                    first: model.last() + gap,
                    spacing: Time::from_ns(spacing),
                };
                *profile = profile.concat(&TrainProfile::arithmetic(run));
                model.push_run(run);
            }
            _ => {
                *profile = profile.delayed_by(gap);
                for run in &mut model.runs {
                    run.first += gap;
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Profiles built through the public constructors agree exactly
        /// with the plain-`Vec` model on both sides of the inline
        /// capacity, and so does the occupancy `acquire_train` derives
        /// from them.
        #[test]
        fn inline_storage_matches_vec_model(
            first in (1u64..6, 0u64..4),
            steps in proptest::collection::vec((0u8..3, 0u64..5, 1u64..6, 0u64..4), 1..16),
            service in (1u64..5, 1u64..5),
            seed in 0u64..40,
        ) {
            let run = ArrivalRun {
                count: first.0,
                first: Time::from_ns(3),
                spacing: Time::from_ns(first.1),
            };
            let mut profile = TrainProfile::arithmetic(run);
            let mut model = ModelProfile::default();
            model.push_run(run);
            for &step in &steps {
                apply(&mut profile, &mut model, step);
                proptest::prop_assert_eq!(profile.runs(), model.runs.as_slice());
            }
            proptest::prop_assert_eq!(profile.count(), model.runs.iter().map(|r| r.count).sum::<u64>());
            proptest::prop_assert_eq!(profile.first(), model.runs[0].first);
            proptest::prop_assert_eq!(profile.last(), model.last());
            proptest::prop_assert_eq!(profile.times().collect::<Vec<_>>(), model.times());

            // Equality ignores the storage: a copy rebuilt run by run from
            // the model is equal, and any extra packet makes it unequal.
            let mut rebuilt = TrainProfile::arithmetic(model.runs[0]);
            for &run in &model.runs[1..] {
                rebuilt = rebuilt.concat(&TrainProfile::arithmetic(run));
            }
            proptest::prop_assert_eq!(&rebuilt, &profile);
            let mut longer = profile.clone();
            longer.append(model.last() + Time::from_ns(1));
            proptest::prop_assert_ne!(&longer, &profile);

            // The bulk reservation over the profile matches the per-packet
            // loop over the model's times.
            let (service, tail) = (Time::from_ns(service.0), Time::from_ns(service.1));
            let seed = Time::from_ns(seed);
            let mut bulk = FifoResource::available_from(seed);
            let occ = bulk.acquire_train(&profile, service, tail);
            let mut serial = FifoResource::available_from(seed);
            let times = model.times();
            let refs: Vec<Reservation> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| serial.acquire(t, if i + 1 == times.len() { tail } else { service }))
                .collect();
            proptest::prop_assert_eq!(occ.first, refs[0]);
            proptest::prop_assert_eq!(occ.last, *refs.last().unwrap());
            proptest::prop_assert_eq!(
                occ.completions.times().collect::<Vec<_>>(),
                refs.iter().map(|r| r.end).collect::<Vec<_>>()
            );
            proptest::prop_assert_eq!(bulk.free_at(), serial.free_at());
            proptest::prop_assert_eq!(bulk.busy_time(), serial.busy_time());
        }
    }

    /// The generator above does cross the inline capacity: a profile with
    /// one more run than fits inline spills and keeps every accessor.
    #[test]
    fn profile_spills_past_inline_capacity() {
        let mut p = TrainProfile::empty();
        let mut at = Time::ZERO;
        for i in 0..=INLINE_RUNS as u64 {
            // Alternate gaps so no two runs merge.
            at += Time::from_ns(1 + (i % 2) * 5);
            p = p.concat(&TrainProfile::simultaneous(2, at));
        }
        assert_eq!(p.runs().len(), INLINE_RUNS + 1);
        assert!(matches!(p.store, RunStore::Spilled(_)));
        assert_eq!(p.count(), 2 * (INLINE_RUNS as u64 + 1));
        assert_eq!(p.delayed_by(Time::from_ns(1)).last(), at + Time::from_ns(1));
    }
}
