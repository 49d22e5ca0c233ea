//! Store-and-forward packet network simulation.

use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

use astra_des::{
    DataSize, EventQueue, FifoCheckpoint, FifoResource, QueueBackend, SimMode, Time, TrainProfile,
};
use astra_network::{AsyncMessageId, Completion, LinkTrace, NetworkBackend, NetworkStats};
use astra_topology::{
    route_avoiding, FaultError, FaultSchedule, FaultedGraph, LinkGraph, LinkId, NpuId, RouteIndex,
    Topology,
};

use crate::parallel::ParallelCore;

/// Identifier of an in-flight or completed message.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub(crate) usize);

/// How messages traverse the simulated links.
///
/// Both modes model the same store-and-forward FIFO links; they differ in
/// event granularity:
///
/// * [`TransportMode::PerPacket`] pops one event per packet-hop — the
///   ground-truth cost model (`packets × hops` events), which is exactly
///   what makes fine-granularity simulation expensive at scale.
/// * [`TransportMode::Batched`] coalesces each message's packet train into
///   a closed-form per-link traversal ([`FifoResource::acquire_train`]):
///   because a train's packets enter every link in order and links serve
///   FIFO, the whole occupancy follows from the arrival profile, so a
///   message costs `O(hops)` events instead of `O(packets × hops)`.
///
/// Batched mode is **bit-identical** to per-packet mode whenever each
/// train occupies every link contiguously, which the lockstep collective
/// runner guarantees by construction: hop-0 packets queue eagerly at send
/// time (serializing same-source trains), ring steps and switch rounds
/// carry one train per link, and the staggered All-to-All drains each
/// switch down-link from one sender at a time. The cross-mode property
/// suite (`crates/garnet/tests/transport_equivalence.rs`) pins this over
/// random topologies, collectives, and sizes.
///
/// When concurrent trains *would* interleave packet-by-packet on a shared
/// link, batched mode splits them at the interleave points: the link is
/// rewound to before the resident train's reservation and the merged
/// per-packet FIFO sequence is replayed, keeping the result bit-identical
/// to per-packet mode at `O(packets)` cost for just the overlapping trains
/// (see [`PacketNetwork::train_splits`]). Only when a resident train's
/// downstream events have already fired — its reservation can no longer be
/// rewound — does batched mode fall back to serializing whole trains in
/// head-arrival order, a (work-conserving) approximation counted by
/// [`PacketNetwork::train_interleavings`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum TransportMode {
    /// One event per packet per hop (ground truth; the default).
    #[default]
    PerPacket,
    /// One event per message per hop via closed-form train reservations.
    Batched,
}

impl TransportMode {
    /// Both modes, for tests and benchmark sweeps.
    pub const ALL: [TransportMode; 2] = [TransportMode::PerPacket, TransportMode::Batched];

    /// Stable machine-readable name (`per-packet` / `batched`).
    pub fn name(self) -> &'static str {
        match self {
            TransportMode::PerPacket => "per-packet",
            TransportMode::Batched => "batched",
        }
    }
}

impl fmt::Display for TransportMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for TransportMode {
    type Err = String;

    /// Accepts `packet` / `per-packet` and `batched`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "packet" | "per-packet" => Ok(TransportMode::PerPacket),
            "batched" => Ok(TransportMode::Batched),
            other => Err(format!(
                "unknown transport mode `{other}` (expected `packet` or `batched`)"
            )),
        }
    }
}

/// Configuration of the packet simulator.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PacketSimConfig {
    /// Packet (flit-group) size. Smaller packets approach cycle-level
    /// fidelity at proportionally higher simulation cost.
    pub packet_size: DataSize,
    /// Host-side overhead paid once per collective (kernel launch /
    /// protocol setup) by the lockstep collective runner.
    pub collective_overhead: Time,
    /// Synchronization overhead paid once per lockstep algorithm step.
    pub step_overhead: Time,
    /// Future-event-list implementation. The simulated results are
    /// bit-identical across backends; the calendar queue is markedly
    /// faster at fine packet granularities, where hundreds of thousands
    /// of near-sorted packet-hop events are live at once.
    pub queue_backend: QueueBackend,
    /// Event granularity (see [`TransportMode`]). Batched transport keeps
    /// fine packet sizes affordable at 256+ NPUs.
    pub transport: TransportMode,
    /// Execution core (see [`SimMode`]). [`SimMode::Parallel`] partitions
    /// the links into domains advanced in conservative-lookahead windows
    /// (lookahead = minimum link propagation latency); results are
    /// bit-identical across worker thread counts, and bit-identical to
    /// [`SimMode::Sequential`] on the lockstep collective traffic the
    /// runner generates. Topologies with a zero-latency link fall back to
    /// the sequential core (no conservative window exists).
    pub sim_mode: SimMode,
}

impl PacketSimConfig {
    /// Fine-grained packets (256 B): closest to Garnet-style cycle-level
    /// behaviour, slowest to simulate. Used by the §IV-C speedup experiment.
    pub fn garnet_like() -> Self {
        PacketSimConfig {
            packet_size: DataSize::from_bytes(256),
            collective_overhead: Time::ZERO,
            step_overhead: Time::ZERO,
            queue_backend: QueueBackend::default(),
            transport: TransportMode::default(),
            sim_mode: SimMode::default(),
        }
    }

    /// Coarse packets (64 KiB): fast ground-truth mode for validation runs
    /// with large payloads (Fig. 4).
    pub fn fast() -> Self {
        PacketSimConfig {
            packet_size: DataSize::from_kib(64),
            collective_overhead: Time::ZERO,
            step_overhead: Time::ZERO,
            queue_backend: QueueBackend::default(),
            transport: TransportMode::default(),
            sim_mode: SimMode::default(),
        }
    }

    /// Real-system proxy for the Fig. 4 validation: coarse packets plus
    /// NCCL-like host overheads (20 us kernel launch per collective, 1 us
    /// per algorithm step) that the analytical equation deliberately does
    /// not model — the source of the validation error.
    pub fn real_system_proxy() -> Self {
        PacketSimConfig {
            packet_size: DataSize::from_kib(64),
            collective_overhead: Time::from_us(20),
            step_overhead: Time::from_us(1),
            queue_backend: QueueBackend::default(),
            transport: TransportMode::default(),
            sim_mode: SimMode::default(),
        }
    }

    /// Selects the future-event-list backend (see [`QueueBackend`]).
    pub fn with_queue_backend(mut self, backend: QueueBackend) -> Self {
        self.queue_backend = backend;
        self
    }

    /// Selects the transport granularity (see [`TransportMode`]).
    pub fn with_transport(mut self, transport: TransportMode) -> Self {
        self.transport = transport;
        self
    }

    /// Selects the execution core (see [`SimMode`]).
    pub fn with_sim_mode(mut self, sim_mode: SimMode) -> Self {
        self.sim_mode = sim_mode;
        self
    }
}

impl Default for PacketSimConfig {
    fn default() -> Self {
        Self::fast()
    }
}

#[derive(Clone, Debug)]
pub(crate) struct MessageState {
    /// Index into the memoized route table.
    pub(crate) route: usize,
    /// Full-size packet payload (all packets but possibly the last).
    pub(crate) packet_bytes: DataSize,
    /// Payload of the last packet (== `packet_bytes` for exact multiples).
    pub(crate) tail_bytes: DataSize,
    pub(crate) packets_remaining: u64,
    /// Reservation generation (batched mode). Splitting a merged train
    /// rewinds its link reservations and re-schedules its downstream
    /// events; bumping the generation cancels the superseded events still
    /// sitting in the queue (they are dropped on pop).
    pub(crate) gen: u32,
    pub(crate) finish: Option<Time>,
    /// Whether the message was injected through the async NetworkAPI and
    /// its completion must be reported via `drain_completions`.
    pub(crate) tracked: bool,
}

/// One packet completing its traversal of `route[hop]`.
#[derive(Copy, Clone, Debug)]
struct PacketEvent {
    message: MessageId,
    hop: usize,
    /// Bytes of this packet (the tail packet may be short).
    bytes: DataSize,
}

/// A whole train arriving at the head of `route[hop]`.
///
/// The arrival profile itself is parked in [`PacketNetwork::train_slots`]
/// under `slot`, so queue entries stay small.
#[derive(Copy, Clone, Debug)]
struct TrainEvent {
    message: MessageId,
    hop: usize,
    /// Slot of the train's arrival profile, freed when the event pops.
    slot: u32,
    /// Generation the event was scheduled under; stale events (superseded
    /// by a train split) are dropped on pop.
    gen: u32,
}

#[derive(Copy, Clone, Debug)]
enum TransportEvent {
    /// Per-packet transport: one packet finished one hop.
    Packet(PacketEvent),
    /// Batched transport: a train's head reached the next link.
    Train(TrainEvent),
    /// Batched transport: a train's tail arrived at the destination (the
    /// generation guards against superseded schedules, as in `Train`).
    TrainDone(MessageId, u32),
}

/// One train currently reserved on a link and still fully rewindable.
#[derive(Clone, Debug)]
struct TrainMember {
    message: MessageId,
    hop: usize,
    /// The train's arrival profile *at this link*.
    arrivals: TrainProfile,
}

/// The batched-mode re-planning unit for one link: the set of trains whose
/// reservations can still be rewound (none of their downstream events have
/// fired). When a new train's arrival window overlaps the group, the link
/// is restored to `checkpoint` and the merged per-packet FIFO sequence is
/// replayed, reproducing per-packet transport bit-identically.
///
/// Each link keeps one group for the whole run and refills its buffers in
/// place; a link without a rewindable group has `checkpoint == None` and
/// empty buffers.
#[derive(Clone, Debug, Default)]
struct LinkTrainGroup {
    /// Link timeline snapshot taken before the group's first reservation;
    /// `None` when the link has no rewindable group.
    checkpoint: Option<FifoCheckpoint>,
    members: Vec<TrainMember>,
    /// Scheduled downstream event time of each member (its next-hop head
    /// arrival or destination completion). The group is splittable only
    /// while every entry is strictly in the future.
    downstream: Vec<Time>,
}

/// A packet-granularity store-and-forward network DES.
///
/// Every physical link of the topology is a FIFO queue. A message is split
/// into packets that traverse the message's dimension-ordered route hop by
/// hop, paying `packet / linkBandwidth` serialization plus the link's
/// propagation latency at each hop. Packets of concurrent messages
/// interleave on shared links, so congestion emerges naturally — unlike the
/// analytical backend, which assumes congestion-free traffic.
///
/// Routes are memoized per `(src, dst)` pair: collectives re-send along
/// identical pairs every phase step, so the dimension-ordered route search
/// runs once per pair instead of once per message.
///
/// # Example
///
/// ```
/// use astra_des::{DataSize, Time};
/// use astra_garnet::{PacketNetwork, PacketSimConfig};
/// use astra_topology::Topology;
///
/// let topo = Topology::parse("R(4)@100").unwrap();
/// let mut net = PacketNetwork::new(&topo, PacketSimConfig::fast());
/// let msg = net.send_at(Time::ZERO, 0, 2, DataSize::from_mib(1));
/// net.run_until_idle();
/// assert!(net.completion(msg).unwrap() > Time::ZERO);
/// ```
#[derive(Debug)]
pub struct PacketNetwork {
    pub(crate) graph: LinkGraph,
    pub(crate) link_queues: Vec<FifoResource>,
    queue: EventQueue<TransportEvent>,
    pub(crate) messages: Vec<MessageState>,
    pub(crate) routes: Vec<Vec<LinkId>>,
    route_ids: RouteIndex,
    pub(crate) config: PacketSimConfig,
    pub(crate) events_processed: u64,
    pub(crate) completed: Vec<Completion>,
    /// Per link: last arrival instant of the most recent train reserved on
    /// it (batched mode only) — the overlap detector behind
    /// [`PacketNetwork::train_splits`] and
    /// [`PacketNetwork::train_interleavings`].
    pub(crate) link_train_tail: Vec<Time>,
    /// Per link: the rewindable train group (batched sequential mode only).
    link_groups: Vec<LinkTrainGroup>,
    /// Arrival profiles of the scheduled [`TransportEvent::Train`] events,
    /// indexed by [`TrainEvent::slot`]. A slot is taken when its event is
    /// scheduled and returned to `free_train_slots` when the event pops,
    /// live or stale, so the slab holds one entry per queued train event.
    train_slots: Vec<TrainProfile>,
    free_train_slots: Vec<u32>,
    pub(crate) train_interleavings: u64,
    train_splits: u64,
    /// Domain-partitioned executor; present iff the config selects
    /// [`SimMode::Parallel`] and the topology admits a positive lookahead.
    pub(crate) parallel: Option<ParallelCore>,
    /// Failed links (fault injection): excluded from routing; empty for a
    /// pristine fabric. Bandwidth/latency degradations live in `graph`.
    dead_links: BTreeSet<LinkId>,
}

impl PacketNetwork {
    /// Builds the packet simulator for `topo`.
    pub fn new(topo: &Topology, config: PacketSimConfig) -> Self {
        Self::from_graph(LinkGraph::new(topo), BTreeSet::new(), config)
    }

    /// Builds the packet simulator with a fault schedule applied: packets
    /// traverse the degraded links (reduced bandwidth, stretched latency)
    /// and routes are re-derived around dead links. An empty (or
    /// fabric-free) schedule is bit-identical to [`PacketNetwork::new`].
    ///
    /// The caller must have verified the live fabric is still connected
    /// (see [`FaultedGraph::unreachable_pair`]); routing a disconnected
    /// pair panics.
    ///
    /// # Errors
    ///
    /// Returns the schedule's first [`FaultError`] if it does not fit the
    /// topology.
    pub fn with_faults(
        topo: &Topology,
        config: PacketSimConfig,
        schedule: &FaultSchedule,
    ) -> Result<Self, FaultError> {
        if !schedule.has_fabric_faults() {
            schedule.validate(topo)?;
            return Ok(Self::new(topo, config));
        }
        let (graph, dead) = FaultedGraph::new(topo, schedule)?.into_parts();
        Ok(Self::from_graph(graph, dead, config))
    }

    fn from_graph(graph: LinkGraph, dead_links: BTreeSet<LinkId>, config: PacketSimConfig) -> Self {
        let link_queues = (0..graph.num_links())
            .map(|_| FifoResource::new())
            .collect();
        let num_links = graph.num_links();
        let parallel = match config.sim_mode {
            SimMode::Sequential => None,
            SimMode::Parallel { .. } => ParallelCore::for_graph(&graph),
        };
        PacketNetwork {
            graph,
            link_queues,
            queue: EventQueue::with_backend(config.queue_backend),
            messages: Vec::new(),
            routes: Vec::new(),
            route_ids: RouteIndex::new(),
            config,
            events_processed: 0,
            completed: Vec::new(),
            link_train_tail: vec![Time::ZERO; num_links],
            link_groups: vec![LinkTrainGroup::default(); num_links],
            train_slots: Vec::new(),
            free_train_slots: Vec::new(),
            train_interleavings: 0,
            train_splits: 0,
            parallel,
            dead_links,
        }
    }

    /// The expanded link graph being simulated.
    pub fn graph(&self) -> &LinkGraph {
        &self.graph
    }

    /// The simulator configuration.
    pub fn config(&self) -> &PacketSimConfig {
        &self.config
    }

    /// Total transport events processed so far — packet-hops in per-packet
    /// mode, train-hops plus completions in batched mode (the quantity that
    /// makes fine-granularity simulation expensive).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Distinct `(src, dst)` routes resolved and memoized so far.
    pub fn routes_cached(&self) -> usize {
        self.route_ids.len()
    }

    /// Batched-mode train splits: overlapping trains whose reservations
    /// were rewound and replayed as a merged per-packet FIFO sequence,
    /// keeping batched mode **bit-identical** to per-packet transport (see
    /// the regression test `batched_interleaving_is_counted_and_bounded`).
    /// Each count marks one such merge. Always zero in per-packet mode.
    pub fn train_splits(&self) -> u64 {
        self.train_splits
    }

    /// Batched-mode train serializations that per-packet mode would have
    /// interleaved *and* that could no longer be split: the resident
    /// train's downstream events had already fired, so its reservation was
    /// not rewindable and the overlapping train was serialized behind it.
    /// Each count marks one message whose completion may diverge from
    /// per-packet ground truth — by at most the other train's service
    /// time, since the link serves whole trains in head-arrival order and
    /// stays work-conserving. The parallel core (see [`SimMode`]) always
    /// serializes overlapping trains (a split would rewind effects across
    /// domain boundaries), so it counts here, never under
    /// [`PacketNetwork::train_splits`]. Always zero in per-packet mode.
    pub fn train_interleavings(&self) -> u64 {
        self.train_interleavings
    }

    /// Current simulation time (the last processed event's time).
    pub fn now(&self) -> Time {
        match &self.parallel {
            Some(core) => core.clock(),
            None => self.queue.now(),
        }
    }

    /// Resolves (or reuses) the memoized route for a pair.
    fn route_index(&mut self, src: NpuId, dst: NpuId) -> usize {
        if let Some(idx) = self.route_ids.get(src, dst) {
            return idx;
        }
        let idx = self.routes.len();
        let route = if self.dead_links.is_empty() {
            self.graph.route(src, dst)
        } else {
            route_avoiding(&self.graph, src, dst, &self.dead_links)
                // astra-lint: allow(panic, callers reject disconnected fault schedules before building backends)
                .expect("fault-aware route exists")
        };
        self.routes.push(route);
        self.route_ids.insert(src, dst, idx);
        if let Some(core) = self.parallel.as_mut() {
            core.register_route(&self.routes[idx]);
        }
        idx
    }

    /// Injects a message at time `at`. Packets start queueing on the first
    /// link of the route immediately.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current simulation time (the event
    /// queue rejects scheduling in the past) or either NPU id is out of
    /// range.
    pub fn send_at(&mut self, at: Time, src: NpuId, dst: NpuId, size: DataSize) -> MessageId {
        let id = MessageId(self.messages.len());
        let route = self.route_index(src, dst);
        if self.routes[route].is_empty() || size == DataSize::ZERO {
            self.messages.push(MessageState {
                route,
                packet_bytes: DataSize::ZERO,
                tail_bytes: DataSize::ZERO,
                packets_remaining: 0,
                gen: 0,
                finish: Some(at),
                tracked: false,
            });
            return id;
        }
        let pkt = self.config.packet_size.as_bytes().max(1);
        let full_packets = size.as_bytes() / pkt;
        let tail = size.as_bytes() % pkt;
        let count = full_packets + u64::from(tail > 0);
        self.messages.push(MessageState {
            route,
            packet_bytes: DataSize::from_bytes(pkt),
            tail_bytes: DataSize::from_bytes(if tail > 0 { tail } else { pkt }),
            packets_remaining: count,
            gen: 0,
            finish: None,
            tracked: false,
        });
        if let Some(core) = self.parallel.as_mut() {
            // Parallel core: the send is staged and enters the partitioned
            // lanes (in stable time order) when the simulation advances.
            core.stage_send(
                at,
                id,
                route,
                self.config.transport,
                count,
                DataSize::from_bytes(pkt),
                DataSize::from_bytes(if tail > 0 { tail } else { pkt }),
            );
            return id;
        }
        match self.config.transport {
            TransportMode::PerPacket => {
                // Enter packets onto the first link in order; FIFO per link.
                for i in 0..count {
                    let bytes = if i == count - 1 && tail > 0 {
                        DataSize::from_bytes(tail)
                    } else {
                        DataSize::from_bytes(pkt)
                    };
                    self.start_hop(
                        at,
                        PacketEvent {
                            message: id,
                            hop: 0,
                            bytes,
                        },
                    );
                }
            }
            TransportMode::Batched => {
                // The whole train queues on the first link at once — the
                // same eager acquisition the per-packet loop above performs.
                self.advance_train(id, 0, TrainProfile::simultaneous(count, at), true);
            }
        }
        id
    }

    // frozen-ref: 676562342dc72c66
    fn start_hop(&mut self, ready: Time, event: PacketEvent) {
        let link_id = self.routes[self.messages[event.message.0].route][event.hop];
        let props = self.graph.link(link_id);
        let service = props.bandwidth.transfer_time(event.bytes);
        let reservation = self.link_queues[link_id.0].acquire(ready, service);
        self.queue.schedule_at(
            reservation.end + props.latency,
            TransportEvent::Packet(event),
        );
    }

    /// Routes a train arriving at the head of `route[hop]` (batched mode).
    ///
    /// Contiguous trains take the closed-form path ([`Self::reserve_train`])
    /// and start a fresh rewindable group on the link. A train whose
    /// arrival window overlaps the resident group is *split-merged*: the
    /// link is rewound and the combined per-packet FIFO sequence replayed,
    /// reproducing per-packet transport bit-identically. If the resident
    /// group can no longer be rewound (a downstream event already fired),
    /// the train is serialized behind it and the divergence is counted.
    ///
    /// `from_send` marks the eager hop-0 reservation `send_at` performs at
    /// call time. Per-packet mode acquires those packets at the *call*
    /// instant, not at their ready time `at`, so arrival-time order equals
    /// acquisition order only when `at` is the current instant and no
    /// same-instant events are still pending; otherwise the reservation
    /// neither merges nor forms a rewindable group.
    fn advance_train(
        &mut self,
        message: MessageId,
        hop: usize,
        arrivals: TrainProfile,
        from_send: bool,
    ) {
        let slot = self.routes[self.messages[message.0].route][hop].0;
        let now = self.queue.now();
        if arrivals.first() < self.link_train_tail[slot] {
            // Per-packet transport would interleave this train with the
            // packets still arriving on the link.
            let send_merge_safe =
                !from_send || (arrivals.first() == now && self.queue.peek_time() != Some(now));
            let group = &self.link_groups[slot];
            let splittable = send_merge_safe
                && group.checkpoint.is_some()
                && group.downstream.iter().all(|&t| t > now);
            if splittable {
                self.train_splits += 1;
                self.split_merge_trains(message, hop, arrivals);
            } else {
                self.train_interleavings += 1;
                self.reserve_train(message, hop, arrivals, None);
            }
            return;
        }
        let checkpoint = if from_send && arrivals.first() > now {
            // Future-dated eager send: acquired now, ready later — not
            // representable in arrival-time order, so not rewindable.
            None
        } else {
            Some(self.link_queues[slot].checkpoint())
        };
        self.reserve_train(message, hop, arrivals, checkpoint);
    }

    /// Reserves one whole train on `route[hop]` in closed form and schedules
    /// its head at the next link (or its tail's arrival at the destination).
    /// With `Some(checkpoint)` (taken before the reservation) the train
    /// becomes the link's new single-member rewindable group; with `None`
    /// the link keeps no group (future overlaps serialize).
    fn reserve_train(
        &mut self,
        message: MessageId,
        hop: usize,
        arrivals: TrainProfile,
        checkpoint: Option<FifoCheckpoint>,
    ) {
        let msg = &self.messages[message.0];
        let gen = msg.gen;
        let (packet_bytes, tail_bytes) = (msg.packet_bytes, msg.tail_bytes);
        let route = &self.routes[msg.route];
        let hops = route.len();
        let link_id = route[hop];
        let props = self.graph.link(link_id);
        let service = props.bandwidth.transfer_time(packet_bytes);
        let tail_service = props.bandwidth.transfer_time(tail_bytes);
        self.link_train_tail[link_id.0] = self.link_train_tail[link_id.0].max(arrivals.last());
        let occupancy = self.link_queues[link_id.0].acquire_train(&arrivals, service, tail_service);
        let next = occupancy.completions.delayed_by(props.latency);
        let downstream = self.schedule_downstream(message, hop, hops, gen, next);
        let group = &mut self.link_groups[link_id.0];
        group.checkpoint = checkpoint;
        group.members.clear();
        group.downstream.clear();
        if checkpoint.is_some() {
            group.members.push(TrainMember {
                message,
                hop,
                arrivals,
            });
            group.downstream.push(downstream);
        }
    }

    /// Schedules a train's next event once it has left `route[hop]` with
    /// `next` as its arrival profile downstream: its head at the next link,
    /// or its tail's arrival at the destination after the last hop.
    /// Returns the scheduled instant.
    fn schedule_downstream(
        &mut self,
        message: MessageId,
        hop: usize,
        hops: usize,
        gen: u32,
        next: TrainProfile,
    ) -> Time {
        if hop + 1 < hops {
            let head = next.first();
            let slot = match self.free_train_slots.pop() {
                Some(slot) => {
                    self.train_slots[slot as usize] = next;
                    slot
                }
                None => {
                    self.train_slots.push(next);
                    (self.train_slots.len() - 1) as u32
                }
            };
            self.queue.schedule_at(
                head,
                TransportEvent::Train(TrainEvent {
                    message,
                    hop: hop + 1,
                    slot,
                    gen,
                }),
            );
            head
        } else {
            let tail = next.last();
            self.queue
                .schedule_at(tail, TransportEvent::TrainDone(message, gen));
            tail
        }
    }

    /// Splits the overlapping trains on `route[hop]` at their interleave
    /// points: rewinds the link to before the resident group's first
    /// reservation, replays the merged per-packet FIFO sequence (the new
    /// train included), and re-schedules every member's downstream event
    /// under a fresh generation. Bit-identical to per-packet transport at
    /// `O(packets)` cost for the trains involved.
    fn split_merge_trains(&mut self, message: MessageId, hop: usize, arrivals: TrainProfile) {
        let link_id = self.routes[self.messages[message.0].route][hop];
        let slot = link_id.0;
        let props = self.graph.link(link_id);
        self.link_train_tail[slot] = self.link_train_tail[slot].max(arrivals.last());
        // The group goes back into place, buffers and all, at the end.
        let mut group = std::mem::take(&mut self.link_groups[slot]);
        // astra-lint: allow(panic, the caller checked group eligibility)
        let checkpoint = group.checkpoint.expect("splittable group");
        group.members.push(TrainMember {
            message,
            hop,
            arrivals,
        });
        // Cancel every member's scheduled downstream event: the replay
        // below re-schedules them under the bumped generation.
        for member in &group.members {
            self.messages[member.message.0].gen =
                self.messages[member.message.0].gen.wrapping_add(1);
        }
        self.link_queues[slot].restore(checkpoint);
        // Merged per-packet FIFO order: sort all packet arrivals by time;
        // the stable sort keeps member (reservation) order on ties, which
        // is exactly the per-packet event tie-break (FIFO by schedule
        // order, and members reserved earlier scheduled their equal-time
        // packets earlier).
        let mut order: Vec<(Time, usize)> = Vec::new();
        for (m, member) in group.members.iter().enumerate() {
            order.extend(member.arrivals.times().map(|t| (t, m)));
        }
        order.sort_by_key(|&(t, _)| t);
        let services: Vec<(Time, Time)> = group
            .members
            .iter()
            .map(|member| {
                let msg = &self.messages[member.message.0];
                (
                    props.bandwidth.transfer_time(msg.packet_bytes),
                    props.bandwidth.transfer_time(msg.tail_bytes),
                )
            })
            .collect();
        let mut remaining: Vec<u64> = group.members.iter().map(|m| m.arrivals.count()).collect();
        let mut completions: Vec<TrainProfile> = vec![TrainProfile::empty(); group.members.len()];
        for &(t, m) in &order {
            remaining[m] -= 1;
            let service = if remaining[m] == 0 {
                services[m].1
            } else {
                services[m].0
            };
            let end = self.link_queues[slot].acquire(t, service).end;
            completions[m].append(end);
        }
        // Re-schedule each member's downstream under its new generation.
        // Replaying with *more* packets only pushes completions later, so
        // every re-scheduled time is >= its superseded one (> now).
        group.downstream.clear();
        for (m, member) in group.members.iter().enumerate() {
            let next = completions[m].delayed_by(props.latency);
            let gen = self.messages[member.message.0].gen;
            let hops = self.routes[self.messages[member.message.0].route].len();
            let t = self.schedule_downstream(member.message, member.hop, hops, gen, next);
            group.downstream.push(t);
        }
        self.link_groups[slot] = group;
    }

    fn dispatch(&mut self, now: Time, event: TransportEvent) {
        match event {
            TransportEvent::Packet(event) => {
                let msg = &self.messages[event.message.0];
                if event.hop + 1 < self.routes[msg.route].len() {
                    self.start_hop(
                        now,
                        PacketEvent {
                            hop: event.hop + 1,
                            ..event
                        },
                    );
                } else {
                    let msg = &mut self.messages[event.message.0];
                    msg.packets_remaining -= 1;
                    if msg.packets_remaining == 0 {
                        msg.finish = Some(now);
                        self.record_completion(event.message, now);
                    }
                }
            }
            TransportEvent::Train(train) => {
                let arrivals = std::mem::replace(
                    &mut self.train_slots[train.slot as usize],
                    TrainProfile::empty(),
                );
                self.free_train_slots.push(train.slot);
                if train.gen == self.messages[train.message.0].gen {
                    self.advance_train(train.message, train.hop, arrivals, false);
                }
            }
            TransportEvent::TrainDone(message, gen) => {
                if gen != self.messages[message.0].gen {
                    return;
                }
                let msg = &mut self.messages[message.0];
                msg.packets_remaining = 0;
                msg.finish = Some(now);
                self.record_completion(message, now);
            }
        }
    }

    /// Buffers an async completion callback for a tracked message.
    pub(crate) fn record_completion(&mut self, message: MessageId, finish: Time) {
        if self.messages[message.0].tracked {
            self.completed.push(Completion {
                id: AsyncMessageId(message.0 as u64),
                finish,
            });
        }
    }

    /// Runs the simulation until no events remain, returning the final
    /// simulation time.
    pub fn run_until_idle(&mut self) -> Time {
        if self.parallel.is_some() {
            return self.run_parallel(None, None);
        }
        while let Some((now, event)) = self.queue.pop() {
            self.events_processed += 1;
            self.dispatch(now, event);
        }
        self.queue.now()
    }

    /// Runs the simulation only until `id` completes, returning its finish
    /// time. Unrelated in-flight traffic keeps its pending events: the
    /// clock advances no further than the tracked message's completion.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains before the message completes (it
    /// cannot for messages injected through [`PacketNetwork::send_at`]).
    pub fn run_until_complete(&mut self, id: MessageId) -> Time {
        if self.parallel.is_some() {
            self.run_parallel(None, Some(id));
            // astra-lint: allow(panic, documented panic contract; send_at-injected messages always complete)
            return self.completion(id).expect("tracked message completes");
        }
        loop {
            if let Some(finish) = self.completion(id) {
                return finish;
            }
            let (now, event) = self
                .queue
                .pop()
                // astra-lint: allow(panic, documented panic contract; send_at-injected messages always complete)
                .expect("tracked message completes before the queue drains");
            self.events_processed += 1;
            self.dispatch(now, event);
        }
    }

    /// Completion time of a message, if it has fully arrived.
    pub fn completion(&self, id: MessageId) -> Option<Time> {
        self.messages.get(id.0).and_then(|m| m.finish)
    }
}

impl NetworkBackend for PacketNetwork {
    /// Sends a message on the live network (with whatever queue backlog
    /// exists) and simulates **only until that message completes**,
    /// returning the observed delay.
    ///
    /// The probe rides the current backlog — a congested link delays it —
    /// but it does not drain unrelated in-flight traffic as a side effect:
    /// their pending events stay queued and the simulation clock advances
    /// no further than the probe's completion. The probe's packets do
    /// occupy links, so it is a measurement *with* interference, not a
    /// counterfactual.
    fn p2p_delay(&mut self, src: NpuId, dst: NpuId, size: DataSize) -> Time {
        let start = self.now();
        let id = self.send_at(start, src, dst, size);
        self.run_until_complete(id) - start
    }

    fn name(&self) -> &'static str {
        match self.config.transport {
            TransportMode::PerPacket => "packet-level",
            TransportMode::Batched => "packet-level (batched)",
        }
    }

    /// Injects a co-resident message: its packets queue on the live links
    /// from `at` onwards and interleave with every other in-flight
    /// message, so cross-message queueing is modeled (unlike the blocking
    /// probe, which measures one message at a time).
    fn send_async(&mut self, at: Time, src: NpuId, dst: NpuId, size: DataSize) -> AsyncMessageId {
        let id = self.send_at(at, src, dst, size);
        let msg = &mut self.messages[id.0];
        msg.tracked = true;
        if let Some(finish) = msg.finish {
            // Self and empty messages complete at injection time.
            self.completed.push(Completion {
                id: AsyncMessageId(id.0 as u64),
                finish,
            });
        }
        AsyncMessageId(id.0 as u64)
    }

    /// The packet simulator cannot schedule hops in its processed past:
    /// new sends must enter at or after the internal clock.
    fn earliest_send_time(&self) -> Time {
        self.now()
    }

    fn next_event_time(&self) -> Option<Time> {
        match &self.parallel {
            Some(core) => core.next_event_time(),
            None => self.queue.peek_time(),
        }
    }

    fn advance_until(&mut self, limit: Time) {
        if self.parallel.is_some() {
            self.run_parallel(Some(limit), None);
            return;
        }
        while let Some((now, event)) = self.queue.pop_up_to(limit) {
            self.events_processed += 1;
            self.dispatch(now, event);
        }
    }

    fn drain_completions(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completed);
    }

    fn stats(&self) -> NetworkStats {
        NetworkStats {
            messages: self.messages.len() as u64,
            events: self.events_processed,
            train_serializations: self.train_interleavings,
            train_splits: self.train_splits,
            ..NetworkStats::default()
        }
    }

    /// Toggles grant recording on every link queue. The parallel core
    /// operates on these same resources (its domains own contiguous
    /// slices of `link_queues`), so the flag — and the recorded grants —
    /// carry across `SimMode`s unchanged.
    fn set_telemetry(&mut self, enabled: bool) {
        for q in &mut self.link_queues {
            q.set_recording(enabled);
        }
    }

    fn link_traces(&self) -> Vec<LinkTrace> {
        self.link_queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.recorded().is_empty())
            .map(|(link, q)| LinkTrace {
                link,
                reservations: q.recorded().to_vec(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_network::AnalyticalNetwork;

    fn topo(notation: &str) -> Topology {
        Topology::parse(notation).unwrap()
    }

    #[test]
    fn single_packet_single_hop() {
        let t = topo("R(2)@100");
        let mut net = PacketNetwork::new(&t, PacketSimConfig::fast());
        let size = DataSize::from_kib(64);
        let msg = net.send_at(Time::ZERO, 0, 1, size);
        net.run_until_idle();
        // One packet: serialization at the 100 GB/s link (one ring direction
        // on a 2-ring carries the full aggregate) + 500ns latency.
        let expected = t.dims()[0].link_bandwidth().transfer_time(size) + Time::from_ns(500);
        assert_eq!(net.completion(msg), Some(expected));
    }

    #[test]
    fn multi_packet_message_pipelines_across_hops() {
        let t = topo("R(8)@100");
        let mut net = PacketNetwork::new(&t, PacketSimConfig::fast());
        let size = DataSize::from_mib(1);
        let msg = net.send_at(Time::ZERO, 0, 2, size);
        net.run_until_idle();
        let got = net.completion(msg).unwrap();
        // Store-and-forward over 2 hops at 50 GB/s per ring direction:
        // full serialization once + one extra packet time + 2 latencies.
        let link_bw = t.dims()[0].link_bandwidth();
        let serial = link_bw.transfer_time(size);
        let pkt = link_bw.transfer_time(DataSize::from_kib(64));
        let expected = serial + pkt + Time::from_ns(1000);
        assert_eq!(got, expected);
    }

    #[test]
    fn concurrent_messages_share_a_link() {
        let t = topo("R(2)@100");
        let mut net = PacketNetwork::new(&t, PacketSimConfig::fast());
        let size = DataSize::from_mib(1);
        let a = net.send_at(Time::ZERO, 0, 1, size);
        let b = net.send_at(Time::ZERO, 0, 1, size);
        net.run_until_idle();
        let ta = net.completion(a).unwrap();
        let tb = net.completion(b).unwrap();
        // The second message finishes roughly twice as late (same link).
        assert!(tb > ta);
        assert!(tb.as_us_f64() / ta.as_us_f64() > 1.8);
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let t = topo("R(8)@100");
        let mut net = PacketNetwork::new(&t, PacketSimConfig::fast());
        let a = net.send_at(Time::ZERO, 0, 1, DataSize::from_mib(1));
        let b = net.send_at(Time::ZERO, 4, 5, DataSize::from_mib(1));
        net.run_until_idle();
        assert_eq!(net.completion(a), net.completion(b));
    }

    #[test]
    fn agrees_with_analytical_for_uncongested_p2p() {
        // §IV-C: for a single bandwidth-bound transfer the closed form and
        // the packet simulation should be close.
        let t = topo("R(4)@100_SW(2)@50");
        let mut packet = PacketNetwork::new(&t, PacketSimConfig::fast());
        let mut analytical = AnalyticalNetwork::new(t);
        let size = DataSize::from_mib(64);
        // NOTE: analytical uses aggregate dim bandwidth; a unidirectional
        // p2p through one ring link sees half of it, so compare on the
        // switch dimension where link == aggregate bandwidth.
        let got = packet.p2p_delay(0, 4, size).as_us_f64();
        let want = analytical.p2p_delay(0, 4, size).as_us_f64();
        let err = (got - want).abs() / want;
        assert!(err < 0.05, "packet {got} vs analytical {want} ({err})");
    }

    #[test]
    fn self_message_completes_instantly() {
        let t = topo("R(4)@100");
        let mut net = PacketNetwork::new(&t, PacketSimConfig::fast());
        let msg = net.send_at(Time::ZERO, 3, 3, DataSize::from_mib(1));
        assert_eq!(net.completion(msg), Some(Time::ZERO));
    }

    #[test]
    fn event_count_scales_with_packet_granularity() {
        let t = topo("R(4)@100");
        let size = DataSize::from_mib(1);
        let mut coarse = PacketNetwork::new(&t, PacketSimConfig::fast());
        coarse.send_at(Time::ZERO, 0, 1, size);
        coarse.run_until_idle();
        let mut fine = PacketNetwork::new(&t, PacketSimConfig::garnet_like());
        fine.send_at(Time::ZERO, 0, 1, size);
        fine.run_until_idle();
        assert!(fine.events_processed() > coarse.events_processed() * 100);
    }

    /// Sends the same traffic under both transports and asserts identical
    /// completions with an `O(packets)` / `O(1)` event gap per message.
    fn assert_transports_agree(
        notation: &str,
        sends: &[(usize, usize, u64)],
        pkt: PacketSimConfig,
    ) {
        let t = topo(notation);
        let mut per_packet = PacketNetwork::new(&t, pkt);
        let mut batched = PacketNetwork::new(&t, pkt.with_transport(TransportMode::Batched));
        let mut pairs = Vec::new();
        for &(src, dst, kib) in sends {
            let size = DataSize::from_kib(kib);
            pairs.push((
                per_packet.send_at(Time::ZERO, src, dst, size),
                batched.send_at(Time::ZERO, src, dst, size),
            ));
        }
        per_packet.run_until_idle();
        batched.run_until_idle();
        for &(a, b) in &pairs {
            assert_eq!(
                per_packet.completion(a),
                batched.completion(b),
                "transports diverged on {notation}"
            );
        }
        assert!(batched.events_processed() <= per_packet.events_processed());
    }

    #[test]
    fn batched_transport_matches_per_packet_single_messages() {
        // Multi-hop ring route, switch traversal, cross-dimension route
        // (bandwidths differ per dimension, exercising the paced regime),
        // and a non-multiple payload with a short tail packet.
        assert_transports_agree("R(8)@100", &[(0, 3, 1024)], PacketSimConfig::fast());
        assert_transports_agree("SW(4)@100", &[(0, 2, 257)], PacketSimConfig::garnet_like());
        assert_transports_agree(
            "R(4)@100_SW(2)@50",
            &[(0, 5, 2048)],
            PacketSimConfig::fast(),
        );
        assert_transports_agree(
            "SW(2)@25_R(4)@200",
            &[(1, 7, 999)],
            PacketSimConfig::garnet_like(),
        );
    }

    #[test]
    fn batched_transport_matches_per_packet_shared_first_link() {
        // Same-source trains serialize eagerly at send time in both modes.
        assert_transports_agree(
            "R(8)@100",
            &[(0, 2, 512), (0, 3, 512), (0, 1, 128)],
            PacketSimConfig::fast(),
        );
    }

    #[test]
    fn batched_message_costs_o_hops_events() {
        let t = topo("R(8)@100");
        let mut net = PacketNetwork::new(
            &t,
            PacketSimConfig::garnet_like().with_transport(TransportMode::Batched),
        );
        net.send_at(Time::ZERO, 0, 3, DataSize::from_mib(4)); // 3 hops, 16 Ki packets
        net.run_until_idle();
        // 2 train-hop events (hops 1..3) + 1 completion event.
        assert_eq!(net.events_processed(), 3);
    }

    #[test]
    fn routes_are_memoized_across_sends() {
        let t = topo("R(8)@100");
        let mut net = PacketNetwork::new(&t, PacketSimConfig::fast());
        for _ in 0..5 {
            net.send_at(net.now(), 0, 2, DataSize::from_kib(64));
            net.run_until_idle();
        }
        net.send_at(net.now(), 2, 0, DataSize::from_kib(64));
        net.run_until_idle();
        assert_eq!(net.routes_cached(), 2);
    }

    /// Regression for the probe semantics: `p2p_delay` must not drain
    /// unrelated in-flight traffic to idle as a side effect.
    #[test]
    fn p2p_probe_does_not_drain_backlog() {
        let t = topo("R(8)@100");
        let mut net = PacketNetwork::new(&t, PacketSimConfig::fast());
        // A long transfer keeps links 4->5->6 busy far beyond the probe.
        let backlog = net.send_at(Time::ZERO, 4, 6, DataSize::from_mib(256));
        // Probe a disjoint path: it completes quickly...
        let probe = net.p2p_delay(0, 1, DataSize::from_kib(64));
        assert!(probe > Time::ZERO);
        // ...while the backlogged message is still in flight.
        assert_eq!(net.completion(backlog), None);
        let idle = net.run_until_idle();
        assert!(net.completion(backlog).unwrap() == idle);
    }

    /// Regression for the batched-mode interleaving fix: when two trains'
    /// arrival windows overlap on a link, per-packet transport interleaves
    /// them packet-by-packet. Batched transport used to serialize whole
    /// trains (a counted, bounded divergence); it now splits the trains at
    /// the interleave points — rewinding the link and replaying the merged
    /// per-packet FIFO sequence — so **every individual completion is
    /// bit-identical** to per-packet ground truth.
    #[test]
    fn batched_interleaving_is_counted_and_bounded() {
        // Incast through a switch: both sources' trains arrive at the
        // shared down-link paced by their (equal-rate) up-links, so the
        // arrival windows overlap from the first packet.
        let t = topo("SW(4)@100");
        let size = DataSize::from_mib(2); // 32 packets at 64 KiB
        let mut per_packet = PacketNetwork::new(&t, PacketSimConfig::fast());
        let mut batched = PacketNetwork::new(
            &t,
            PacketSimConfig::fast().with_transport(TransportMode::Batched),
        );
        let mut pairs = Vec::new();
        for &src in &[0usize, 1] {
            pairs.push((
                per_packet.send_at(Time::ZERO, src, 2, size),
                batched.send_at(Time::ZERO, src, 2, size),
            ));
        }
        per_packet.run_until_idle();
        batched.run_until_idle();
        // The overlap was detected (once, on the shared down-link) and
        // resolved by a split, not a serialization.
        assert_eq!(batched.train_splits(), 1);
        assert_eq!(batched.train_interleavings(), 0);
        assert_eq!(per_packet.train_splits(), 0);
        assert_eq!(per_packet.train_interleavings(), 0);
        // Exact equality, message by message — not just the last one.
        for &(pp, b) in &pairs {
            assert_eq!(per_packet.completion(pp), batched.completion(b));
        }
        // The counter surfaces through the backend stats.
        assert_eq!(batched.stats().train_splits, 1);
        assert_eq!(batched.stats().train_serializations, 0);
    }

    /// Three-way incast: the rewindable group re-merges on every new
    /// overlapping train, staying bit-identical to per-packet transport.
    #[test]
    fn batched_three_way_incast_splits_bit_identical() {
        let t = topo("SW(8)@150");
        let size = DataSize::from_kib(2048 + 37); // short tail packet
        let mut per_packet = PacketNetwork::new(&t, PacketSimConfig::fast());
        let mut batched = PacketNetwork::new(
            &t,
            PacketSimConfig::fast().with_transport(TransportMode::Batched),
        );
        let mut pairs = Vec::new();
        for &src in &[0usize, 1, 2] {
            pairs.push((
                per_packet.send_at(Time::ZERO, src, 5, size),
                batched.send_at(Time::ZERO, src, 5, size),
            ));
        }
        per_packet.run_until_idle();
        batched.run_until_idle();
        assert_eq!(batched.train_splits(), 2);
        assert_eq!(batched.train_interleavings(), 0);
        for &(pp, b) in &pairs {
            assert_eq!(per_packet.completion(pp), batched.completion(b));
        }
    }

    /// Contiguous trains (the collective / sequential-probe regime) never
    /// trip the interleaving counter.
    #[test]
    fn contiguous_trains_do_not_count_as_interleavings() {
        let t = topo("R(8)@100");
        let mut net = PacketNetwork::new(
            &t,
            PacketSimConfig::fast().with_transport(TransportMode::Batched),
        );
        // Same-source trains serialize eagerly at send time; a disjoint
        // route never shares a link.
        net.send_at(Time::ZERO, 0, 2, DataSize::from_mib(1));
        net.send_at(Time::ZERO, 0, 3, DataSize::from_mib(1));
        net.send_at(Time::ZERO, 4, 5, DataSize::from_mib(1));
        net.run_until_idle();
        assert_eq!(net.train_interleavings(), 0);
    }

    /// A probe sharing a backlogged link pays the queueing it finds.
    #[test]
    fn p2p_probe_pays_for_backlog_on_shared_link() {
        let t = topo("R(2)@100");
        let quiet = {
            let mut net = PacketNetwork::new(&t, PacketSimConfig::fast());
            net.p2p_delay(0, 1, DataSize::from_kib(64))
        };
        let mut net = PacketNetwork::new(&t, PacketSimConfig::fast());
        let backlog = net.send_at(Time::ZERO, 0, 1, DataSize::from_mib(16));
        let congested = net.p2p_delay(0, 1, DataSize::from_kib(64));
        assert!(
            congested > quiet * 10,
            "probe ignored backlog: {congested} vs {quiet}"
        );
        // The backlog drained first (FIFO link), so it completed too.
        assert!(net.completion(backlog).is_some());
    }

    /// Link grant traces are a pure function of config: identical across
    /// execution cores and queue backends, and recording them does not
    /// perturb message completions.
    #[test]
    fn telemetry_link_traces_are_mode_invariant() {
        let t = topo("R(8)@100");
        let run = |cfg: PacketSimConfig, record: bool| {
            let mut net = PacketNetwork::new(&t, cfg);
            net.set_telemetry(record);
            // Overlapping incast plus cross traffic so several links carry
            // queued grants.
            let msgs = [
                net.send_at(Time::ZERO, 0, 2, DataSize::from_mib(1)),
                net.send_at(Time::ZERO, 1, 2, DataSize::from_mib(1)),
                net.send_at(Time::from_us(1), 3, 2, DataSize::from_kib(256)),
                net.send_at(Time::ZERO, 4, 6, DataSize::from_mib(2)),
            ];
            net.run_until_idle();
            let finishes: Vec<_> = msgs.iter().map(|&m| net.completion(m).unwrap()).collect();
            (finishes, net.link_traces())
        };

        let (quiet_finishes, quiet_traces) = run(PacketSimConfig::fast(), false);
        assert!(quiet_traces.is_empty(), "recording must be off by default");

        let (base_finishes, base_traces) = run(PacketSimConfig::fast(), true);
        assert_eq!(
            base_finishes, quiet_finishes,
            "recording changed simulated behavior"
        );
        assert!(!base_traces.is_empty());

        for threads in [1usize, 2, 8] {
            for backend in [QueueBackend::BinaryHeap, QueueBackend::Calendar] {
                let cfg = PacketSimConfig::fast()
                    .with_sim_mode(SimMode::Parallel { threads })
                    .with_queue_backend(backend);
                let (finishes, traces) = run(cfg, true);
                assert_eq!(finishes, base_finishes, "{threads} threads, {backend:?}");
                assert_eq!(traces, base_traces, "{threads} threads, {backend:?}");
            }
        }
    }
}
