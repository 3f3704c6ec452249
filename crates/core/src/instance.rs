//! The Yoda instance: the L7 packet driver (paper §4.1–4.2, §6).
//!
//! A Yoda instance is **not** a proxy. It has no TCP sockets. It crafts
//! and rewrites raw segments, in two phases per flow:
//!
//! * **Connection phase** (Figure 3): answer the client SYN with a
//!   deterministic SYN-ACK (after persisting the SYN header — storage-a),
//!   buffer the HTTP header, select the backend via the rules engine, open
//!   the backend connection *reusing the client's ISN and port* with the
//!   VIP as source, persist the full flow state when the backend SYN-ACK
//!   arrives (storage-b), then forward the request.
//! * **Tunneling phase** (Figure 4): rewrite addresses/ports and translate
//!   sequence numbers by the constant `Y − S` on every subsequent packet.
//!   No payload processing, no congestion control — "leave congestion
//!   control to the client and server".
//!
//! Failure recovery (Figure 5): a packet for an unknown flow triggers a
//! TCPStore lookup; a full [`FlowRecord`] re-creates the tunnel, a bare
//! [`SynRecord`] re-enters the connection phase from the retransmitted
//! header, and a total miss drops the packet.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bytes::{Bytes, BytesMut};
use yoda_balance::{ProbeReply, ProbeRequest, Prober, Signal, PROBE_PORT, PROBE_TIMEOUT};
use yoda_http::{parse_request, HttpRequest, TLS_HELLO};
use yoda_netsim::hash::hash_pair;
use yoda_netsim::{
    Addr, Ctx, Endpoint, Histogram, Node, Packet, ServiceQueue, SimTime, TimerToken, PROTO_CTRL,
    PROTO_IPIP, PROTO_PING, PROTO_PROBE, PROTO_RPC,
};
use yoda_tcp::{Flags, Segment, SeqNum, MSS};
use yoda_tcpstore::{StoreClient, StoreEvent, StoreOp, StoreOutcome, OP_TIMEOUT};

use yoda_l4lb::CtrlMsg as MuxCtrl;

use crate::ctrl::{InstanceCtrl, CTRL_PORT};
use crate::flowstate::{FlowRecord, SynRecord};
use crate::isn::syn_ack_isn;
use crate::rules::{RuleTable, SelectCtx};

/// Timer kind for periodic garbage collection.
const GC_KIND: u32 = 0x6C;
/// Heal-probe timer while the instance is in degraded mode.
const DEGRADED_PROBE_KIND: u32 = 0x6D;
/// Write-behind records in flight at once while draining after a heal.
/// The drain is completion-clocked — the next record goes out when one
/// lands — so the replay rate adapts to whatever the recovering store
/// can actually sustain instead of burying it under one burst (which
/// would time out fresh flow writes and flap the instance straight back
/// into degraded mode).
const WB_DRAIN_WINDOW: usize = 2;
/// Consecutive fast heal-probe successes required before a degraded
/// instance re-arms. One probe squeaking under the op timeout between
/// queue spikes is not a healed store; two in a row (500 ms apart) is
/// cheap hysteresis against flapping at the timeout boundary.
const HEAL_AFTER_PROBES: u32 = 2;
/// Probe tick timer (`yoda-balance` driver).
const PROBE_TICK_KIND: u32 = 0x9E0;
/// Per-probe timeout timer; `token.a` carries the probe tag.
const PROBE_TIMEOUT_KIND: u32 = 0x9E1;
/// GC period.
const GC_PERIOD: SimTime = SimTime::from_secs(5);
/// How long a fully-closed flow's local entry lingers to forward final
/// ACKs (its TCPStore records are deleted immediately).
const DRAIN_LINGER: SimTime = SimTime::from_secs(2);
/// How long a recovery lookup may stay outstanding before its buffered
/// packets are discarded.
const RECOVERY_TTL: SimTime = SimTime::from_secs(5);
/// Minimum gap between splice installs for one flow. A slow-path data
/// packet on a leg the instance believes is spliced means the mux lost the
/// entry (cold restart); the throttle keeps the re-install from repeating
/// for every in-flight packet.
const SPLICE_REINSTALL: SimTime = SimTime::from_millis(10);

/// Builds the deterministic certificate blob for an SSL VIP: a 19-byte
/// header carrying the total length, padded to `len`. Determinism is what
/// lets *any* instance "resend the entire certificate" after a failure
/// without storing anything (§5.2).
pub fn make_cert(len: u32) -> Bytes {
    let len = len.max(19);
    let mut v = format!("SSLCERT:{:010}\n", len).into_bytes();
    v.resize(len as usize, b'c');
    Bytes::from(v)
}

/// Per-VIP configuration on an instance: the rule table plus SSL options.
#[derive(Debug, Clone, Default)]
pub struct VipConfig {
    /// The L7 rules.
    pub rules: RuleTable,
    /// SSL termination: certificate length served to clients.
    pub ssl_cert_len: Option<u32>,
}

/// CPU cores per instance (the paper's 8-core VM, §7.1).
const INSTANCE_CORES: usize = 8;
/// Fixed user-space pipeline latency added to every forwarded packet.
const PKT_LATENCY: SimTime = SimTime::from_micros(350);
/// Drop packets whose core backlog exceeds this (overload behaviour).
const OVERLOAD_BACKLOG: SimTime = SimTime::from_millis(250);
/// Gray-failure tolerance: this many *consecutive* store-write timeouts
/// tip the instance into degraded mode, where SYN-ACKs no longer wait on
/// store acks and writes buffer in a bounded write-behind queue until the
/// store heals. Durability is traded for availability only while the
/// store browns out.
const DEGRADED_AFTER: u32 = 3;
/// Write-behind buffer capacity while degraded. Overflow drops the
/// *oldest* record (its flow loses recoverability, not service) and
/// accounts the drop in `wb_dropped`.
pub const WRITE_BEHIND_CAP: usize = 256;
/// How often a degraded instance probes the store for recovery.
const HEAL_PROBE_INTERVAL: SimTime = SimTime::from_millis(250);

/// Instance tunables.
///
/// CPU defaults are calibrated to §7.1: the paper's (Python) instance
/// saturates at ~12K req/s and ~110K pkt/s on an 8-core VM
/// (`INSTANCE_CORES`); the fixed per-packet pipeline latency
/// (`PKT_LATENCY`) reproduces the user-space forwarding cost that makes
/// Yoda's Figure 9 "LB" component ≈8 ms over ~20 packets.
#[derive(Debug, Clone)]
pub struct YodaConfig {
    /// CPU time per forwarded packet.
    pub per_pkt_cpu: SimTime,
    /// Extra CPU time per new connection (header parse + rule scan).
    pub per_conn_cpu: SimTime,
    /// TCPStore replication factor K (paper evaluates K=2; K=1 is
    /// "default Memcached").
    pub store_replicas: usize,
    /// Inspect tunneled client payloads for new HTTP/1.1 requests and
    /// re-run rule selection (content-based switching mid-connection,
    /// §5.2).
    pub http11_inspect: bool,
    /// ABLATION KNOB — violate the paper's write-before-commit principle:
    /// send the SYN-ACK immediately and persist storage-a asynchronously.
    /// Shaves the storage round-trip off connection setup but re-opens
    /// the failure window the ordering exists to close (§4.2: "each
    /// instance stores all the packets it ACKes ... so that no state is
    /// lost on failures").
    pub optimistic_synack: bool,
    /// Probe tick period for `action=prequal` rules (probing only runs
    /// while at least one installed rule is prequal).
    pub probe_period: SimTime,
    /// Mux fast path: once a flow enters tunneling, install splice entries
    /// at its muxes so steady-state packets are translated and forwarded
    /// below the instance (XLB-style flow splicing). Flows that still need
    /// HTTP/1.1 inspection only splice the server leg.
    pub splice: bool,
}

impl Default for YodaConfig {
    fn default() -> Self {
        YodaConfig {
            per_pkt_cpu: SimTime::from_micros(16),
            per_conn_cpu: SimTime::from_micros(300),
            store_replicas: 2,
            http11_inspect: true,
            optimistic_synack: false,
            probe_period: SimTime::from_millis(10),
            splice: false,
        }
    }
}

/// Tunneling-phase per-flow state (Figure 4's translation constants).
#[derive(Debug, Clone)]
struct Tunnel {
    backend: Endpoint,
    /// `(Y + cert_len) − S`: added to server sequence numbers, subtracted
    /// from client ack numbers (cert_len is 0 for plain-HTTP VIPs).
    delta: u32,
    /// Client→server sequence-space offset (−hello_len for SSL VIPs, 0
    /// otherwise): the ClientHello bytes exist only on the client leg.
    c2s_off: u32,
    client_fin: bool,
    server_fin: bool,
    /// Set once both FINs passed; entry is dropped after the linger.
    drain_deadline: Option<SimTime>,
    /// Whether HTTP/1.1 inspection is active for this flow (disabled on
    /// recovered flows, whose stream position is unknown).
    inspect_enabled: bool,
    /// Next client-space (C) sequence number expected for inspection.
    inspect_next: SeqNum,
    /// Reassembly buffer for HTTP/1.1 request inspection.
    inspect_buf: BytesMut,
    /// Next Y-space sequence number the client expects (tracks forwarded
    /// response bytes; needed to splice a new backend in).
    client_next: SeqNum,
    /// In-progress backend switch (§5.2): SYN sent to the new backend.
    switching: Option<Box<SwitchState>>,
    /// Mirror race (§5.2): other backends still competing to answer
    /// first, with their ISNs once their SYN-ACKs arrive.
    racing: Vec<(Endpoint, Option<SeqNum>)>,
    /// The request bytes, kept while a race is live (to feed late racers).
    race_request: Option<Bytes>,
    /// Client ISN, kept while a race is live (for racer handshakes/RSTs).
    race_client_isn: SeqNum,
    /// Mux fast path: a splice entry is believed installed for the
    /// client (client→vip) leg.
    splice_client: bool,
    /// Mux fast path: a splice entry is believed installed for the
    /// server (backend→vss) leg.
    splice_server: bool,
    /// When splice installs were last sent (re-install throttle).
    splice_sent_at: SimTime,
}

#[derive(Debug, Clone)]
struct SwitchState {
    new_backend: Endpoint,
    /// C-space sequence number where the new request begins; the new
    /// backend connection's ISN is this − 1.
    request_seq: SeqNum,
    /// The buffered request bytes to forward once connected.
    request: Bytes,
}

#[derive(Debug)]
enum Phase {
    /// storage-a in flight; SYN-ACK withheld until it completes.
    StoringSyn { client_isn: SeqNum },
    /// SYN-ACK sent; collecting the HTTP request header (for SSL VIPs:
    /// the ClientHello, then the certificate exchange, then the header).
    AwaitHeader {
        client_isn: SeqNum,
        buf: BytesMut,
        /// Next expected C-space sequence number.
        next_seq: SeqNum,
        /// SSL: the ClientHello was consumed and the certificate sent.
        hello_done: bool,
    },
    /// Backend SYN sent; waiting for its SYN-ACK. `mirrors` carries the
    /// extra race targets of a mirror action (§5.2), which also received
    /// SYNs.
    Connecting {
        client_isn: SeqNum,
        backend: Endpoint,
        mirrors: Vec<Endpoint>,
        header: Bytes,
        syn_sent_at: SimTime,
    },
    /// storage-b in flight; backend ACK + request withheld.
    StoringFlow {
        record: FlowRecord,
        header: Bytes,
        pending_sets: u8,
        racing: Vec<Endpoint>,
        /// Racer SYN-ACKs that arrived while storage-b was in flight.
        racer_isns: Vec<(Endpoint, SeqNum)>,
    },
    /// Steady state: pure header rewriting.
    Tunneling(Tunnel),
}

struct FlowEntry {
    client: Endpoint,
    vip: Endpoint,
    phase: Phase,
    created: SimTime,
}

struct RecoverEntry {
    buffered: Vec<Packet>,
    outstanding: u8,
    syn_hit: Option<SynRecord>,
    flow_hit: Option<FlowRecord>,
    created: SimTime,
}

enum PendingOp {
    SynStored { flow: (Endpoint, Endpoint) },
    FlowStored { flow: (Endpoint, Endpoint) },
    Recover { key: (Endpoint, Endpoint) },
    SwitchStored,
    HealProbe,
    /// A write-behind record replayed after a heal; completion pulls the
    /// next record into the drain window.
    Drain,
    Fire,
}

/// A write deferred in the write-behind buffer while the store browns
/// out (degraded mode).
#[derive(Debug)]
enum WbOp {
    Set(Bytes, Bytes),
    Delete(Bytes),
}

/// A Yoda L7 LB instance node.
pub struct YodaInstance {
    addr: Addr,
    cfg: YodaConfig,
    muxes: Vec<Addr>,
    vips: BTreeMap<Endpoint, VipConfig>,
    /// Controller version of the last install/remove applied per VIP,
    /// kept after a removal so a late install cannot resurrect the VIP.
    vip_versions: BTreeMap<Endpoint, u64>,
    select_ctx: SelectCtx,
    prober: Prober,
    store: StoreClient,
    cpu: ServiceQueue,
    flows: BTreeMap<(Endpoint, Endpoint), FlowEntry>,
    /// (backend, vip-server-side) → client flow key.
    rflows: BTreeMap<(Endpoint, Endpoint), (Endpoint, Endpoint)>,
    /// (src, dst) of packets awaiting a recovery lookup.
    recovering: BTreeMap<(Endpoint, Endpoint), RecoverEntry>,
    pending: BTreeMap<u64, PendingOp>,
    next_tag: u64,
    /// Requests served (header parsed + backend selected).
    pub requests: u64,
    /// Cumulative per-VIP request counters.
    pub per_vip_requests: BTreeMap<Endpoint, u64>,
    /// Per-VIP request counters since the last stats poll (drained by the
    /// controller's StatsRequest).
    per_vip_window: BTreeMap<Endpoint, u64>,
    /// Flows recovered from TCPStore after another instance's failure.
    pub recoveries: u64,
    /// Packets forwarded in the tunneling phase.
    pub tunneled_packets: u64,
    /// Packets dropped due to CPU overload.
    pub dropped_overload: u64,
    /// Packets dropped for lack of any matching state or rules.
    pub dropped_unknown: u64,
    /// Backend-connection establishment latency (SYN→SYN-ACK), ms.
    pub conn_latency: Histogram,
    /// Critical-path storage latency per request (storage-a + storage-b), ms.
    pub storage_latency: Histogram,
    /// HTTP/1.1 mid-connection backend switches performed.
    pub backend_switches: u64,
    /// Splice install rounds sent to the muxes (fast-path handoffs,
    /// including re-installs after a mux failover).
    pub splices_installed: u64,
    /// Degraded mode (store brownout): SYN-ACKs no longer wait on store
    /// acks; writes buffer in `write_behind`.
    degraded: bool,
    /// Consecutive store-write timeouts (any write success resets).
    consec_write_timeouts: u32,
    /// Writes deferred while degraded, replayed on heal (bounded).
    write_behind: VecDeque<WbOp>,
    /// A heal-probe timer chain is currently armed.
    heal_probe_armed: bool,
    /// Consecutive fast heal-probe successes (heal hysteresis).
    fast_probes: u32,
    /// Write-behind records currently in flight to the store (drain).
    drain_inflight: usize,
    /// Times the instance entered degraded mode.
    pub degraded_entries: u64,
    /// Write-behind records enqueued while degraded.
    pub wb_enqueued: u64,
    /// Write-behind records dropped on overflow (oldest first).
    pub wb_dropped: u64,
    /// Write-behind records replayed to the store after a heal.
    pub wb_drained: u64,
    /// Recovery lookups shed while degraded (the packet is dropped
    /// instead of stalling on a browning store).
    pub shed_reads: u64,
}

impl YodaInstance {
    /// Creates an instance bound to `addr`, using `store_servers` for
    /// TCPStore and `muxes` for SNAT egress.
    pub fn new(cfg: YodaConfig, addr: Addr, store_servers: &[Addr], muxes: Vec<Addr>) -> Self {
        let store = StoreClient::new(cfg.store_replicas, Endpoint::new(addr, 9999), store_servers);
        YodaInstance {
            addr,
            cfg,
            muxes,
            vips: BTreeMap::new(),
            vip_versions: BTreeMap::new(),
            select_ctx: SelectCtx::default(),
            prober: Prober::default(),
            store,
            cpu: ServiceQueue::new(INSTANCE_CORES),
            flows: BTreeMap::new(),
            rflows: BTreeMap::new(),
            recovering: BTreeMap::new(),
            pending: BTreeMap::new(),
            next_tag: 1,
            requests: 0,
            per_vip_requests: BTreeMap::new(),
            per_vip_window: BTreeMap::new(),
            recoveries: 0,
            tunneled_packets: 0,
            dropped_overload: 0,
            dropped_unknown: 0,
            conn_latency: Histogram::new(),
            storage_latency: Histogram::new(),
            backend_switches: 0,
            splices_installed: 0,
            degraded: false,
            consec_write_timeouts: 0,
            write_behind: VecDeque::new(),
            heal_probe_armed: false,
            fast_probes: 0,
            drain_inflight: 0,
            degraded_entries: 0,
            wb_enqueued: 0,
            wb_dropped: 0,
            wb_drained: 0,
            shed_reads: 0,
        }
    }

    /// Installs (replaces) the rule table for a VIP (plain HTTP).
    pub fn install_vip(&mut self, vip: Endpoint, rules: RuleTable) {
        self.install_vip_cfg(
            vip,
            VipConfig {
                rules,
                ssl_cert_len: None,
            },
        );
    }

    /// Installs a VIP with full options (rules + SSL).
    pub fn install_vip_cfg(&mut self, vip: Endpoint, cfg: VipConfig) {
        self.vips.insert(vip, cfg);
    }

    /// Read-only access to the probe bookkeeping (tests, benches).
    pub fn prober(&self) -> &Prober {
        &self.prober
    }

    /// Canonical text of every installed VIP rule table, keyed by VIP —
    /// the convergence fingerprint chaos invariants compare across live
    /// instances and against the controller.
    pub fn vip_rules_text(&self) -> BTreeMap<Endpoint, String> {
        self.vips
            .iter()
            .map(|(vip, cfg)| (*vip, cfg.rules.to_text()))
            .collect()
    }

    /// Removes a VIP's rules (existing flows keep tunneling).
    pub fn remove_vip(&mut self, vip: Endpoint) {
        self.vips.remove(&vip);
    }

    /// Live flows currently tracked.
    pub fn live_flows(&self) -> usize {
        self.flows.len()
    }

    /// CPU utilisation since the last window reset.
    pub fn cpu_utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(now)
    }

    /// Resets the CPU measurement window.
    pub fn reset_cpu_window(&mut self, now: SimTime) {
        self.cpu.reset_window(now);
    }

    /// Access to the embedded store client (for latency stats).
    pub fn store_client(&self) -> &StoreClient {
        &self.store
    }

    /// Mutable access to the embedded store client.
    pub fn store_client_mut(&mut self) -> &mut StoreClient {
        &mut self.store
    }

    /// Whether the instance is currently in degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Records currently queued in the write-behind buffer.
    pub fn write_behind_len(&self) -> usize {
        self.write_behind.len()
    }

    // ------------------------------------------------------------------
    // Degraded mode (gray store failure tolerance)
    // ------------------------------------------------------------------

    /// Pushes a deferred write, dropping the oldest record past the cap.
    /// Conservation: `wb_enqueued == wb_drained + wb_dropped + len`.
    fn wb_push(&mut self, op: WbOp) {
        if self.write_behind.len() >= WRITE_BEHIND_CAP {
            self.write_behind.pop_front();
            self.wb_dropped += 1;
        }
        self.write_behind.push_back(op);
        self.wb_enqueued += 1;
    }

    /// Routes a fire-and-forget set: straight to the store when healthy,
    /// into the write-behind buffer while degraded.
    fn bg_set(&mut self, ctx: &mut Ctx<'_>, key: Bytes, value: Bytes) {
        if self.degraded {
            self.wb_push(WbOp::Set(key, value));
        } else {
            let tag = self.tag(PendingOp::Fire);
            self.store.set(ctx, key, value, tag);
        }
    }

    /// Routes a fire-and-forget delete (see [`Self::bg_set`]).
    fn bg_delete(&mut self, ctx: &mut Ctx<'_>, key: Bytes) {
        if self.degraded {
            self.wb_push(WbOp::Delete(key));
        } else {
            let tag = self.tag(PendingOp::Fire);
            self.store.delete(ctx, key, tag);
        }
    }

    /// Routes a backend-switch record set (completion is a no-op either
    /// way, but the store write must not block the switch while degraded).
    fn switch_set(&mut self, ctx: &mut Ctx<'_>, key: Bytes, value: Bytes) {
        if self.degraded {
            self.wb_push(WbOp::Set(key, value));
        } else {
            let tag = self.tag(PendingOp::SwitchStored);
            self.store.set(ctx, key, value, tag);
        }
    }

    /// Counts a store-write timeout; `DEGRADED_AFTER` consecutive ones
    /// tip the instance into degraded mode. The paper's write-before-
    /// commit ordering (§4.2) trades latency for recoverability; under a
    /// store brownout the instance flips that trade so new connections
    /// keep succeeding.
    fn note_write_timeout(&mut self, ctx: &mut Ctx<'_>) {
        self.consec_write_timeouts += 1;
        if !self.degraded && self.consec_write_timeouts >= DEGRADED_AFTER {
            self.degraded = true;
            self.degraded_entries += 1;
            ctx.trace_note(format!(
                "entering degraded mode after {} consecutive store-write timeouts",
                self.consec_write_timeouts
            ));
            if !self.heal_probe_armed {
                self.heal_probe_armed = true;
                ctx.set_timer(HEAL_PROBE_INTERVAL, TimerToken::new(DEGRADED_PROBE_KIND));
            }
        }
    }

    /// A store write completed (any outcome but timeout): resets the
    /// timeout streak. Deliberately does NOT exit degraded mode — a write
    /// issued before the brownout can still limp home through retries and
    /// late acks, and healing on such a straggler flaps the instance in
    /// and out of degraded mode (each re-entry blocks `DEGRADED_AFTER`
    /// more SYN-ACKs on a store that is still slow). Only a fast heal
    /// probe heals ([`Self::heal`]).
    fn note_write_ok(&mut self) {
        self.consec_write_timeouts = 0;
    }

    /// Exits degraded mode and starts replaying the write-behind buffer.
    /// New flows resume the normal write-before-commit ordering at once;
    /// the buffered records trickle out completion-clocked (see
    /// [`WB_DRAIN_WINDOW`]).
    fn heal(&mut self, ctx: &mut Ctx<'_>) {
        self.degraded = false;
        ctx.trace_note(format!(
            "store healed: draining {} write-behind records",
            self.write_behind.len()
        ));
        self.drain_step(ctx);
    }

    /// Tops the drain window back up to [`WB_DRAIN_WINDOW`] records in
    /// flight. Pauses while degraded (a re-brownout mid-drain keeps the
    /// rest of the buffer for the next heal).
    fn drain_step(&mut self, ctx: &mut Ctx<'_>) {
        if self.degraded {
            return;
        }
        while self.drain_inflight < WB_DRAIN_WINDOW {
            let Some(op) = self.write_behind.pop_front() else {
                break;
            };
            self.wb_drained += 1;
            self.drain_inflight += 1;
            let tag = self.tag(PendingOp::Drain);
            match op {
                WbOp::Set(k, v) => self.store.set(ctx, k, v, tag),
                WbOp::Delete(k) => self.store.delete(ctx, k, tag),
            }
        }
    }

    /// Degraded-mode heal probe: a tiny periodic write is the only store
    /// traffic the instance originates while degraded. The probe heals
    /// the instance ([`Self::heal`]) only when it completes within one
    /// op-timeout window — success-by-retry or a late ack means the
    /// store is still browning and the write-before-commit path would
    /// stall on it.
    fn heal_probe(&mut self, ctx: &mut Ctx<'_>) {
        self.heal_probe_armed = false;
        if !self.degraded {
            return;
        }
        let tag = self.tag(PendingOp::HealProbe);
        let key = Bytes::from(format!("hprobe:{}", self.addr));
        self.store.set(ctx, key, Bytes::from_static(b"hp"), tag);
        self.heal_probe_armed = true;
        ctx.set_timer(HEAL_PROBE_INTERVAL, TimerToken::new(DEGRADED_PROBE_KIND));
    }

    fn tag(&mut self, op: PendingOp) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        self.pending.insert(t, op);
        t
    }

    /// Picks the mux for a server-side flow (must agree with the edge
    /// router's choice so return traffic hits the same mux).
    fn mux_for(&self, a: Endpoint, b: Endpoint) -> Option<Addr> {
        yoda_l4lb::rendezvous_pick(a, b, &self.muxes)
    }

    /// Sends a crafted segment from `src` to `dst`, after the modelled
    /// processing delay. Server-bound VIP-sourced packets tunnel through a
    /// mux (SNAT path); everything else goes natively (DSR to clients).
    fn emit(&mut self, ctx: &mut Ctx<'_>, delay: SimTime, seg: Segment, src: Endpoint, dst: Endpoint) {
        let pkt = seg.into_packet(src, dst);
        if src.addr.is_vip() && !dst.addr.is_vip() && dst.port != 0 && self.is_backendish(dst) {
            if let Some(mux) = self.mux_for(src, dst) {
                let outer = pkt.encapsulate(self.addr, mux);
                ctx.send_after(delay, outer);
                return;
            }
        }
        ctx.send_after(delay, pkt);
    }

    /// Heuristic: server-bound packets go via mux; client-bound go direct.
    /// Backends live in DC address space (10.x), clients outside it.
    fn is_backendish(&self, ep: Endpoint) -> bool {
        matches!(ep.addr.octets(), [10, ..])
    }

    /// Sends a splice control message to the mux owning the `(a, b)` leg —
    /// the same rendezvous choice the edge router makes for that leg, so
    /// the entry lands on the mux the packets actually traverse.
    fn send_splice(&mut self, ctx: &mut Ctx<'_>, a: Endpoint, b: Endpoint, msg: MuxCtrl) {
        if let Some(mux) = self.mux_for(a, b) {
            let me = Endpoint::new(self.addr, yoda_l4lb::CTRL_PORT);
            ctx.send(msg.into_packet(me, mux));
        }
    }

    /// Installs (or refreshes) the flow's splice entries. The server
    /// (backend→vss) leg always splices; the client (client→vip) leg only
    /// when HTTP/1.1 inspection is off — otherwise the instance must keep
    /// seeing request bytes to re-run rule selection. No-op while a mirror
    /// race or backend switch is in flight, or once teardown started.
    fn install_splices(&mut self, ctx: &mut Ctx<'_>, key: (Endpoint, Endpoint)) {
        if !self.cfg.splice {
            return;
        }
        let (client, vip) = key;
        let vss = Endpoint::new(vip.addr, client.port);
        let Some(entry) = self.flows.get_mut(&key) else {
            return;
        };
        let Phase::Tunneling(t) = &mut entry.phase else {
            return;
        };
        if !t.racing.is_empty()
            || t.switching.is_some()
            || t.drain_deadline.is_some()
            || t.client_fin
            || t.server_fin
        {
            return;
        }
        let backend = t.backend;
        let delta = t.delta;
        let c2s_off = t.c2s_off;
        let client_leg = !t.inspect_enabled;
        t.splice_server = true;
        t.splice_client = client_leg;
        t.splice_sent_at = ctx.now();
        self.splices_installed += 1;
        self.send_splice(
            ctx,
            backend,
            vss,
            MuxCtrl::SpliceInstall {
                from: backend,
                to: vss,
                new_src: vip,
                new_dst: client,
                seq_add: delta,
                ack_add: c2s_off.wrapping_neg(),
            },
        );
        if client_leg {
            self.send_splice(
                ctx,
                client,
                vip,
                MuxCtrl::SpliceInstall {
                    from: client,
                    to: vip,
                    new_src: vss,
                    new_dst: backend,
                    seq_add: c2s_off,
                    ack_add: delta.wrapping_neg(),
                },
            );
        }
    }

    /// Revokes both legs' splice entries (teardown or backend death).
    /// Redundant removes are harmless — mux-side removal is idempotent.
    fn remove_splices(
        &mut self,
        ctx: &mut Ctx<'_>,
        client: Endpoint,
        vip: Endpoint,
        backend: Endpoint,
    ) {
        if !self.cfg.splice {
            return;
        }
        let vss = Endpoint::new(vip.addr, client.port);
        self.send_splice(
            ctx,
            client,
            vip,
            MuxCtrl::SpliceRemove {
                from: client,
                to: vip,
            },
        );
        self.send_splice(
            ctx,
            backend,
            vss,
            MuxCtrl::SpliceRemove {
                from: backend,
                to: vss,
            },
        );
    }

    /// Charges CPU for one packet; returns the total processing delay, or
    /// `None` if the instance is overloaded and drops the packet.
    fn charge_packet(&mut self, now: SimTime, affinity: u64, extra: SimTime) -> Option<SimTime> {
        if self.cpu.would_exceed(now, affinity, OVERLOAD_BACKLOG) {
            self.dropped_overload += 1;
            return None;
        }
        let done = self.cpu.submit(now, self.cfg.per_pkt_cpu + extra, affinity);
        Some(PKT_LATENCY + done.saturating_sub(now))
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    fn handle_inner(&mut self, ctx: &mut Ctx<'_>, inner: Packet) {
        let Some(seg) = Segment::from_packet(&inner) else {
            self.dropped_unknown += 1;
            return;
        };
        let affinity = hash_pair(
            7,
            inner.src.addr.as_u32() as u64,
            ((inner.src.port as u64) << 16) | inner.dst.port as u64,
        );
        // Client-side flows are keyed (client, vip); server-side packets
        // resolve through the reverse map.
        let as_client_key = (inner.src, inner.dst);
        if self.flows.contains_key(&as_client_key) {
            let Some(delay) = self.charge_packet(ctx.now(), affinity, SimTime::ZERO) else {
                return;
            };
            self.client_packet(ctx, delay, as_client_key, seg);
            return;
        }
        if let Some(&flow_key) = self.rflows.get(&(inner.src, inner.dst)) {
            let Some(delay) = self.charge_packet(ctx.now(), affinity, SimTime::ZERO) else {
                return;
            };
            self.server_packet(ctx, delay, flow_key, (inner.src, inner.dst), seg);
            return;
        }
        // Fresh SYN to a VIP service endpoint: new connection.
        if seg.flags.syn && !seg.flags.ack && self.vips.contains_key(&inner.dst) {
            let Some(delay) = self.charge_packet(ctx.now(), affinity, self.cfg.per_conn_cpu)
            else {
                return;
            };
            self.new_connection(ctx, delay, inner.src, inner.dst, seg);
            return;
        }
        // Unknown flow: recovery path (another instance's flow, Fig. 5).
        let Some(_) = self.charge_packet(ctx.now(), affinity, SimTime::ZERO) else {
            return;
        };
        self.start_recovery(ctx, inner);
    }

    /// Figure 3 step 1: persist the SYN header (storage-a), defer SYN-ACK.
    fn new_connection(
        &mut self,
        ctx: &mut Ctx<'_>,
        _delay: SimTime,
        client: Endpoint,
        vip: Endpoint,
        seg: Segment,
    ) {
        let record = SynRecord {
            client,
            vip,
            client_isn: seg.seq,
        };
        let key = SynRecord::key(client, vip);
        if self.cfg.optimistic_synack || self.degraded {
            // Ablation mode — or degraded mode under a store brownout:
            // answer first, persist in the background (write-behind while
            // degraded). A crash between the two loses the flow.
            self.bg_set(ctx, key, record.encode());
            self.flows.insert(
                (client, vip),
                FlowEntry {
                    client,
                    vip,
                    phase: Phase::AwaitHeader {
                        client_isn: seg.seq,
                        buf: BytesMut::new(),
                        next_seq: seg.seq + 1,
                        hello_done: false,
                    },
                    created: ctx.now(),
                },
            );
            let synack = Segment {
                src_port: vip.port,
                dst_port: client.port,
                seq: syn_ack_isn(client, vip),
                ack: seg.seq + 1,
                flags: Flags::SYN_ACK,
                window: 1 << 20,
                payload: Bytes::new(),
            };
            self.emit(ctx, _delay, synack, vip, client);
            return;
        }
        let tag = self.tag(PendingOp::SynStored { flow: (client, vip) });
        self.store.set(ctx, key, record.encode(), tag);
        self.flows.insert(
            (client, vip),
            FlowEntry {
                client,
                vip,
                phase: Phase::StoringSyn {
                    client_isn: seg.seq,
                },
                created: ctx.now(),
            },
        );
    }

    /// Handles a packet on the client→VIP direction of a known flow.
    fn client_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        delay: SimTime,
        key: (Endpoint, Endpoint),
        seg: Segment,
    ) {
        let Some(entry) = self.flows.get_mut(&key) else {
            return;
        };
        let (client, vip) = (entry.client, entry.vip);
        match &mut entry.phase {
            Phase::StoringSyn { .. } => {
                // Duplicate SYN while storage-a is in flight: ignore; the
                // SYN-ACK follows once the store acks.
            }
            Phase::AwaitHeader {
                client_isn,
                buf,
                next_seq,
                hello_done,
            } => {
                if seg.flags.syn {
                    // Retransmitted SYN: regenerate the deterministic
                    // SYN-ACK (no state needed — §4.1).
                    let isn = *client_isn;
                    let synack = Segment {
                        src_port: vip.port,
                        dst_port: client.port,
                        seq: syn_ack_isn(client, vip),
                        ack: isn + 1,
                        flags: Flags::SYN_ACK,
                        window: 1 << 20,
                        payload: Bytes::new(),
                    };
                    self.emit(ctx, delay, synack, vip, client);
                    return;
                }
                // Append in-order fresh bytes to the header buffer.
                let mut stale_retransmit = false;
                if !seg.payload.is_empty() && seg.seq.le(*next_seq) {
                    let skip = (*next_seq - seg.seq) as usize;
                    match seg.payload.get(skip..) {
                        Some(fresh) if !fresh.is_empty() => {
                            buf.extend_from_slice(fresh);
                            *next_seq += fresh.len() as u32;
                        }
                        _ => stale_retransmit = true,
                    }
                }
                // SSL VIPs (§5.2): consume ClientHello(s) and answer each
                // with the full certificate — retransmitted hellos after a
                // failover get the entire certificate again ("TCP buffer
                // at the client will remove duplicate packets").
                let ssl = self.vips.get(&vip).and_then(|v| v.ssl_cert_len);
                if let Some(cert_len) = ssl {
                    let mut send_cert = false;
                    while buf.starts_with(TLS_HELLO) {
                        let _ = buf.split_to(TLS_HELLO.len());
                        *hello_done = true;
                        send_cert = true;
                    }
                    if stale_retransmit && *hello_done {
                        send_cert = true;
                    }
                    if send_cert {
                        let ack_to = *next_seq;
                        self.send_cert(ctx, delay, client, vip, cert_len, ack_to);
                        return;
                    }
                    if !*hello_done {
                        return; // Wait for the hello.
                    }
                }
                let parsed = parse_request(buf);
                if let Some((req, _used)) = parsed {
                    let header = Bytes::copy_from_slice(buf);
                    let isn = *client_isn;
                    self.select_and_connect(ctx, delay, key, isn, &req, header);
                } else if !buf.is_empty() {
                    // Multi-segment header: ACK what we have so the client
                    // keeps sending ("ACK is sent ... if needed", §4.1).
                    let ack = Segment {
                        src_port: vip.port,
                        dst_port: client.port,
                        seq: syn_ack_isn(client, vip) + 1,
                        ack: *next_seq,
                        flags: Flags::ACK,
                        window: 1 << 20,
                        payload: Bytes::new(),
                    };
                    self.emit(ctx, delay, ack, vip, client);
                }
            }
            Phase::Connecting {
                client_isn,
                backend,
                ..
            } => {
                // Client retransmits the header because nothing ACKed it
                // yet; re-kick the (primary) backend SYN in case it was
                // lost.
                let isn = *client_isn;
                let backend = *backend;
                let vss = Endpoint::new(vip.addr, client.port);
                let syn = Segment {
                    src_port: vss.port,
                    dst_port: backend.port,
                    seq: isn,
                    ack: SeqNum::new(0),
                    flags: Flags::SYN,
                    window: 1 << 20,
                    payload: Bytes::new(),
                };
                self.emit(ctx, delay, syn, vss, backend);
            }
            Phase::StoringFlow { .. } => {
                // storage-b in flight; the forwarded request will cover
                // this retransmission.
            }
            Phase::Tunneling(t) => {
                if seg.flags.syn && !seg.flags.ack {
                    if t.drain_deadline.is_some() {
                        // Port reuse: the old flow is fully closed and
                        // draining; this SYN starts a fresh connection.
                        let backend = t.backend;
                        let vss = Endpoint::new(vip.addr, client.port);
                        self.rflows.remove(&(backend, vss));
                        self.flows.remove(&key);
                        self.new_connection(ctx, delay, client, vip, seg);
                    }
                    // A SYN on a live tunnel is bogus; drop it.
                    return;
                }
                self.tunnel_client_packet(ctx, delay, key, seg);
            }
        }
    }

    /// Sends the whole deterministic certificate, chunked at the MSS,
    /// starting at `Y+1` in the client-facing sequence space. Idempotent:
    /// duplicates are discarded by the client's TCP reassembly.
    fn send_cert(
        &mut self,
        ctx: &mut Ctx<'_>,
        delay: SimTime,
        client: Endpoint,
        vip: Endpoint,
        cert_len: u32,
        ack_to: SeqNum,
    ) {
        let cert = make_cert(cert_len);
        let base = syn_ack_isn(client, vip) + 1;
        let mut offset = 0usize;
        while offset < cert.len() {
            let len = (cert.len() - offset).min(MSS);
            let seg = Segment {
                src_port: vip.port,
                dst_port: client.port,
                seq: base + offset as u32,
                ack: ack_to,
                flags: Flags::ACK,
                window: 1 << 20,
                payload: cert.slice(offset..offset + len),
            };
            self.emit(ctx, delay, seg, vip, client);
            offset += len;
        }
    }

    /// Rule matching + backend SYN (Figure 3 middle).
    fn select_and_connect(
        &mut self,
        ctx: &mut Ctx<'_>,
        delay: SimTime,
        key: (Endpoint, Endpoint),
        client_isn: SeqNum,
        req: &HttpRequest,
        header: Bytes,
    ) {
        let (client, vip) = key;
        self.select_ctx.now = ctx.now();
        let Some(vcfg) = self.vips.get_mut(&vip) else {
            self.dropped_unknown += 1;
            self.flows.remove(&key);
            return;
        };
        let Some(selection) = vcfg.rules.select_full(req, &self.select_ctx, ctx.node_rng()) else {
            // No rule matched (or all backends dead): drop the flow.
            self.dropped_unknown += 1;
            self.flows.remove(&key);
            return;
        };
        let backend = selection.primary;
        self.requests += 1;
        ctx.trace_note(format!("select {}->{} backend={backend}", client, vip));
        *self.per_vip_requests.entry(vip).or_insert(0) += 1;
        *self.per_vip_window.entry(vip).or_insert(0) += 1;
        *self.select_ctx.loads.entry(backend).or_insert(0) += 1;
        // Backend connection from (VIP, client-port), ISN = client ISN.
        // A mirror action (§5.2) opens a racing connection to every
        // target; all use the same VIP-side endpoint (their server-side
        // 5-tuples differ by backend address).
        let vss = Endpoint::new(vip.addr, client.port);
        for &b in std::iter::once(&backend).chain(selection.mirrors.iter()) {
            self.rflows.insert((b, vss), key);
            let syn = Segment {
                src_port: vss.port,
                dst_port: b.port,
                seq: client_isn,
                ack: SeqNum::new(0),
                flags: Flags::SYN,
                window: 1 << 20,
                payload: Bytes::new(),
            };
            self.emit(ctx, delay, syn, vss, b);
        }
        let Some(entry) = self.flows.get_mut(&key) else {
            return;
        };
        entry.phase = Phase::Connecting {
            client_isn,
            backend,
            mirrors: selection.mirrors,
            header,
            syn_sent_at: ctx.now(),
        };
    }

    /// Handles a packet on the server→VIP direction of a known flow.
    fn server_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        delay: SimTime,
        flow_key: (Endpoint, Endpoint),
        rkey: (Endpoint, Endpoint),
        seg: Segment,
    ) {
        let Some(entry) = self.flows.get_mut(&flow_key) else {
            self.rflows.remove(&rkey);
            self.dropped_unknown += 1;
            return;
        };
        let (client, vip) = (entry.client, entry.vip);
        match &mut entry.phase {
            Phase::Connecting {
                client_isn,
                backend,
                mirrors,
                header,
                syn_sent_at,
            } => {
                if !(seg.flags.syn && seg.flags.ack) {
                    return;
                }
                if seg.ack != *client_isn + 1 {
                    return; // Not our handshake.
                }
                // The first backend to complete the handshake becomes the
                // stored backend; the rest keep racing for the response.
                let responder = rkey.0;
                let racing: Vec<Endpoint> = std::iter::once(*backend)
                    .chain(mirrors.iter().copied())
                    .filter(|&b| b != responder)
                    .collect();
                let record = FlowRecord {
                    client,
                    vip,
                    backend: responder,
                    client_isn: *client_isn,
                    server_isn: seg.seq,
                };
                let header = header.clone();
                let sent_at = *syn_sent_at;
                let degraded = self.degraded;
                entry.phase = Phase::StoringFlow {
                    record,
                    header,
                    pending_sets: if degraded { 0 } else { 2 },
                    racing,
                    racer_isns: Vec::new(),
                };
                self.conn_latency
                    .record_time_ms(ctx.now().saturating_sub(sent_at));
                ctx.trace_note(format!("storing flow {}->{}", client, vip));
                // storage-b: primary + reverse keys, in parallel.
                let k1 = FlowRecord::key(client, vip);
                let k2 = FlowRecord::rkey(record.backend, record.vip_server_side());
                if degraded {
                    // Brownout: buffer storage-b and commit the tunnel
                    // immediately — forwarding must not stall on a store
                    // that is timing out.
                    self.wb_push(WbOp::Set(k1, record.encode()));
                    self.wb_push(WbOp::Set(k2, record.encode()));
                    self.flow_stored_complete(ctx, flow_key, None);
                } else {
                    let t1 = self.tag(PendingOp::FlowStored { flow: flow_key });
                    let t2 = self.tag(PendingOp::FlowStored { flow: flow_key });
                    self.store.set(ctx, k1, record.encode(), t1);
                    self.store.set(ctx, k2, record.encode(), t2);
                }
                let _ = delay;
            }
            Phase::StoringFlow {
                record,
                racing,
                racer_isns,
                ..
            }
                // A racer's SYN-ACK landing while storage-b is in flight:
                // remember its ISN so the race can include it. (The stored
                // backend's own duplicate SYN-ACK is covered by the coming
                // ACK.)
                if seg.flags.syn
                    && seg.flags.ack
                    && rkey.0 != record.backend
                    && racing.contains(&rkey.0)
                    && !racer_isns.iter().any(|(b, _)| *b == rkey.0)
                => {
                    racer_isns.push((rkey.0, seg.seq));
                }
            Phase::Tunneling(_) => {
                self.tunnel_server_packet(ctx, delay, flow_key, rkey, seg);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Tunneling-phase translation (Figure 4)
    // ------------------------------------------------------------------

    fn tunnel_client_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        delay: SimTime,
        key: (Endpoint, Endpoint),
        seg: Segment,
    ) {
        let (client, vip) = key;
        // HTTP/1.1 inspection may trigger a backend switch; it needs
        // &mut self, so run it before borrowing the tunnel for forwarding.
        if self.cfg.http11_inspect && !seg.payload.is_empty() {
            self.inspect_http11(ctx, delay, key, &seg);
        }
        let Some(entry) = self.flows.get_mut(&key) else {
            return;
        };
        let Phase::Tunneling(t) = &mut entry.phase else {
            return;
        };
        if let Some(sw) = &mut t.switching {
            // Mid-switch: hold client data for the new backend (it will be
            // forwarded on connect); still forward pure ACKs to the old
            // backend for the in-flight response.
            if !seg.payload.is_empty() {
                return;
            }
            let _ = sw;
        }
        if seg.flags.fin {
            t.client_fin = true;
        }
        // With the server leg spliced the instance never sees response
        // data, so track the client's position from its acks instead (the
        // ack field is already in Y-space). Equal to the data-based
        // tracking when unspliced: the client never acks beyond delivery.
        if self.cfg.splice && seg.flags.ack && t.client_next.lt(seg.ack) {
            t.client_next = seg.ack;
        }
        // A data packet on a leg believed spliced means the mux lost the
        // entry (cold restart after a failure): re-install, throttled.
        let reinstall = t.splice_client
            && !seg.flags.fin
            && !seg.flags.rst
            && !t.client_fin
            && !t.server_fin
            && ctx.now().saturating_sub(t.splice_sent_at) >= SPLICE_REINSTALL;
        let backend = t.backend;
        let delta = t.delta;
        let c2s_off = t.c2s_off;
        let vss = Endpoint::new(vip.addr, client.port);
        let mut out = seg.clone();
        out.src_port = vss.port;
        out.dst_port = backend.port;
        // Client seq space is shared with the backend connection (shifted
        // by the SSL hello bytes when present); the ack field references
        // server data in Y-space and translates by −delta.
        out.seq = SeqNum::new(out.seq.raw().wrapping_add(c2s_off));
        if out.flags.ack {
            out.ack = SeqNum::new(out.ack.raw().wrapping_sub(delta));
        }
        self.tunneled_packets += 1;
        let both_fins = t.client_fin && t.server_fin;
        if both_fins && t.drain_deadline.is_none() {
            t.drain_deadline = Some(ctx.now() + DRAIN_LINGER);
            self.finish_flow(ctx, key);
        }
        self.emit(ctx, delay, out, vss, backend);
        if reinstall {
            self.install_splices(ctx, key);
        }
    }

    fn tunnel_server_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        delay: SimTime,
        key: (Endpoint, Endpoint),
        rkey: (Endpoint, Endpoint),
        seg: Segment,
    ) {
        let (client, vip) = key;
        let Some(entry) = self.flows.get_mut(&key) else {
            return;
        };
        let Phase::Tunneling(t) = &mut entry.phase else {
            return;
        };
        if let Some(sw) = &t.switching {
            // SYN-ACK from the *new* backend completes the switch.
            if seg.flags.syn && seg.flags.ack && rkey.0 == sw.new_backend {
                self.complete_switch(ctx, delay, key, seg);
                return;
            }
        }
        if rkey.0 != t.backend {
            if t.racing.iter().any(|(b, _)| *b == rkey.0) {
                self.race_packet(ctx, delay, key, rkey.0, seg);
                return;
            }
            // Stale packet from a previous backend (post-switch): drop.
            self.dropped_unknown += 1;
            return;
        }
        if !t.racing.is_empty() && !seg.payload.is_empty() {
            // The stored backend answered first: it wins the race.
            self.settle_race(ctx, delay, key, None);
            let Some(entry) = self.flows.get_mut(&key) else {
            return;
        };
            let Phase::Tunneling(t) = &mut entry.phase else {
                return;
            };
            let _ = t;
            return self.tunnel_server_packet(ctx, SimTime::ZERO, key, rkey, seg);
        }
        if seg.flags.fin {
            t.server_fin = true;
        }
        // Server data on a leg believed spliced: the mux lost the entry
        // (cold restart after a failure) — re-install, throttled.
        let reinstall = t.splice_server
            && !seg.flags.fin
            && !seg.flags.rst
            && !t.client_fin
            && !t.server_fin
            && ctx.now().saturating_sub(t.splice_sent_at) >= SPLICE_REINSTALL;
        let delta = t.delta;
        let c2s_off = t.c2s_off;
        let mut out = seg.clone();
        out.src_port = vip.port;
        out.dst_port = client.port;
        out.seq = SeqNum::new(out.seq.raw().wrapping_add(delta));
        // The server acks request bytes in its (hello-less) space; map
        // them back into the client's space.
        if out.flags.ack {
            out.ack = SeqNum::new(out.ack.raw().wrapping_sub(c2s_off));
        }
        // Track the next Y-space byte the client expects (for switches).
        let end = out.seq + out.payload.len() as u32;
        if t.client_next.lt(end) {
            t.client_next = end;
        }
        self.tunneled_packets += 1;
        let both_fins = t.client_fin && t.server_fin;
        if both_fins && t.drain_deadline.is_none() {
            t.drain_deadline = Some(ctx.now() + DRAIN_LINGER);
            self.finish_flow(ctx, key);
        }
        self.emit(ctx, delay, out, vip, client);
        if reinstall {
            self.install_splices(ctx, key);
        }
    }

    /// Deletes the flow's TCPStore records ("the flow state ... is removed
    /// when the instance receives FIN-ACK", §4.1). The local entry lingers
    /// briefly to forward the final ACKs.
    fn finish_flow(&mut self, ctx: &mut Ctx<'_>, key: (Endpoint, Endpoint)) {
        let (client, vip) = key;
        let (backend, spliced) = match self.flows.get_mut(&key).map(|e| &mut e.phase) {
            Some(Phase::Tunneling(t)) => {
                let spliced = t.splice_client || t.splice_server;
                t.splice_client = false;
                t.splice_server = false;
                (t.backend, spliced)
            }
            _ => return,
        };
        if spliced {
            // The FIN legs already tore their own entries down at the mux;
            // this covers the leg that never saw a FIN pass through.
            self.remove_splices(ctx, client, vip, backend);
        }
        self.bg_delete(ctx, SynRecord::key(client, vip));
        self.bg_delete(ctx, FlowRecord::key(client, vip));
        let vss = Endpoint::new(vip.addr, client.port);
        self.bg_delete(ctx, FlowRecord::rkey(backend, vss));
        if let Some(l) = self.select_ctx.loads.get_mut(&backend) {
            *l -= 1;
        }
    }

    // ------------------------------------------------------------------
    // HTTP/1.1 content-based switching (§5.2)
    // ------------------------------------------------------------------

    fn inspect_http11(
        &mut self,
        ctx: &mut Ctx<'_>,
        delay: SimTime,
        key: (Endpoint, Endpoint),
        seg: &Segment,
    ) {
        let (client, vip) = key;
        // Reassemble client bytes in order.
        let Some(entry) = self.flows.get_mut(&key) else {
            return;
        };
        let Phase::Tunneling(t) = &mut entry.phase else {
            return;
        };
        if !t.inspect_enabled {
            return;
        }
        if seg.seq.le(t.inspect_next) {
            let skip = (t.inspect_next - seg.seq) as usize;
            if let Some(fresh) = seg.payload.get(skip..) {
                t.inspect_buf.extend_from_slice(fresh);
                t.inspect_next += fresh.len() as u32;
            }
        }
        let Some((req, used)) = parse_request(&t.inspect_buf) else {
            return;
        };
        let request_end = t.inspect_next + 0; // end of buffered data
        let request_start = SeqNum::new(request_end.raw().wrapping_sub(t.inspect_buf.len() as u32));
        let Some(request) = t.inspect_buf.get(..used) else {
            return;
        };
        let request_bytes = Bytes::copy_from_slice(request);
        let _ = t.inspect_buf.split_to(used);
        let current = t.backend;
        let already_switching = t.switching.is_some();
        self.select_ctx.now = ctx.now();
        let Some(vcfg) = self.vips.get_mut(&vip) else {
            return;
        };
        let Some(new_backend) = vcfg.rules.select(&req, &self.select_ctx, ctx.node_rng()) else {
            return;
        };
        if new_backend == current || already_switching {
            return; // Same backend (or switch in progress): keep tunneling.
        }
        // Different backend: close the old connection and connect to the
        // new one (§5.2 "HTTP 1.1"). The old connection is torn down with
        // a RST (simplification of the paper's close; invisible to the
        // client, which only ever sees the VIP).
        self.backend_switches += 1;
        self.requests += 1;
        *self.per_vip_requests.entry(vip).or_insert(0) += 1;
        *self.per_vip_window.entry(vip).or_insert(0) += 1;
        let vss = Endpoint::new(vip.addr, client.port);
        let Some(entry) = self.flows.get_mut(&key) else {
            return;
        };
        let Phase::Tunneling(t) = &mut entry.phase else {
            return;
        };
        let old_backend = t.backend;
        let had_server_splice = t.splice_server;
        t.splice_server = false;
        t.switching = Some(Box::new(SwitchState {
            new_backend,
            request_seq: request_start,
            request: request_bytes,
        }));
        if had_server_splice {
            // Pull the server-leg splice back before the new backend's bytes
            // start flowing with a stale translation constant.
            self.send_splice(
                ctx,
                old_backend,
                vss,
                MuxCtrl::SpliceRemove {
                    from: old_backend,
                    to: vss,
                },
            );
        }
        // RST the old backend connection (in C-space).
        let rst = Segment {
            src_port: vss.port,
            dst_port: old_backend.port,
            seq: request_start,
            ack: SeqNum::new(0),
            flags: Flags::RST,
            window: 0,
            payload: Bytes::new(),
        };
        self.rflows.remove(&(old_backend, vss));
        self.emit(ctx, delay, rst, vss, old_backend);
        // SYN to the new backend, ISN = request_start − 1 so the request
        // bytes keep their client-space sequence numbers.
        let isn = SeqNum::new(request_start.raw().wrapping_sub(1));
        self.rflows.insert((new_backend, vss), key);
        let syn = Segment {
            src_port: vss.port,
            dst_port: new_backend.port,
            seq: isn,
            ack: SeqNum::new(0),
            flags: Flags::SYN,
            window: 1 << 20,
            payload: Bytes::new(),
        };
        self.emit(ctx, delay, syn, vss, new_backend);
    }

    fn complete_switch(
        &mut self,
        ctx: &mut Ctx<'_>,
        delay: SimTime,
        key: (Endpoint, Endpoint),
        synack: Segment,
    ) {
        let (client, vip) = key;
        let Some(entry) = self.flows.get_mut(&key) else {
            return;
        };
        let Phase::Tunneling(t) = &mut entry.phase else {
            return;
        };
        let Some(sw) = t.switching.take() else {
            return;
        };
        let old_backend = t.backend;
        t.backend = sw.new_backend;
        // New translation constant: the client expects the next response
        // byte at `client_next` (Y-space); the new server starts sending
        // at S₂+1.
        let s2 = synack.seq;
        t.delta = t.client_next.raw().wrapping_sub(s2.raw().wrapping_add(1));
        let delta = t.delta;
        let new_backend = sw.new_backend;
        let client_isn_new = SeqNum::new(sw.request_seq.raw().wrapping_sub(1));
        // Update TCPStore so recovery lands on the new backend. Recovery
        // rebuilds `delta` as `(Y + cert) − server_isn`, so store
        // server_isn = (Y + cert) − delta to make that identity hold for
        // the *new* delta.
        let yoda_isn = syn_ack_isn(client, vip);
        let cert = self
            .vips
            .get(&vip)
            .and_then(|v| v.ssl_cert_len)
            .unwrap_or(0);
        let record = FlowRecord {
            client,
            vip,
            backend: new_backend,
            client_isn: client_isn_new,
            server_isn: SeqNum::new((yoda_isn + cert).raw().wrapping_sub(delta)),
        };
        let k1 = FlowRecord::key(client, vip);
        let k2 = FlowRecord::rkey(new_backend, record.vip_server_side());
        self.switch_set(ctx, k1, record.encode());
        self.switch_set(ctx, k2, record.encode());
        let vss = Endpoint::new(vip.addr, client.port);
        self.bg_delete(ctx, FlowRecord::rkey(old_backend, vss));
        // ACK the new backend's SYN-ACK and forward the buffered request.
        let ack = Segment {
            src_port: vss.port,
            dst_port: new_backend.port,
            seq: sw.request_seq,
            ack: s2 + 1,
            flags: Flags::ACK,
            window: 1 << 20,
            payload: sw.request.clone(),
        };
        self.emit(ctx, delay, ack, vss, new_backend);
        if let Some(l) = self.select_ctx.loads.get_mut(&old_backend) {
            *l -= 1;
        }
        *self.select_ctx.loads.entry(new_backend).or_insert(0) += 1;
        // Re-splice the server leg with the fresh delta (client leg stays
        // off: inspection must keep seeing request bytes).
        self.install_splices(ctx, key);
    }

    // ------------------------------------------------------------------
    // Mirror races (§5.2 "Sending the same request to multiple servers")
    // ------------------------------------------------------------------

    /// Handles a packet from a racing (non-stored) mirror backend.
    fn race_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        delay: SimTime,
        key: (Endpoint, Endpoint),
        racer: Endpoint,
        seg: Segment,
    ) {
        let (client, vip) = key;
        let Some(entry) = self.flows.get_mut(&key) else {
            return;
        };
        let Phase::Tunneling(t) = &mut entry.phase else {
            return;
        };
        let vss = Endpoint::new(vip.addr, client.port);
        let client_isn = t.race_client_isn;
        if seg.flags.syn && seg.flags.ack {
            // A racer finished its handshake: forward it the request too.
            if seg.ack != client_isn + 1 {
                return;
            }
            let Some(slot) = t.racing.iter_mut().find(|(b, _)| *b == racer) else {
                return;
            };
            if slot.1.is_some() {
                return; // Duplicate SYN-ACK.
            }
            slot.1 = Some(seg.seq);
            let Some(request) = t.race_request.clone() else {
                return;
            };
            let ack_req = Segment {
                src_port: vss.port,
                dst_port: racer.port,
                seq: client_isn + 1,
                ack: seg.seq + 1,
                flags: Flags::ACK,
                window: 1 << 20,
                payload: request,
            };
            self.emit(ctx, delay, ack_req, vss, racer);
            return;
        }
        if seg.payload.is_empty() {
            return; // Pure ACKs from racers carry no decision.
        }
        // First response data from a racer. It wins only if the stored
        // backend has not already started the response; otherwise the
        // stored backend won and the racer is cut loose.
        let yoda_isn = syn_ack_isn(client, vip);
        let no_response_yet = t.client_next == yoda_isn + 1;
        let racer_isn = t.racing.iter().find(|(b, _)| *b == racer).and_then(|(_, i)| *i);
        let (Some(racer_isn), true) = (racer_isn, no_response_yet) else {
            self.settle_race(ctx, delay, key, None);
            return;
        };
        // The racer wins: make it the tunnel's backend, update TCPStore,
        // and re-process this packet through the normal tunnel path.
        self.settle_race(ctx, delay, key, Some((racer, racer_isn)));
        let rkey = (racer, vss);
        self.tunnel_server_packet(ctx, SimTime::ZERO, key, rkey, seg);
    }

    /// Ends a mirror race. `winner = None` keeps the stored backend;
    /// `Some((backend, isn))` re-homes the tunnel onto that racer. All
    /// remaining racers get RSTs and their state is dropped.
    fn settle_race(
        &mut self,
        ctx: &mut Ctx<'_>,
        delay: SimTime,
        key: (Endpoint, Endpoint),
        winner: Option<(Endpoint, SeqNum)>,
    ) {
        let (client, vip) = key;
        let vss = Endpoint::new(vip.addr, client.port);
        let Some(entry) = self.flows.get_mut(&key) else {
            return;
        };
        let Phase::Tunneling(t) = &mut entry.phase else {
            return;
        };
        let request_len = t.race_request.as_ref().map(|r| r.len()).unwrap_or(0) as u32;
        let client_isn = t.race_client_isn;
        let losers: Vec<Endpoint> = t
            .racing
            .drain(..)
            .map(|(b, _)| b)
            .chain(winner.map(|_| t.backend))
            .filter(|&b| Some(b) != winner.map(|(w, _)| w))
            .collect();
        let old_backend = t.backend;
        if let Some((w, w_isn)) = winner {
            // client_next == Y+1(+cert): no response bytes went out yet,
            // so the winner's stream splices in exactly there.
            t.backend = w;
            t.delta = SeqNum::new(t.client_next.raw().wrapping_sub(1)).offset_from(w_isn);
            self.backend_switches += 1;
        }
        t.race_request = None;
        let new_backend = t.backend;
        // RST every loser in client sequence space and drop its mappings.
        for loser in losers {
            let rst = Segment {
                src_port: vss.port,
                dst_port: loser.port,
                seq: client_isn + 1 + request_len,
                ack: SeqNum::new(0),
                flags: Flags::RST,
                window: 0,
                payload: Bytes::new(),
            };
            self.rflows.remove(&(loser, vss));
            self.emit(ctx, delay, rst, vss, loser);
        }
        // If the winner changed, rewrite the TCPStore records so recovery
        // lands on the winner.
        if let Some((_, winner_isn)) = winner {
            let record = FlowRecord {
                client,
                vip,
                backend: new_backend,
                client_isn,
                // Recovery rebuilds delta as Y − server_isn; the winner's
                // real ISN is exactly what makes that identity hold.
                server_isn: winner_isn,
            };
            let k1 = FlowRecord::key(client, vip);
            let k2 = FlowRecord::rkey(new_backend, vss);
            self.switch_set(ctx, k1, record.encode());
            self.switch_set(ctx, k2, record.encode());
            self.bg_delete(ctx, FlowRecord::rkey(old_backend, vss));
        }
        self.install_splices(ctx, key);
    }

    // ------------------------------------------------------------------
    // Recovery (Figure 5)
    // ------------------------------------------------------------------

    fn start_recovery(&mut self, ctx: &mut Ctx<'_>, inner: Packet) {
        let rk = (inner.src, inner.dst);
        if let Some(entry) = self.recovering.get_mut(&rk) {
            entry.buffered.push(inner);
            return;
        }
        if self.degraded {
            // Store brownout: a recovery read would only add load to the
            // browning servers and stall for the full op timeout. Shed
            // it; the client's retransmit re-triggers recovery once the
            // store heals.
            self.shed_reads += 1;
            self.dropped_unknown += 1;
            ctx.trace_note(format!("degraded: shed recovery lookup {}->{}", rk.0, rk.1));
            return;
        }
        // Two hypotheses, looked up in parallel: this is the client side
        // of a flow (flow:/syn: keys) or the server side (rflow: key).
        let mut entry = RecoverEntry {
            buffered: vec![inner],
            outstanding: 3,
            syn_hit: None,
            flow_hit: None,
            created: ctx.now(),
        };
        ctx.trace_note(format!("recovery lookup for {}->{}", rk.0, rk.1));
        let t1 = self.tag(PendingOp::Recover { key: rk });
        let t2 = self.tag(PendingOp::Recover { key: rk });
        let t3 = self.tag(PendingOp::Recover { key: rk });
        self.store.get(ctx, FlowRecord::key(rk.0, rk.1), t1);
        self.store.get(ctx, SynRecord::key(rk.0, rk.1), t2);
        self.store.get(ctx, FlowRecord::rkey(rk.0, rk.1), t3);
        entry.created = ctx.now();
        self.recovering.insert(rk, entry);
    }

    fn recovery_event(&mut self, ctx: &mut Ctx<'_>, rk: (Endpoint, Endpoint), ev: StoreEvent) {
        let Some(entry) = self.recovering.get_mut(&rk) else {
            return;
        };
        entry.outstanding = entry.outstanding.saturating_sub(1);
        if let StoreOutcome::Value(v) = &ev.outcome {
            if ev.key.starts_with(b"flow:") || ev.key.starts_with(b"rflow:") {
                entry.flow_hit = FlowRecord::decode(v);
            } else if ev.key.starts_with(b"syn:") {
                entry.syn_hit = SynRecord::decode(v);
            }
        }
        let done = entry.outstanding == 0 || entry.flow_hit.is_some();
        if !done {
            return;
        }
        let Some(entry) = self.recovering.remove(&rk) else {
            return;
        };
        if let Some(record) = entry.flow_hit {
            if self.flows.contains_key(&(record.client, record.vip)) {
                // This instance already owns live state for the flow — the
                // store record is stale relative to local memory (e.g. a
                // mid-connection backend switch is in flight and a residual
                // packet from the severed old backend missed the rflow
                // table). Recovery exists for flows orphaned by a *dead*
                // instance; installing the stale record here would clobber
                // the live state, so drop the trigger packet instead.
                ctx.trace_note(format!(
                    "ignored stale recovery for {}->{} (flow is live)",
                    record.client, record.vip
                ));
                return;
            }
            self.install_recovered_flow(ctx, record);
            self.recoveries += 1;
            ctx.trace_note(format!(
                "recovered flow {}->{} backend {} from TCPStore",
                record.client, record.vip, record.backend
            ));
        } else if let Some(syn) = entry.syn_hit {
            // Connection-phase failure (Fig. 5a): rebuild the header wait;
            // the buffered retransmitted data re-drives rule selection.
            self.recoveries += 1;
            // SSL VIPs: the hello was consumed by the dead instance, so
            // the byte stream resumes after it; the retransmitted hello
            // (or request) re-drives the certificate exchange.
            let ssl = self
                .vips
                .get(&syn.vip)
                .and_then(|v| v.ssl_cert_len)
                .is_some();
            let hello_skip = if ssl { TLS_HELLO.len() as u32 } else { 0 };
            self.flows.insert(
                (syn.client, syn.vip),
                FlowEntry {
                    client: syn.client,
                    vip: syn.vip,
                    phase: Phase::AwaitHeader {
                        client_isn: syn.client_isn,
                        buf: BytesMut::new(),
                        next_seq: syn.client_isn + 1 + hello_skip,
                        hello_done: ssl,
                    },
                    created: ctx.now(),
                },
            );
            ctx.trace_note(format!(
                "recovered connection-phase flow {}->{} from TCPStore",
                syn.client, syn.vip
            ));
        } else {
            // Total miss: not ours, drop everything buffered.
            self.dropped_unknown += entry.buffered.len() as u64;
            ctx.trace_note(format!(
                "recovery MISS for {}->{} ({} pkts dropped)",
                rk.0, rk.1, self.dropped_unknown
            ));
            return;
        }
        for pkt in entry.buffered {
            self.handle_inner(ctx, pkt);
        }
    }

    /// Rebuilds tunneling state from a recovered [`FlowRecord`].
    fn install_recovered_flow(&mut self, ctx: &mut Ctx<'_>, record: FlowRecord) {
        let key = (record.client, record.vip);
        let yoda_isn = syn_ack_isn(record.client, record.vip);
        // SSL VIPs shift both translation constants by deterministic
        // amounts any instance can recompute from the VIP config.
        let cert = self
            .vips
            .get(&record.vip)
            .and_then(|v| v.ssl_cert_len)
            .unwrap_or(0);
        let hello = if cert > 0 { TLS_HELLO.len() as u32 } else { 0 };
        let delta = (yoda_isn + cert).offset_from(record.server_isn);
        let vss = record.vip_server_side();
        self.rflows.insert((record.backend, vss), key);
        self.flows.insert(
            key,
            FlowEntry {
                client: record.client,
                vip: record.vip,
                phase: Phase::Tunneling(Tunnel {
                    backend: record.backend,
                    delta,
                    c2s_off: 0u32.wrapping_sub(hello),
                    client_fin: false,
                    server_fin: false,
                    drain_deadline: None,
                    inspect_enabled: false,
                    inspect_next: SeqNum::new(0),
                    inspect_buf: BytesMut::new(),
                    client_next: SeqNum::new(0),
                    switching: None,
                    racing: Vec::new(),
                    race_request: None,
                    race_client_isn: SeqNum::new(0),
                    splice_client: false,
                    splice_server: false,
                    splice_sent_at: SimTime::ZERO,
                }),
                created: ctx.now(),
            },
        );
        *self.select_ctx.loads.entry(record.backend).or_insert(0) += 1;
        // The translation constants were just re-derived from the stored
        // FlowRecord, so the recovering instance can re-splice directly
        // (inspection is off on recovered flows: both legs qualify).
        self.install_splices(ctx, key);
    }

    // ------------------------------------------------------------------
    // Store completions for the normal path
    // ------------------------------------------------------------------

    fn store_event(&mut self, ctx: &mut Ctx<'_>, ev: StoreEvent) {
        // Central write-health accounting: every set/delete outcome feeds
        // the degraded-mode trigger, regardless of which path issued it.
        if matches!(ev.op, StoreOp::Set | StoreOp::Delete) {
            if ev.outcome == StoreOutcome::TimedOut {
                self.note_write_timeout(ctx);
            } else {
                self.note_write_ok();
            }
        }
        let Some(op) = self.pending.remove(&ev.tag) else {
            return;
        };
        match op {
            PendingOp::Fire => {}
            PendingOp::Recover { key } => self.recovery_event(ctx, key, ev),
            PendingOp::SynStored { flow } => {
                if ev.outcome == StoreOutcome::TimedOut {
                    // Could not persist: abandon; the client will retry its
                    // SYN and we will try again.
                    self.flows.remove(&flow);
                    return;
                }
                self.storage_latency.record_time_ms(ev.latency);
                let Some(entry) = self.flows.get_mut(&flow) else {
                    return;
                };
                let Phase::StoringSyn { client_isn } = entry.phase else {
                    return;
                };
                // Figure 3 step 2: the deterministic SYN-ACK, sent only
                // *after* storage-a is durable.
                let (client, vip) = flow;
                entry.phase = Phase::AwaitHeader {
                    client_isn,
                    buf: BytesMut::new(),
                    next_seq: client_isn + 1,
                    hello_done: false,
                };
                let synack = Segment {
                    src_port: vip.port,
                    dst_port: client.port,
                    seq: syn_ack_isn(client, vip),
                    ack: client_isn + 1,
                    flags: Flags::SYN_ACK,
                    window: 1 << 20,
                    payload: Bytes::new(),
                };
                self.emit(ctx, SimTime::ZERO, synack, vip, client);
            }
            PendingOp::FlowStored { flow } => {
                if ev.outcome == StoreOutcome::TimedOut {
                    self.flows.remove(&flow);
                    return;
                }
                let done = {
                    let Some(entry) = self.flows.get_mut(&flow) else {
                        return;
                    };
                    let Phase::StoringFlow { pending_sets, .. } = &mut entry.phase else {
                        return;
                    };
                    *pending_sets -= 1;
                    *pending_sets == 0
                };
                if done {
                    self.flow_stored_complete(ctx, flow, Some(ev.latency));
                }
            }
            PendingOp::SwitchStored => {
                // Store updated after an HTTP/1.1 backend switch; nothing
                // further to do.
            }
            PendingOp::Drain => {
                // Whatever the outcome, the slot frees up: a timed-out
                // drain write already has a background repair round, and
                // blocking the drain on it would starve the rest of the
                // buffer.
                self.drain_inflight = self.drain_inflight.saturating_sub(1);
                self.drain_step(ctx);
            }
            PendingOp::HealProbe => {
                // Timeout bookkeeping happened centrally above; the heal
                // decision requires *consecutive fast* successes — each
                // within one op-timeout window, i.e. no retries and no
                // late acks — so a store hovering at the timeout boundary
                // (one lucky probe between queue spikes) does not flap
                // the instance out of and back into degraded mode.
                if self.degraded {
                    if ev.outcome != StoreOutcome::TimedOut && ev.latency <= OP_TIMEOUT {
                        self.fast_probes += 1;
                        if self.fast_probes >= HEAL_AFTER_PROBES {
                            self.fast_probes = 0;
                            self.heal(ctx);
                        }
                    } else {
                        self.fast_probes = 0;
                    }
                }
            }
        }
    }

    /// Completes storage-b: ACK the backend, forward the buffered
    /// request, feed any racers, and hand the flow to the tunneling
    /// phase. Shared by the normal path (runs when the store acks both
    /// sets) and degraded mode (runs immediately; the sets sit in the
    /// write-behind buffer instead).
    fn flow_stored_complete(
        &mut self,
        ctx: &mut Ctx<'_>,
        flow: (Endpoint, Endpoint),
        latency: Option<SimTime>,
    ) {
        if let Some(l) = latency {
            self.storage_latency.record_time_ms(l);
        }
        let Some(entry) = self.flows.get_mut(&flow) else {
            return;
        };
        let Phase::StoringFlow {
            record,
            header,
            racing,
            racer_isns,
            ..
        } = &mut entry.phase
        else {
            return;
        };
        {
                let record = *record;
                let header = header.clone();
                let racer_isns = racer_isns.clone();
                let racing: Vec<(Endpoint, Option<SeqNum>)> = racing
                    .iter()
                    .map(|&b| {
                        (b, racer_isns.iter().find(|(r, _)| *r == b).map(|(_, i)| *i))
                    })
                    .collect();
                // Figure 3 step 3: ACK the backend's SYN-ACK and forward
                // the buffered HTTP request in client sequence space.
                // SSL VIPs: the client leg additionally carries the hello
                // and the certificate, shifting both constants.
                let yoda_isn = syn_ack_isn(record.client, record.vip);
                let cert = self
                    .vips
                    .get(&record.vip)
                    .and_then(|v| v.ssl_cert_len)
                    .unwrap_or(0);
                let hello = if cert > 0 { TLS_HELLO.len() as u32 } else { 0 };
                let is_racing = !racing.is_empty();
                entry.phase = Phase::Tunneling(Tunnel {
                    backend: record.backend,
                    delta: (yoda_isn + cert).offset_from(record.server_isn),
                    c2s_off: 0u32.wrapping_sub(hello),
                    client_fin: false,
                    server_fin: false,
                    drain_deadline: None,
                    // HTTP/1.1 inspection is off for mirror races (the
                    // request owns the connection until the race settles)
                    // and for SSL flows (the hello offset would skew the
                    // spliced sequence spaces on a switch).
                    inspect_enabled: self.cfg.http11_inspect && !is_racing && cert == 0,
                    inspect_next: record.client_isn + 1 + hello + header.len() as u32,
                    inspect_buf: BytesMut::new(),
                    client_next: yoda_isn + 1 + cert,
                    switching: None,
                    racing,
                    race_request: is_racing.then(|| header.clone()),
                    race_client_isn: record.client_isn,
                    splice_client: false,
                    splice_server: false,
                    splice_sent_at: SimTime::ZERO,
                });
                let vss = record.vip_server_side();
                let mut offset = 0usize;
                while offset < header.len() {
                    let len = (header.len() - offset).min(MSS);
                    let seg = Segment {
                        src_port: vss.port,
                        dst_port: record.backend.port,
                        seq: record.client_isn + 1 + offset as u32,
                        ack: record.server_isn + 1,
                        flags: Flags::ACK,
                        window: 1 << 20,
                        payload: header.slice(offset..offset + len),
                    };
                    self.emit(ctx, SimTime::ZERO, seg, vss, record.backend);
                    offset += len;
                }
                // Racers whose handshakes already completed get the
                // request now (the rest get it when their SYN-ACK lands).
                for (racer, isn) in racer_isns {
                    let ack_req = Segment {
                        src_port: vss.port,
                        dst_port: racer.port,
                        seq: record.client_isn + 1,
                        ack: isn + 1,
                        flags: Flags::ACK,
                        window: 1 << 20,
                        payload: header.clone(),
                    };
                    self.emit(ctx, SimTime::ZERO, ack_req, vss, racer);
                }
                // Handshake, rule pick and storage are done: hand the
                // steady state to the mux fast path (no-op while a mirror
                // race is live; settled races install later).
                self.install_splices(ctx, flow);
        }
    }

    // ------------------------------------------------------------------
    // Probing (yoda-balance)
    // ------------------------------------------------------------------

    /// One probe tick: lapse expired quarantines, gather the live,
    /// unquarantined backends of every prequal rule, probe a
    /// power-of-`d` sample of them, and re-arm the tick.
    fn probe_tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.prober.release_expired(now);
        let mut candidates: BTreeSet<Endpoint> = BTreeSet::new();
        for vcfg in self.vips.values() {
            candidates.extend(vcfg.rules.prequal_backends());
        }
        candidates.retain(|b| {
            !self.select_ctx.dead.contains(b) && !self.prober.is_quarantined(*b, now)
        });
        if !candidates.is_empty() {
            let cands: Vec<Endpoint> = candidates.into_iter().collect();
            let targets = self.prober.sample(&cands, ctx.node_rng());
            let src = Endpoint::new(self.addr, PROBE_PORT);
            for b in targets {
                let tag = self.prober.begin(b, now);
                ctx.send(Packet::new(
                    src,
                    b,
                    PROTO_PROBE,
                    ProbeRequest { tag }.encode(),
                ));
                ctx.set_timer(
                    PROBE_TIMEOUT,
                    TimerToken::new(PROBE_TIMEOUT_KIND).with_a(tag),
                );
            }
        }
        ctx.set_timer(self.cfg.probe_period, TimerToken::new(PROBE_TICK_KIND));
    }

    /// A probe reply: feed the signal to every VIP's rule table.
    fn handle_probe_reply(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Some(reply) = ProbeReply::decode(&pkt.payload) else {
            return;
        };
        let now = ctx.now();
        let Some(backend) = self.prober.on_reply(reply.tag, now) else {
            return; // Late reply; the timeout already fired.
        };
        let sig = Signal {
            rif: reply.rif,
            latency_est: reply.latency,
            last_probe: now,
        };
        for vcfg in self.vips.values_mut() {
            vcfg.rules.on_probe(backend, sig);
        }
    }

    /// A probe timeout: quarantine the backend and drop its pooled
    /// signals, so selection stops routing to a silently-failed node.
    fn probe_timeout(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if let Some(backend) = self.prober.on_timeout(tag, ctx.now()) {
            ctx.trace_note(format!("probe timeout: quarantine {backend}"));
            for vcfg in self.vips.values_mut() {
                vcfg.rules.purge_backend(backend);
            }
        }
    }

    // ------------------------------------------------------------------
    // Control plane
    // ------------------------------------------------------------------

    /// Records `version` for `vip` unless an install or remove of a newer
    /// version was already applied; returns whether the message is
    /// current (an equal version re-applies).
    fn newest_vip_version(&mut self, vip: Endpoint, version: u64) -> bool {
        let last = self.vip_versions.entry(vip).or_insert(0);
        if version < *last {
            return false;
        }
        *last = version;
        true
    }

    fn handle_ctrl(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Some(msg) = InstanceCtrl::decode(&pkt.payload) else {
            return;
        };
        match msg {
            InstanceCtrl::InstallVip {
                vip,
                version,
                rules_text,
                ssl_cert_len,
            } => {
                if self.newest_vip_version(vip, version) {
                    if let Some(rules) = RuleTable::parse(&rules_text) {
                        self.install_vip_cfg(
                            vip,
                            VipConfig {
                                rules,
                                ssl_cert_len,
                            },
                        );
                    }
                }
            }
            InstanceCtrl::RemoveVip { vip, version } => {
                if self.newest_vip_version(vip, version) {
                    self.remove_vip(vip);
                }
            }
            InstanceCtrl::BackendDown { backend } => {
                self.select_ctx.dead.insert(backend);
                for vcfg in self.vips.values_mut() {
                    vcfg.rules.purge_backend(backend);
                }
                self.terminate_backend_flows(ctx, backend);
            }
            InstanceCtrl::BackendUp { backend } => {
                self.select_ctx.dead.remove(&backend);
            }
            InstanceCtrl::SetMuxes { muxes } => self.muxes = muxes,
            InstanceCtrl::StatsRequest { seq } => {
                let per_vip: Vec<(Endpoint, u64)> = std::mem::take(&mut self.per_vip_window).into_iter().collect();
                let reply = InstanceCtrl::StatsReply {
                    seq,
                    cpu_milli: (self.cpu_utilization(ctx.now()) * 1000.0) as u32,
                    flows: self.flows.len() as u64,
                    per_vip_requests: per_vip,
                };
                self.reset_cpu_window(ctx.now());
                let me = Endpoint::new(self.addr, CTRL_PORT);
                ctx.send(reply.into_packet(me, pkt.src.addr));
            }
            InstanceCtrl::StatsReply { .. } => {}
        }
    }

    /// On backend failure, connections through it are terminated (§5.2):
    /// the client gets a RST from the VIP, and all state is deleted.
    fn terminate_backend_flows(&mut self, ctx: &mut Ctx<'_>, backend: Endpoint) {
        let keys: Vec<(Endpoint, Endpoint)> = self
            .flows
            .iter()
            .filter(|(_, e)| match &e.phase {
                Phase::Tunneling(t) => t.backend == backend,
                Phase::Connecting { backend: b, .. } => *b == backend,
                Phase::StoringFlow { record, .. } => record.backend == backend,
                _ => false,
            })
            .map(|(k, _)| *k)
            .collect();
        for key in keys {
            let (client, vip) = key;
            let spliced = matches!(
                self.flows.get(&key).map(|e| &e.phase),
                Some(Phase::Tunneling(t)) if t.splice_client || t.splice_server
            );
            if spliced {
                // The client RST below is DSR and never crosses the muxes,
                // so their splice entries must be revoked explicitly.
                self.remove_splices(ctx, client, vip, backend);
            }
            let rst = Segment {
                src_port: vip.port,
                dst_port: client.port,
                seq: syn_ack_isn(client, vip) + 1,
                ack: SeqNum::new(0),
                flags: Flags::RST,
                window: 0,
                payload: Bytes::new(),
            };
            self.emit(ctx, SimTime::ZERO, rst, vip, client);
            let vss = Endpoint::new(vip.addr, client.port);
            self.rflows.remove(&(backend, vss));
            self.bg_delete(ctx, SynRecord::key(client, vip));
            self.bg_delete(ctx, FlowRecord::key(client, vip));
            self.bg_delete(ctx, FlowRecord::rkey(backend, vss));
            self.flows.remove(&key);
        }
    }

    /// Periodic cleanup of drained tunnels and stale recovery entries.
    fn gc(&mut self, now: SimTime) {
        let drained: Vec<(Endpoint, Endpoint)> = self
            .flows
            .iter()
            .filter(|(_, e)| match &e.phase {
                Phase::Tunneling(t) => t.drain_deadline.map(|d| now >= d).unwrap_or(false),
                // Stuck connection-phase entries (e.g. backend never
                // answered) expire after the recovery TTL.
                Phase::StoringSyn { .. }
                | Phase::AwaitHeader { .. }
                | Phase::Connecting { .. }
                | Phase::StoringFlow { .. } => now.saturating_sub(e.created) > SimTime::from_secs(60),
            })
            .map(|(k, _)| *k)
            .collect();
        for key in drained {
            if let Some(entry) = self.flows.remove(&key) {
                if let Phase::Tunneling(t) = entry.phase {
                    let vss = Endpoint::new(entry.vip.addr, entry.client.port);
                    self.rflows.remove(&(t.backend, vss));
                }
            }
        }
        self.recovering
            .retain(|_, e| now.saturating_sub(e.created) < RECOVERY_TTL);
    }
}

impl Node for YodaInstance {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(GC_PERIOD, TimerToken::new(GC_KIND));
        ctx.set_timer(self.cfg.probe_period, TimerToken::new(PROBE_TICK_KIND));
        self.cpu.reset_window(ctx.now());
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        match pkt.protocol {
            PROTO_IPIP => {
                if let Some(inner) = pkt.decapsulate() {
                    self.handle_inner(ctx, inner);
                }
            }
            PROTO_RPC => {
                let events = self.store.on_packet(ctx, &pkt);
                for ev in events {
                    self.store_event(ctx, ev);
                }
            }
            PROTO_CTRL => self.handle_ctrl(ctx, &pkt),
            PROTO_PROBE => self.handle_probe_reply(ctx, &pkt),
            PROTO_PING => {
                // The pong carries one freshness byte: `1` = this instance
                // holds no VIP config (it restarted since the controller
                // last provisioned it). Lets the controller catch silent
                // restarts shorter than the miss threshold — a crash the
                // ping stream alone can no longer see.
                let fresh = if self.vips.is_empty() { 1u8 } else { 0u8 };
                let reply = Packet::new(pkt.dst, pkt.src, PROTO_PING, Bytes::from(vec![fresh]));
                ctx.send(reply);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        match token.kind {
            k if StoreClient::owns_timer_kind(k) => {
                let events = self.store.on_timer(ctx, token);
                for ev in events {
                    self.store_event(ctx, ev);
                }
            }
            GC_KIND => {
                self.gc(ctx.now());
                ctx.set_timer(GC_PERIOD, TimerToken::new(GC_KIND));
            }
            DEGRADED_PROBE_KIND => self.heal_probe(ctx),
            PROBE_TICK_KIND => self.probe_tick(ctx),
            PROBE_TIMEOUT_KIND => self.probe_timeout(ctx, token.a),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_match_calibration() {
        // A small-object (10 KB) request crosses the instance as ~20
        // forwarded packets (handshake, request, 7 data segments, the
        // client's acks, teardown) plus one connection setup: per-request
        // CPU ≈ 20·16 µs + 300 µs = 620 µs, so 8 cores saturate at
        // ≈12.9K req/s — the paper's §7.1 saturation point (12K req/s),
        // with 5K req/s landing at ≈40% and 10K at ≈80% (Figure 13's
        // operating points).
        let cfg = YodaConfig::default();
        let per_req = cfg.per_pkt_cpu.as_secs_f64() * 20.0 + cfg.per_conn_cpu.as_secs_f64();
        let saturation = INSTANCE_CORES as f64 / per_req;
        assert!(saturation > 11_000.0 && saturation < 14_500.0, "{saturation}");
    }

    #[test]
    fn instance_construction() {
        let stores = vec![Addr::new(10, 0, 1, 1)];
        let inst = YodaInstance::new(
            YodaConfig::default(),
            Addr::new(10, 0, 0, 1),
            &stores,
            vec![Addr::new(10, 0, 2, 1)],
        );
        assert_eq!(inst.live_flows(), 0);
        assert_eq!(inst.requests, 0);
    }

    // Full data-path behaviour is exercised end-to-end in the testbed
    // module and the workspace integration tests (tests/), where real
    // clients, muxes, stores, and backends surround the instance.
}
