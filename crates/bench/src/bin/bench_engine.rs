//! Engine hot-loop microbenchmark: events/sec and ns/event for the
//! `yoda-netsim` discrete-event core, the quantity every figure binary is
//! ultimately bottlenecked on.
//!
//! Three scenarios isolate the three hot paths:
//!
//! * `pingpong_mesh`  — pure packet dispatch: N nodes bounce pings around
//!   a ring, so every event is a heap pop + address route + node call.
//! * `timer_churn`    — timer arm/cancel/fire: each node keeps a fan of
//!   staggered timers alive, cancelling half of them before they fire.
//! * `trace_ring`     — the ping-pong mesh with tracing enabled, isolating
//!   the per-event trace-record cost (node-name interning).
//! * `full_testbed`   — the paper's testbed end to end (browsers, TCP,
//!   muxes, Yoda instances with a prequal policy, stores, controller):
//!   the realistic event mix, dominated by TCP segment handling rather
//!   than raw dispatch.
//!
//! The simulation content is fully deterministic (each scenario prints its
//! `event_digest`, which must be identical across hosts and across engine
//! refactors); only the wall-clock measurements vary. Results are written
//! as JSON. With `--update <path>` the file's `"baseline"` block — the
//! measurement recorded before the engine overhaul — is preserved and only
//! `"current"` is replaced, so the repo carries its perf trajectory.
//!
//! In full mode each scenario's digest is additionally pinned to the
//! digest committed in `BENCH_engine.json`; the bench aborts on any
//! divergence.
//!
//! The `splice` scenario compares forwarding with the mux fast path off
//! and on. Its gate is deterministic: the Yoda instance must tunnel at
//! most half as many packets per delivered data packet on
//! `forward_spliced` as on `forward_tunneled`. Wall-clock ns/packet is
//! report-only.
//!
//! ```text
//! bench_engine [--smoke] [--only SCENARIO] [--update BENCH_engine.json]
//! ```
//!
//! `--only` restricts the run to one scenario (exact name) — for
//! profiling a single hot path without the others polluting the samples.
//! `--help` prints the usage line; an unknown argument or a missing value
//! exits with status 2 (see `yoda_bench::cli`).

use std::fmt::Write as _;
use std::time::Instant;

use bytes::Bytes;
use yoda_bench::{Arg, Cli};
use yoda_core::instance::{YodaConfig, YodaInstance};
use yoda_core::testbed::{Testbed, TestbedConfig};
use yoda_http::{BrowserClient, BrowserConfig, OriginServer};
use yoda_l4lb::{rendezvous_pick, Mux};
use yoda_tcp::{Flags, Segment, SeqNum, MSS};
use yoda_netsim::{
    Addr, Ctx, Endpoint, Engine, Node, Packet, SimTime, TimerToken, Topology, Zone, PROTO_PING,
};

/// One node of the ping-pong mesh: pings `fanout` successors on start,
/// then replies to every ping forever, keeping a fixed population of
/// packets in flight.
struct Seeder {
    index: u32,
    ring: u32,
    fanout: u32,
}

impl Node for Seeder {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let me = Endpoint::new(mesh_addr(self.index), 0);
        for k in 1..=self.fanout {
            let peer = Endpoint::new(mesh_addr((self.index + k) % self.ring), 0);
            ctx.send(Packet::new(me, peer, PROTO_PING, Bytes::new()));
        }
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let reply = Packet::new(pkt.dst, pkt.src, pkt.protocol, Bytes::new());
        ctx.send(reply);
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
}

/// Timer-churn node: every tick re-arms a fan of staggered timers and
/// cancels half of them before they can fire.
struct Churner {
    period: SimTime,
    fan: u64,
}

impl Node for Churner {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.period, TimerToken::new(0));
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if token.kind != 0 {
            return; // a surviving fan timer: nothing to do
        }
        for i in 0..self.fan {
            let delay = self.period + SimTime::from_micros(17 * i);
            let id = ctx.set_timer(delay, TimerToken::new(1).with_a(i));
            if i % 2 == 0 {
                ctx.cancel_timer(id);
            }
        }
        ctx.set_timer(self.period, TimerToken::new(0));
    }
}

fn mesh_addr(i: u32) -> Addr {
    Addr::new(10, 20, (i / 250) as u8, (i % 250 + 1) as u8)
}

/// Committed full-mode digests (see `BENCH_engine.json`): every full run
/// must land exactly here.
const PINGPONG_DIGEST_FULL: u64 = 0xb9f7_9de3_8943_a8cd;
const CHURN_DIGEST_FULL: u64 = 0x9653_0dd7_2d5c_a05f;
const TESTBED_DIGEST_FULL: u64 = 0x446b_d132_40f8_1607;

struct Measurement {
    name: &'static str,
    events: u64,
    elapsed_ns: u128,
    digest: u64,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.elapsed_ns as f64 / 1e9)
    }
    fn ns_per_event(&self) -> f64 {
        self.elapsed_ns as f64 / self.events as f64
    }
}

/// Runs `build` + `run_for(duration)` `repeats` times, keeping the fastest
/// wall-clock run. The digest must agree across repeats — a mismatch
/// means the engine is nondeterministic and the numbers are garbage.
fn measure(
    name: &'static str,
    repeats: u32,
    duration: SimTime,
    build: impl Fn() -> Engine,
) -> Measurement {
    let mut best: Option<Measurement> = None;
    for _ in 0..repeats {
        let mut eng = build();
        // Setup events (on_start controls and first sends) are untimed.
        eng.run_for(SimTime::from_millis(50));
        let base_events = eng.events_processed();
        let t0 = Instant::now();
        eng.run_for(duration);
        let elapsed_ns = t0.elapsed().as_nanos().max(1);
        let m = Measurement {
            name,
            events: eng.events_processed() - base_events,
            elapsed_ns,
            digest: eng.event_digest(),
        };
        if let Some(prev) = &best {
            assert_eq!(
                prev.digest, m.digest,
                "{name}: digest varies across repeats — engine is nondeterministic"
            );
            assert_eq!(prev.events, m.events, "{name}: event count varies");
        }
        if best.as_ref().is_none_or(|b| m.elapsed_ns < b.elapsed_ns) {
            best = Some(m);
        }
    }
    best.expect("at least one repeat")
}

fn pingpong_mesh(nodes: u32, fanout: u32) -> Engine {
    // No jitter and no loss: the RNG is never consulted, so every event is
    // pure dispatch cost.
    let mut eng = Engine::with_topology(7, Topology::uniform(SimTime::from_millis(1)));
    for i in 0..nodes {
        eng.add_node(
            format!("mesh-{i}"),
            mesh_addr(i),
            Zone::Dc,
            Box::new(Seeder {
                index: i,
                ring: nodes,
                fanout,
            }),
        );
    }
    // Half the mesh also owns a VIP-style alias so the address table sees
    // a realistic multi-address load.
    for i in 0..nodes / 2 {
        let id = eng
            .node_by_addr(mesh_addr(i))
            .expect("mesh node registered");
        eng.add_addr(id, Addr::new(100, 20, (i / 250) as u8, (i % 250 + 1) as u8));
    }
    eng
}

fn timer_churn(nodes: u32, fan: u64) -> Engine {
    let mut eng = Engine::with_topology(7, Topology::uniform(SimTime::from_millis(1)));
    for i in 0..nodes {
        eng.add_node(
            format!("churn-{i}"),
            mesh_addr(i),
            Zone::Dc,
            Box::new(Churner {
                period: SimTime::from_micros(500 + 13 * i as u64),
                fan,
            }),
        );
    }
    eng
}

fn trace_ring(nodes: u32, fanout: u32) -> Engine {
    let mut eng = pingpong_mesh(nodes, fanout);
    eng.enable_trace(1 << 16);
    eng
}

/// The realistic workload: a scaled-down paper testbed with browsers
/// fetching through the full L4/L7 stack and a prequal policy installed
/// at 100 ms (so the probe path is hot too). Returns the bare engine;
/// `measure` drives it directly.
fn full_testbed() -> Engine {
    let mut tb = Testbed::build(TestbedConfig {
        seed: 0xBEEF,
        num_instances: 3,
        num_spares: 0,
        num_stores: 2,
        num_backends: 8,
        num_muxes: 2,
        num_services: 2,
        pages_per_site: 8,
        ..TestbedConfig::default()
    });
    let vip = tb.vips[0];
    let backends: Vec<String> = tb.service_backends[0]
        .iter()
        .map(|b| b.to_string())
        .collect();
    let rules = format!(
        "name=pq-0 priority=1 match * action=prequal {}",
        backends.join(" ")
    );
    tb.set_policy_at(vip, &rules, SimTime::from_millis(100));
    for service in 0..2 {
        tb.add_browser(
            service,
            BrowserConfig {
                processes: 2,
                ..BrowserConfig::default()
            },
        );
    }
    tb.engine
}

/// One leg of the spliced-vs-tunneled comparison: a fixed testbed
/// workload timed over a steady-state window, with forwarding cost
/// normalised per data packet (request segments + MSS-chunked response
/// segments — the packets that ride the fast path when it is on).
struct SpliceRow {
    name: &'static str,
    elapsed_ns: u128,
    events: u64,
    data_packets: u64,
    spliced: u64,
    completed: u64,
    bytes_served: u64,
    digest: u64,
    p50_ms: f64,
    p99_ms: f64,
    /// Packets the Yoda instances forwarded in the tunneling phase over
    /// the window — the L7 hop the fast path exists to skip.
    tunneled: u64,
}

impl SpliceRow {
    fn ns_per_packet(&self) -> f64 {
        self.elapsed_ns as f64 / self.data_packets.max(1) as f64
    }

    /// Instance-tunneled packets per delivered data packet: the
    /// deterministic quantity the splice gate compares.
    fn tunneled_per_packet(&self) -> f64 {
        self.tunneled as f64 / self.data_packets.max(1) as f64
    }
}

/// Total packets the testbed's Yoda instances have tunneled so far.
fn instance_tunneled(tb: &Testbed) -> u64 {
    tb.instances
        .iter()
        .map(|&i| tb.engine.node_ref::<YodaInstance>(i).tunneled_packets)
        .sum()
}

/// Runs the splice-comparison testbed once per repeat (fastest run kept)
/// with the mux fast path on or off — everything else identical, so the
/// legs differ only in whether data packets take the L7 instance hop.
/// HTTP/1.1 inspection is off in both legs: the comparison targets
/// steady-state forwarding, where both splice legs are installable.
fn splice_run(name: &'static str, splice: bool, repeats: u32, duration: SimTime) -> SpliceRow {
    let mut best: Option<SpliceRow> = None;
    for _ in 0..repeats {
        let mut tb = Testbed::build(TestbedConfig {
            seed: 0x51CE,
            num_instances: 1,
            num_spares: 0,
            num_stores: 2,
            num_backends: 4,
            num_muxes: 2,
            num_services: 1,
            pages_per_site: 8,
            yoda: YodaConfig {
                splice,
                http11_inspect: false,
                ..YodaConfig::default()
            },
            ..TestbedConfig::default()
        });
        let browser = tb.add_browser(
            0,
            BrowserConfig {
                processes: 4,
                ..BrowserConfig::default()
            },
        );
        // Warmup: policy install, first handshakes, first splice installs.
        tb.run_for(SimTime::from_millis(500));
        let events0 = tb.engine.events_processed();
        let completed0 = tb
            .engine
            .node_ref::<BrowserClient>(browser)
            .completed;
        let bytes0: u64 = tb
            .backends
            .iter()
            .map(|&b| tb.engine.node_ref::<OriginServer>(b).bytes_served)
            .sum();
        let spliced0: u64 = tb
            .muxes
            .iter()
            .map(|&m| tb.engine.node_ref::<Mux>(m).spliced)
            .sum();
        let tunneled0 = instance_tunneled(&tb);
        let t0 = Instant::now();
        tb.run_for(duration);
        let elapsed_ns = t0.elapsed().as_nanos().max(1);
        let completed = tb.engine.node_ref::<BrowserClient>(browser).completed - completed0;
        let bytes_served: u64 = tb
            .backends
            .iter()
            .map(|&b| tb.engine.node_ref::<OriginServer>(b).bytes_served)
            .sum::<u64>()
            - bytes0;
        let spliced: u64 = tb
            .muxes
            .iter()
            .map(|&m| tb.engine.node_ref::<Mux>(m).spliced)
            .sum::<u64>()
            - spliced0;
        let mss = MSS as u64;
        // Steady-state data packets: one request segment per completed
        // request plus the MSS-chunked response stream. Identical
        // formula in both legs, so the ns/packet ratio is meaningful.
        let data_packets = completed + bytes_served.div_ceil(mss);
        let b = tb.engine.node_mut::<BrowserClient>(browser);
        let p50_ms = b.request_latencies.percentile(50.0).unwrap_or(0.0);
        let p99_ms = b.request_latencies.percentile(99.0).unwrap_or(0.0);
        let m = SpliceRow {
            name,
            elapsed_ns,
            events: tb.engine.events_processed() - events0,
            data_packets,
            spliced,
            completed,
            bytes_served,
            digest: tb.engine.event_digest(),
            p50_ms,
            p99_ms,
            tunneled: instance_tunneled(&tb) - tunneled0,
        };
        assert!(m.completed > 0, "{name}: no request completed");
        if splice {
            assert!(m.spliced > 0, "{name}: fast path never used");
        } else {
            assert_eq!(m.spliced, 0, "{name}: fast path used with splice off");
        }
        if let Some(prev) = &best {
            assert_eq!(
                prev.digest, m.digest,
                "{name}: digest varies across repeats — engine is nondeterministic"
            );
        }
        if best.as_ref().is_none_or(|b| m.elapsed_ns < b.elapsed_ns) {
            best = Some(m);
        }
    }
    best.expect("at least one repeat")
}

/// Payload size of one pump segment in the forwarding micro-bench.
const PUMP_PAYLOAD: usize = 4096;
/// [`PUMP_PAYLOAD`] in sequence space.
const PUMP_STEP: u32 = PUMP_PAYLOAD as u32;
/// Self-clocked pump segments the backend driver keeps in flight.
const PUMP_WINDOW: usize = 8;
/// The single request that opens the pump flow (must parse and match
/// the installed `match *` rule).
const PUMP_REQUEST: &[u8] = b"GET / HTTP/1.0\r\n\r\n";
/// Fill bytes for the two pump directions — the drivers verify every
/// received segment against these, so the bench itself proves the
/// forwarded payloads are byte-identical in both modes.
const PUMP_S2C_FILL: u8 = 0xB5;
const PUMP_C2S_FILL: u8 = 0xC5;

fn pump_body(fill: u8) -> Bytes {
    Bytes::from(vec![fill; PUMP_PAYLOAD])
}

fn pump_ok(payload: &Bytes, fill: u8) -> bool {
    payload.len() == PUMP_PAYLOAD && payload.iter().all(|&b| b == fill)
}

/// Minimal client endpoint for the forwarding micro-bench: opens one
/// connection through the VIP and then answers every received pump
/// segment with a pump segment of its own. It reaches the muxes the same
/// way the edge router would — ECMP by rendezvous hash — but does no TCP
/// state machinery beyond sequence bookkeeping, so the measured cost is
/// the forwarding tier, not the endpoint.
struct PumpClient {
    me: Endpoint,
    vip: Endpoint,
    /// Backend endpoint for [`PumpMode::Direct`] calibration runs.
    origin: Endpoint,
    direct: bool,
    muxes: Vec<Addr>,
    isn: SeqNum,
    next_seq: SeqNum,
    connected: bool,
    received: u64,
    bad: u64,
}

impl PumpClient {
    fn new(me: Endpoint, vip: Endpoint, origin: Endpoint, muxes: Vec<Addr>, direct: bool) -> Self {
        let isn = SeqNum::new(5_000);
        PumpClient {
            me,
            vip,
            origin,
            direct,
            muxes,
            isn,
            next_seq: isn,
            connected: false,
            received: 0,
            bad: 0,
        }
    }

    fn seg(&self, seq: SeqNum, ack: SeqNum, flags: Flags, payload: Bytes) -> Segment {
        let dst = if self.direct { self.origin } else { self.vip };
        Segment {
            src_port: self.me.port,
            dst_port: dst.port,
            seq,
            ack,
            flags,
            window: 1 << 20,
            payload,
        }
    }

    fn via_mux(&self, seg: Segment) -> Option<Packet> {
        if self.direct {
            // Calibration: straight to the backend, no forwarding tier.
            return Some(seg.into_packet(self.me, self.origin));
        }
        let mux = rendezvous_pick(self.me, self.vip, &self.muxes)?;
        Some(seg.into_packet(self.me, self.vip).encapsulate(self.me.addr, mux))
    }
}

impl Node for PumpClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // First SYN fires after policy installation (t = 1 ms) plus the
        // controller's staggered VIP-map pushes to the muxes; on_timer
        // retransmits until the SYN-ACK lands, like a real client would.
        ctx.set_timer(SimTime::from_millis(50), TimerToken::new(0x50C5));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let Some(seg) = Segment::from_packet(&pkt) else {
            return;
        };
        if seg.flags.syn && seg.flags.ack {
            if self.connected {
                return;
            }
            self.connected = true;
            // Ride the request on the handshake-completing ACK.
            let req = self.seg(
                self.isn + 1,
                seg.seq + 1,
                Flags::ACK,
                Bytes::from_static(PUMP_REQUEST),
            );
            self.next_seq = self.isn + 1 + PUMP_REQUEST.len() as u32;
            if let Some(out) = self.via_mux(req) {
                ctx.send(out);
            }
            return;
        }
        if seg.payload.is_empty() {
            return;
        }
        self.received += 1;
        if !pump_ok(&seg.payload, PUMP_S2C_FILL) {
            self.bad += 1;
        }
        let data = self.seg(
            self.next_seq,
            seg.seq_end(),
            Flags::ACK,
            pump_body(PUMP_C2S_FILL),
        );
        self.next_seq += PUMP_STEP;
        if let Some(out) = self.via_mux(data) {
            ctx.send(out);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
        if self.connected {
            return;
        }
        let syn = self.seg(self.isn, SeqNum::new(0), Flags::SYN, Bytes::new());
        if let Some(pkt) = self.via_mux(syn) {
            ctx.send(pkt);
        }
        ctx.set_timer(SimTime::from_millis(100), TimerToken::new(0x50C5));
    }
}

/// Minimal origin endpoint for the forwarding micro-bench: completes the
/// backend handshake, then keeps [`PUMP_WINDOW`] self-clocked segments in
/// flight — each received pump segment triggers the next — so the
/// forwarding tier stays saturated for the whole measurement window.
struct PumpBackend {
    me: Endpoint,
    direct: bool,
    muxes: Vec<Addr>,
    isn: SeqNum,
    next_seq: SeqNum,
    pumping: bool,
    received: u64,
    bad: u64,
}

impl PumpBackend {
    fn new(me: Endpoint, muxes: Vec<Addr>, direct: bool) -> Self {
        let isn = SeqNum::new(9_000);
        PumpBackend {
            me,
            direct,
            muxes,
            isn,
            next_seq: isn,
            pumping: false,
            received: 0,
            bad: 0,
        }
    }

    fn reply(&self, to: Endpoint, seq: SeqNum, ack: SeqNum, flags: Flags, payload: Bytes) -> Option<Packet> {
        let seg = Segment {
            src_port: self.me.port,
            dst_port: to.port,
            seq,
            ack,
            flags,
            window: 1 << 20,
            payload,
        };
        if self.direct {
            return Some(seg.into_packet(self.me, to));
        }
        let mux = rendezvous_pick(self.me, to, &self.muxes)?;
        Some(seg.into_packet(self.me, to).encapsulate(self.me.addr, mux))
    }
}

impl Node for PumpBackend {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let vss = pkt.src;
        let Some(seg) = Segment::from_packet(&pkt) else {
            return;
        };
        if seg.flags.syn && !seg.flags.ack {
            self.next_seq = self.isn + 1;
            if let Some(out) = self.reply(vss, self.isn, seg.seq + 1, Flags::SYN_ACK, Bytes::new())
            {
                ctx.send(out);
            }
            return;
        }
        if seg.payload.is_empty() {
            return;
        }
        let burst = if self.pumping {
            self.received += 1;
            if !pump_ok(&seg.payload, PUMP_C2S_FILL) {
                self.bad += 1;
            }
            1 // one in, one out: the pump window stays constant
        } else {
            // The forwarded HTTP request: open the pump.
            self.pumping = true;
            PUMP_WINDOW
        };
        for _ in 0..burst {
            let out = self.reply(
                vss,
                self.next_seq,
                seg.seq_end(),
                Flags::ACK,
                pump_body(PUMP_S2C_FILL),
            );
            self.next_seq += PUMP_STEP;
            if let Some(out) = out {
                ctx.send(out);
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
}

/// Forwarding-tier micro-bench: the real mux/instance/store stack with
/// trivial driver endpoints (above), so host ns/packet measures the
/// forwarding path itself rather than browser and origin bookkeeping.
/// With `splice` off every data packet climbs to the L7 instance and back
/// (mux → instance → mux); with it on, the muxes rewrite in place and
/// forward below the instance. Both drivers verify every received payload
/// byte against the expected fill, so the two legs provably deliver
/// byte-identical streams.
///
/// `direct` runs the same pump straight between the two drivers with no
/// forwarding tier at all — a report-only reference for the flat
/// per-event simulator dispatch cost every leg pays.
fn splice_forward_run(
    name: &'static str,
    splice: bool,
    direct: bool,
    repeats: u32,
    duration: SimTime,
) -> SpliceRow {
    let mut best: Option<SpliceRow> = None;
    for _ in 0..repeats {
        let mut tb = Testbed::build(TestbedConfig {
            seed: 0x51CE2,
            num_instances: 1,
            num_spares: 0,
            num_stores: 2,
            num_backends: 1,
            num_muxes: 2,
            num_services: 1,
            pages_per_site: 4,
            yoda: YodaConfig {
                splice,
                http11_inspect: false,
                ..YodaConfig::default()
            },
            ..TestbedConfig::default()
        });
        let vip = tb.vips[0];
        let muxes = tb.mux_addrs.clone();
        let backend_ep = Endpoint::new(Addr::new(10, 1, 0, 99), 80);
        let client_ep = Endpoint::new(Addr::new(172, 16, 9, 9), 42_001);
        tb.set_policy_at(
            vip,
            &format!("name=pump priority=1 match * action=split {backend_ep}=1"),
            SimTime::from_millis(1),
        );
        let backend = tb.engine.add_node(
            "pump-backend",
            backend_ep.addr,
            Zone::Dc,
            Box::new(PumpBackend::new(backend_ep, muxes.clone(), direct)),
        );
        let client = tb.engine.add_node(
            "pump-client",
            client_ep.addr,
            Zone::Dc,
            Box::new(PumpClient::new(client_ep, vip, backend_ep, muxes, direct)),
        );
        // Warmup: handshake, flow storage, splice installation, pump spin-up.
        tb.run_for(SimTime::from_millis(200));
        let events0 = tb.engine.events_processed();
        let recv0 = tb.engine.node_ref::<PumpClient>(client).received
            + tb.engine.node_ref::<PumpBackend>(backend).received;
        let spliced0: u64 = tb
            .muxes
            .iter()
            .map(|&m| tb.engine.node_ref::<Mux>(m).spliced)
            .sum();
        let tunneled0 = instance_tunneled(&tb);
        let t0 = Instant::now();
        tb.run_for(duration);
        let elapsed_ns = t0.elapsed().as_nanos().max(1);
        let pc = tb.engine.node_ref::<PumpClient>(client);
        let pb = tb.engine.node_ref::<PumpBackend>(backend);
        let delivered = pc.received + pb.received - recv0;
        assert_eq!(
            pc.bad + pb.bad,
            0,
            "{name}: pump payload corrupted in flight"
        );
        let spliced: u64 = tb
            .muxes
            .iter()
            .map(|&m| tb.engine.node_ref::<Mux>(m).spliced)
            .sum::<u64>()
            - spliced0;
        let m = SpliceRow {
            name,
            elapsed_ns,
            events: tb.engine.events_processed() - events0,
            data_packets: delivered,
            spliced,
            completed: 1,
            bytes_served: delivered * PUMP_PAYLOAD as u64,
            digest: tb.engine.event_digest(),
            p50_ms: 0.0,
            p99_ms: 0.0,
            tunneled: instance_tunneled(&tb) - tunneled0,
        };
        if delivered == 0 {
            let inst = tb.instances[0];
            let yi = tb
                .engine
                .node_ref::<yoda_core::instance::YodaInstance>(inst);
            eprintln!(
                "DEBUG {name}: client recv={} backend recv={} pumping={} inst flows={} requests={} dropped={} mux fwd={:?}",
                pc.received,
                pb.received,
                pb.pumping,
                yi.live_flows(),
                yi.requests,
                yi.dropped_unknown,
                tb.muxes
                    .iter()
                    .map(|&m| {
                        let mx = tb.engine.node_ref::<Mux>(m);
                        (mx.forwarded, mx.dropped, mx.updates_applied)
                    })
                    .collect::<Vec<_>>(),
            );
        }
        assert!(delivered > 0, "{name}: pump never reached steady state");
        if splice && !direct {
            assert!(m.spliced > 0, "{name}: fast path never used");
        } else {
            assert_eq!(m.spliced, 0, "{name}: fast path used unexpectedly");
        }
        if let Some(prev) = &best {
            assert_eq!(
                prev.digest, m.digest,
                "{name}: digest varies across repeats — engine is nondeterministic"
            );
        }
        if best.as_ref().is_none_or(|b| m.elapsed_ns < b.elapsed_ns) {
            best = Some(m);
        }
    }
    best.expect("at least one repeat")
}

fn json_splice_block(mode: &str, rows: &[SpliceRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "  {{");
    let _ = writeln!(s, "    \"mode\": \"{mode}\",");
    let _ = writeln!(s, "    \"rows\": [");
    for (i, m) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      {{\"name\": \"{}\", \"events\": {}, \"data_packets\": {}, \"ns_per_packet\": {:.1}, \"tunneled\": {}, \"spliced\": {}, \"completed\": {}, \"bytes_served\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"digest\": \"{:#018x}\"}}{comma}",
            m.name,
            m.events,
            m.data_packets,
            m.ns_per_packet(),
            m.tunneled,
            m.spliced,
            m.completed,
            m.bytes_served,
            m.p50_ms,
            m.p99_ms,
            m.digest,
        );
    }
    let _ = writeln!(s, "    ]");
    let _ = write!(s, "  }}");
    s
}

fn json_block(mode: &str, results: &[Measurement]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "  {{");
    let _ = writeln!(s, "    \"mode\": \"{mode}\",");
    let _ = writeln!(s, "    \"scenarios\": [");
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      {{\"name\": \"{}\", \"events\": {}, \"events_per_sec\": {:.0}, \"ns_per_event\": {:.1}, \"digest\": \"{:#018x}\"}}{comma}",
            m.name,
            m.events,
            m.events_per_sec(),
            m.ns_per_event(),
            m.digest,
        );
    }
    let _ = writeln!(s, "    ]");
    let _ = write!(s, "  }}");
    s
}

/// Extracts the `"baseline": { ... }` block (balanced braces) from a
/// previously written report, so re-running the bench preserves the
/// pre-overhaul measurement forever.
fn extract_baseline(text: &str) -> Option<String> {
    let start = text.find("\"baseline\":")? + "\"baseline\":".len();
    let rest = &text[start..];
    let open = rest.find('{')?;
    let mut depth = 0usize;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[open..open + i + 1].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

fn main() {
    let cli = Cli::parse(
        "bench_engine",
        &[
            ("smoke", Arg::Flag),
            ("only", Arg::Str),
            ("update", Arg::Str),
        ],
    );
    let smoke = cli.flag("smoke");
    let (repeats, secs) = if smoke { (1, 1) } else { (3, 4) };
    let duration = SimTime::from_secs(secs);

    let wanted = |name: &str| cli.str("only").is_none_or(|o| o == name);
    let mut results = Vec::new();
    if wanted("pingpong_mesh") {
        results.push(measure("pingpong_mesh", repeats, duration, || {
            pingpong_mesh(512, 4)
        }));
    }
    if wanted("timer_churn") {
        results.push(measure("timer_churn", repeats, duration, || {
            timer_churn(64, 16)
        }));
    }
    if wanted("trace_ring") {
        results.push(measure("trace_ring", repeats, duration, || {
            trace_ring(512, 4)
        }));
    }
    if wanted("full_testbed") {
        results.push(measure("full_testbed", repeats, duration, full_testbed));
    }
    if !smoke {
        for m in &results {
            let committed = match m.name {
                "pingpong_mesh" | "trace_ring" => PINGPONG_DIGEST_FULL,
                "timer_churn" => CHURN_DIGEST_FULL,
                _ => TESTBED_DIGEST_FULL,
            };
            assert_eq!(
                m.digest, committed,
                "{} diverged from the committed baseline digest",
                m.name
            );
        }
    }

    // Spliced-vs-tunneled forwarding comparison (its digests are its own,
    // not the committed scenario baselines).
    let mut splice_rows = Vec::new();
    if wanted("splice") {
        // Forwarding-tier micro-bench. `forward_direct` is a report-only
        // reference for the endpoint + simulator-dispatch cost every leg
        // pays.
        splice_rows.push(splice_forward_run("forward_direct", false, true, repeats, duration));
        splice_rows.push(splice_forward_run("forward_tunneled", false, false, repeats, duration));
        splice_rows.push(splice_forward_run("forward_spliced", true, false, repeats, duration));
        // Full-workload testbed: request latency and workload-level byte
        // identity (identical bytes_served/completed across the legs).
        splice_rows.push(splice_run("testbed_tunneled", false, repeats, duration));
        splice_rows.push(splice_run("testbed_spliced", true, repeats, duration));
        assert_eq!(
            splice_rows[3].bytes_served, splice_rows[4].bytes_served,
            "spliced testbed must serve byte-identical responses"
        );
        assert_eq!(
            splice_rows[3].completed, splice_rows[4].completed,
            "spliced testbed must complete the same requests"
        );
        for m in &splice_rows {
            eprintln!(
                "{:17} {:>10} pkts    {:>12.1} ns/packet  tunneled {:>6.3}/pkt  p50 {:>7.2} ms  p99 {:>7.2} ms  digest {:#018x}",
                m.name,
                m.data_packets,
                m.ns_per_packet(),
                m.tunneled_per_packet(),
                m.p50_ms,
                m.p99_ms,
                m.digest,
            );
        }
        // The gate: deterministic, so it runs in smoke mode too. Splicing
        // must at least halve the instance's tunneled packets per
        // delivered data packet.
        let tunneled = splice_rows[1].tunneled_per_packet();
        let spliced = splice_rows[2].tunneled_per_packet();
        eprintln!(
            "{:17} instance-tunneled packets per data packet: {spliced:.3} spliced vs {tunneled:.3} tunneled",
            "splice"
        );
        assert!(
            spliced <= 0.5 * tunneled,
            "splicing must at least halve the instance-tunneled packets per data packet \
             (spliced {spliced:.3} vs tunneled {tunneled:.3})"
        );
    }

    for m in &results {
        eprintln!(
            "{:16} {:>10} events  {:>12.0} events/s  {:>8.1} ns/event  digest {:#018x}",
            m.name,
            m.events,
            m.events_per_sec(),
            m.ns_per_event(),
            m.digest,
        );
    }

    let mode = if smoke { "smoke" } else { "full" };
    let current = json_block(mode, &results);
    let splice_block = json_splice_block(mode, &splice_rows);
    let baseline = cli
        .str("update")
        .and_then(|path| std::fs::read_to_string(path).ok())
        .and_then(|text| extract_baseline(&text))
        .unwrap_or_else(|| current.clone());

    let report = format!(
        "{{\n  \"bench\": \"bench_engine\",\n  \"schema\": 5,\n  \"baseline\":\n{baseline},\n  \"current\":\n{current},\n  \"splice\":\n{splice_block}\n}}\n"
    );
    match cli.str("update") {
        Some(path) => {
            std::fs::write(path, &report).expect("write bench report");
            eprintln!("wrote {path}");
        }
        None => print!("{report}"),
    }
}
