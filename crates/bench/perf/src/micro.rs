//! Layer microbenchmarks: timed calls to each layer's pure public
//! functions, on inputs generated from the workload's seed and taken from
//! the workload's own testbed (its rule table, request paths, store ring
//! and mux set).

use std::hint::black_box;

use bytes::Bytes;
use yoda_core::flowstate::FlowRecord;
use yoda_core::rules::{RuleTable, SelectCtx};
use yoda_http::{parse_request, HttpRequest};
use yoda_l4lb::rendezvous_pick;
use yoda_netsim::{
    Addr, Ctx, Endpoint, Engine, Node, Packet, Rng, SimTime, TimerToken, Topology, Zone,
};
use yoda_tcp::{Flags, Segment, SeqNum};
use yoda_tcpstore::{HashRing, StoreOp, StoreRequest, StoreResponse, StoreStatus};

use crate::clock::thread_cpu_ns;
use crate::workload::{Scenario, Workload};

/// Inputs per batch; each timed chunk cycles through the batch.
const BATCH: usize = 1024;
/// Timed chunks per microbenchmark; the reported figure is their median.
const CHUNKS: usize = 7;

/// `(metric name, ns per operation)` for every microbenchmark. Each gets
/// `budget_ns` of CPU in total.
pub fn run_all(sc: &Scenario, seed: u64, budget_ns: u64) -> Vec<(&'static str, f64)> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x6d_6963_726f);
    let chunk = budget_ns / CHUNKS as u64;
    let mut out = Vec::new();

    let eps: Vec<(Endpoint, Endpoint)> = (0..BATCH)
        .map(|_| {
            (
                random_client(&mut rng),
                sc.tb.vips[rng.gen_range(0..sc.tb.vips.len())],
            )
        })
        .collect();

    // netsim: bare dispatch, no-op nodes re-arming a timer.
    out.push(("netsim.dispatch_ns_per_event", dispatch_ns(seed, chunk)));

    // l4lb: the rendezvous choice every mux and the router make per flow.
    let muxes = sc.tb.mux_addrs.clone();
    out.push((
        "l4lb.rendezvous_pick_ns",
        time_ops(chunk, &eps, |&(a, b)| {
            black_box(rendezvous_pick(a, b, &muxes));
        }),
    ));

    // core.rules: the workload's own table for its first VIP, its own paths.
    let paths = &sc.vip0_paths;
    let reqs: Vec<HttpRequest> = (0..BATCH)
        .map(|i| {
            HttpRequest::get(paths[i % paths.len()].clone())
                .http11()
                .with_header("Host", "service0.test")
        })
        .collect();
    let mut table = RuleTable::parse(&sc.vip0_rules).unwrap_or_default();
    let select_ctx = SelectCtx::default();
    let mut pick_rng = Rng::seed_from_u64(seed);
    out.push((
        "core.rules.select_ns",
        time_ops(chunk, &reqs, |r| {
            black_box(table.select(r, &select_ctx, &mut pick_rng));
        }),
    ));

    // core.flowstate: storage-b record encode + decode.
    let backends: Vec<Endpoint> = sc.tb.service_backends.concat();
    let records: Vec<FlowRecord> = eps
        .iter()
        .map(|&(client, vip)| FlowRecord {
            client,
            vip,
            backend: backends[rng.gen_range(0..backends.len())],
            client_isn: SeqNum::new(rng.next_u32()),
            server_isn: SeqNum::new(rng.next_u32()),
        })
        .collect();
    out.push((
        "core.flowstate.codec_ns",
        time_ops(chunk, &records, |r| {
            black_box(FlowRecord::decode(&r.encode()));
        }),
    ));

    // tcpstore.proto: a set request and its reply, encode + decode.
    let store_reqs: Vec<(StoreRequest, StoreResponse)> = records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let req = StoreRequest {
                req_id: i as u64,
                op: StoreOp::Set,
                key: FlowRecord::key(r.client, r.vip),
                value: r.encode(),
            };
            let resp = StoreResponse {
                req_id: i as u64,
                op: StoreOp::Set,
                status: StoreStatus::Ok,
                value: Bytes::new(),
            };
            (req, resp)
        })
        .collect();
    out.push((
        "tcpstore.proto.codec_ns",
        time_ops(chunk, &store_reqs, |(q, p)| {
            black_box(StoreRequest::decode(&q.encode()));
            black_box(StoreResponse::decode(&p.encode()));
        }),
    ));

    // tcpstore.ring: replica placement for flow keys on the store tier.
    let ring = HashRing::new(&sc.tb.store_addrs, 64);
    let keys: Vec<Bytes> = store_reqs.iter().map(|(q, _)| q.key.clone()).collect();
    out.push((
        "tcpstore.ring.replicas_ns",
        time_ops(chunk, &keys, |k| {
            black_box(ring.replicas(k, 2));
        }),
    ));

    // tcp.segment: segment → packet → segment, at the workload's typical
    // payload size.
    let payload = Bytes::from(vec![0x5a; segment_payload(sc.workload)]);
    let segs: Vec<(Segment, Endpoint, Endpoint)> = eps
        .iter()
        .map(|&(client, vip)| {
            let seg = Segment {
                src_port: client.port,
                dst_port: vip.port,
                seq: SeqNum::new(rng.next_u32()),
                ack: SeqNum::new(rng.next_u32()),
                flags: Flags {
                    ack: true,
                    ..Flags::default()
                },
                window: 1 << 20,
                payload: payload.clone(),
            };
            (seg, client, vip)
        })
        .collect();
    out.push((
        "tcp.segment.codec_ns",
        time_ops(chunk, &segs, |(s, a, b)| {
            black_box(Segment::from_packet(&s.clone().into_packet(*a, *b)));
        }),
    ));

    // http: request parse, on the workload's own encoded requests.
    let wire: Vec<Bytes> = reqs.iter().map(HttpRequest::encode).collect();
    out.push((
        "http.parse_request_ns",
        time_ops(chunk, &wire, |w| {
            black_box(parse_request(w));
        }),
    ));
    out
}

/// Times `op` over `inputs`, cycling, in [`CHUNKS`] chunks of about
/// `chunk_ns` CPU each; returns the median chunk's ns per call.
fn time_ops<T>(chunk_ns: u64, inputs: &[T], mut op: impl FnMut(&T)) -> f64 {
    let mut per_op: Vec<f64> = (0..CHUNKS)
        .map(|_| {
            let t0 = thread_cpu_ns();
            let mut calls = 0u64;
            loop {
                for x in inputs {
                    op(black_box(x));
                }
                calls += inputs.len() as u64;
                let dt = thread_cpu_ns() - t0;
                if dt >= chunk_ns {
                    return dt as f64 / calls as f64;
                }
            }
        })
        .collect();
    per_op.sort_by(f64::total_cmp);
    per_op[CHUNKS / 2]
}

/// A node that does nothing but re-arm its own timer.
struct Idle {
    period: SimTime,
}

impl Node for Idle {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.period, TimerToken::new(1));
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        ctx.set_timer(self.period, token);
    }
}

/// Engine dispatch cost per event: 64 idle nodes with seeded timer
/// periods, stepped through the public `Engine` API.
fn dispatch_ns(seed: u64, chunk_ns: u64) -> f64 {
    let mut rng = Rng::seed_from_u64(seed);
    let mut eng = Engine::with_topology(seed, Topology::uniform(SimTime::from_micros(100)));
    for i in 0..64u32 {
        let period = SimTime::from_micros(rng.gen_range(50..5_000));
        let addr = Addr::from_u32(0x0a09_0000 + i);
        eng.add_node(
            format!("idle-{i}"),
            addr,
            Zone::Dc,
            Box::new(Idle { period }),
        );
    }
    let mut per_event: Vec<f64> = (0..CHUNKS)
        .map(|_| {
            let t0 = thread_cpu_ns();
            let e0 = eng.events_processed();
            loop {
                for _ in 0..BATCH {
                    eng.step();
                }
                let dt = thread_cpu_ns() - t0;
                if dt >= chunk_ns {
                    return dt as f64 / (eng.events_processed() - e0) as f64;
                }
            }
        })
        .collect();
    per_event.sort_by(f64::total_cmp);
    per_event[CHUNKS / 2]
}

fn random_client(rng: &mut Rng) -> Endpoint {
    Endpoint::new(
        Addr::new(172, 16, rng.gen_range(1..=2), rng.gen_range(1..=250)),
        rng.gen_range(33_000..61_000),
    )
}

/// Payload bytes of a typical data segment in the workload.
fn segment_payload(w: Workload) -> usize {
    match w {
        Workload::ConnChurn | Workload::KeepaliveSwitch => 200,
        Workload::BulkSpliced | Workload::FailoverMixed => 1460,
    }
}
