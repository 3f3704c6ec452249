//! The traced run: the same scenario stepped one event at a time with the
//! engine's packet trace on, each step's CPU time charged to the layer of
//! the node it ran.

use std::collections::BTreeMap;

use yoda_netsim::{NameId, TraceKind};

use crate::clock::thread_cpu_ns;
use crate::workload::{build, Workload};

/// Layers a step can be charged to, in report order.
pub const LAYERS: [&str; 8] = [
    "router",
    "mux",
    "instance",
    "store",
    "origin",
    "client",
    "controller",
    "engine",
];
const ENGINE: usize = 7;

/// Trace records kept per step. Every `PacketSent` record of a step names
/// the node whose handler ran, so attribution survives a step that
/// overflows the ring and loses its `PacketDelivered` record.
const STEP_TRACE_CAP: usize = 256;

fn layer_of(name: &str) -> usize {
    let prefixes: [(&str, usize); 9] = [
        ("router", 0),
        ("mux-", 1),
        ("yoda-", 2),
        ("store-", 3),
        ("backend-", 4),
        ("rate-", 5),
        ("browser-", 5),
        ("ka-", 5),
        ("controller", 6),
    ];
    prefixes
        .iter()
        .find(|(p, _)| name.starts_with(p))
        .map_or(ENGINE, |&(_, l)| l)
}

pub struct TraceOut {
    /// Events stepped and the event digest after them.
    pub events: u64,
    pub digest: u64,
    /// Total CPU of the traced run: build, every step, attribution.
    pub total_cpu_ns: u64,
    /// Per layer: summed step CPU and step count.
    pub layer_ns: [u64; LAYERS.len()],
    pub layer_steps: [u64; LAYERS.len()],
}

/// Builds the workload's scenario and steps it with tracing on until
/// `events` events have run (the untraced run's count at the end of its
/// timed window). A step is charged to the node its packet was delivered
/// to, else to the node that sent packets during it, else to `engine`.
pub fn run(workload: Workload, seed: u64, events: u64) -> TraceOut {
    let t0 = thread_cpu_ns();
    let mut sc = build(workload, seed);
    let eng = &mut sc.tb.engine;
    eng.enable_trace(STEP_TRACE_CAP);
    let mut layer_by_name: BTreeMap<NameId, usize> = BTreeMap::new();
    let mut layer_ns = [0u64; LAYERS.len()];
    let mut layer_steps = [0u64; LAYERS.len()];
    while eng.events_processed() < events {
        let s0 = thread_cpu_ns();
        if !eng.step() {
            break;
        }
        let dt = thread_cpu_ns() - s0;
        let node = {
            let recs = eng.trace().events();
            recs.iter()
                .find(|e| e.kind == TraceKind::PacketDelivered)
                .or_else(|| recs.iter().find(|e| e.kind == TraceKind::PacketSent))
                .map(|e| e.node)
        };
        let layer = match node {
            Some(id) => *layer_by_name
                .entry(id)
                .or_insert_with(|| layer_of(eng.names().resolve(id))),
            None => ENGINE,
        };
        layer_ns[layer] += dt;
        layer_steps[layer] += 1;
        // A fresh sink per step: the next step's records stand alone.
        eng.enable_trace(STEP_TRACE_CAP);
    }
    TraceOut {
        events: eng.events_processed(),
        digest: eng.event_digest(),
        total_cpu_ns: thread_cpu_ns() - t0,
        layer_ns,
        layer_steps,
    }
}
