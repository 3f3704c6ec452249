//! Reads every layer's public counters and histograms, and turns two
//! readings into the deltas of a timed window.

use std::collections::BTreeMap;

use yoda_core::controller::Controller;
use yoda_core::instance::YodaInstance;
use yoda_http::{BrowserClient, OriginServer, RateClient};
use yoda_l4lb::{EdgeRouter, Mux};
use yoda_netsim::{Histogram, NodeId};
use yoda_tcpstore::StoreServer;

use crate::kaclient::KaClient;
use crate::workload::{ClientKind, Scenario};

enum Val<'a> {
    Count(u64),
    Hist(&'a Histogram),
}

/// Calls `f(key, node, value)` for every counter and histogram of the
/// scenario. Engine-wide values use node `usize::MAX`.
fn visit(sc: &Scenario, f: &mut dyn FnMut(&'static str, usize, Val<'_>)) {
    let eng = &sc.tb.engine;
    let e = usize::MAX;
    f("engine.events", e, Val::Count(eng.events_processed()));
    f("engine.packets", e, Val::Count(eng.packets_sent()));
    f("engine.dropped", e, Val::Count(eng.packets_dropped()));
    f(
        "engine.timer_backlog",
        e,
        Val::Count(eng.timer_backlog() as u64),
    );

    let tb = &sc.tb;
    if let Some(r) = eng.try_node_ref::<EdgeRouter>(tb.router) {
        f("router.relayed", tb.router.0, Val::Count(r.relayed));
    }
    for &id in &tb.muxes {
        let Some(m) = eng.try_node_ref::<Mux>(id) else {
            continue;
        };
        let n = id.0;
        f("mux.forwarded", n, Val::Count(m.forwarded));
        f("mux.spliced", n, Val::Count(m.spliced));
        f("mux.dropped", n, Val::Count(m.dropped));
        f("mux.resteered", n, Val::Count(m.resteered));
        f("mux.flow_entries", n, Val::Count(m.flow_entries() as u64));
        f(
            "mux.splice_entries",
            n,
            Val::Count(m.splice_entries() as u64),
        );
    }
    for &id in &tb.instances {
        let Some(i) = eng.try_node_ref::<YodaInstance>(id) else {
            continue;
        };
        let n = id.0;
        f("inst.tunneled", n, Val::Count(i.tunneled_packets));
        f("inst.requests", n, Val::Count(i.requests));
        f("inst.switches", n, Val::Count(i.backend_switches));
        f("inst.splices", n, Val::Count(i.splices_installed));
        f("inst.recoveries", n, Val::Count(i.recoveries));
        f("inst.drop_overload", n, Val::Count(i.dropped_overload));
        f("inst.drop_unknown", n, Val::Count(i.dropped_unknown));
        f("inst.live_flows", n, Val::Count(i.live_flows() as u64));
        f("inst.degraded_entries", n, Val::Count(i.degraded_entries));
        f("inst.wb_dropped", n, Val::Count(i.wb_dropped));
        f("inst.storage_lat", n, Val::Hist(&i.storage_latency));
        f("inst.conn_lat", n, Val::Hist(&i.conn_latency));
        let c = i.store_client();
        f("sc.timeouts", n, Val::Count(c.timeouts));
        f("sc.hedges", n, Val::Count(c.hedges));
        f("sc.retries", n, Val::Count(c.retries));
        f("sc.quarantines", n, Val::Count(c.quarantines));
        f("sc.set_lat", n, Val::Hist(&c.set_latency));
        f("sc.get_lat", n, Val::Hist(&c.get_latency));
    }
    if let Some(c) = eng.try_node_ref::<Controller>(tb.controller) {
        f(
            "ctrl.failures",
            tb.controller.0,
            Val::Count(c.failures_detected),
        );
        f("ctrl.derates", tb.controller.0, Val::Count(c.derates));
    }
    for &id in &tb.stores {
        let Some(s) = eng.try_node_ref::<StoreServer>(id) else {
            continue;
        };
        let n = id.0;
        f("store.sets", n, Val::Count(s.sets));
        f("store.gets", n, Val::Count(s.gets));
        f("store.deletes", n, Val::Count(s.deletes));
        f("store.misses", n, Val::Count(s.misses));
    }
    for &id in &tb.backends {
        let Some(o) = eng.try_node_ref::<OriginServer>(id) else {
            continue;
        };
        let n = id.0;
        f("origin.requests", n, Val::Count(o.requests));
        f("origin.bytes", n, Val::Count(o.bytes_served));
        f("origin.probes", n, Val::Count(o.probes_answered));
    }
    for &id in &sc.clients {
        visit_client(sc, id, f);
    }
}

/// Client counters under one vocabulary: `completed` requests, failed
/// `timeouts`/`resets`/`stalls` (attempts), `broken` requests given up on,
/// `started` attempts, `in_flight` attempts, and the latency histogram.
fn visit_client(sc: &Scenario, id: NodeId, f: &mut dyn FnMut(&'static str, usize, Val<'_>)) {
    let eng = &sc.tb.engine;
    let n = id.0;
    match sc.kind {
        ClientKind::Rate => {
            let Some(c) = eng.try_node_ref::<RateClient>(id) else {
                return;
            };
            f("cl.completed", n, Val::Count(c.completed));
            f("cl.timeouts", n, Val::Count(c.timeouts));
            f("cl.resets", n, Val::Count(c.resets));
            f("cl.broken", n, Val::Count(c.timeouts + c.resets));
            f("cl.started", n, Val::Count(c.issued));
            f("cl.lat", n, Val::Hist(&c.latencies));
        }
        ClientKind::Browser => {
            let Some(c) = eng.try_node_ref::<BrowserClient>(id) else {
                return;
            };
            f("cl.completed", n, Val::Count(c.completed));
            f("cl.timeouts", n, Val::Count(c.timeouts));
            f("cl.resets", n, Val::Count(c.resets));
            f("cl.stalls", n, Val::Count(c.session_resets));
            f("cl.broken", n, Val::Count(c.broken_flows));
            f("cl.started", n, Val::Count(c.started_fetches));
            f("cl.in_flight", n, Val::Count(c.in_flight() as u64));
            f("cl.lat", n, Val::Hist(&c.request_latencies));
        }
        ClientKind::KeepAlive => {
            let Some(c) = eng.try_node_ref::<KaClient>(id) else {
                return;
            };
            f("cl.completed", n, Val::Count(c.completed));
            f("cl.timeouts", n, Val::Count(c.timeouts));
            f("cl.resets", n, Val::Count(c.resets));
            f("cl.broken", n, Val::Count(c.timeouts + c.resets));
            f("cl.started", n, Val::Count(c.sent));
            f("cl.in_flight", n, Val::Count(c.in_flight()));
            f("cl.bad", n, Val::Count(c.bad_responses));
            f("cl.lat", n, Val::Hist(&c.latencies));
        }
    }
}

/// One reading: each counter's value and each histogram's length, per node.
pub struct Snapshot(BTreeMap<(&'static str, usize), u64>);

impl Snapshot {
    pub fn take(sc: &Scenario) -> Snapshot {
        let mut m = BTreeMap::new();
        visit(sc, &mut |k, n, v| {
            let x = match v {
                Val::Count(c) => c,
                Val::Hist(h) => h.len() as u64,
            };
            m.insert((k, n), x);
        });
        Snapshot(m)
    }

    /// Sum over nodes of one counter.
    pub fn sum(&self, key: &str) -> u64 {
        self.0
            .iter()
            .filter(|((k, _), _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }
}

/// What happened between a start snapshot and the scenario's present.
pub struct Window {
    delta: BTreeMap<&'static str, u64>,
    end: BTreeMap<&'static str, u64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Window {
    pub fn since(start: &Snapshot, sc: &Scenario) -> Window {
        let mut w = Window {
            delta: BTreeMap::new(),
            end: BTreeMap::new(),
            samples: BTreeMap::new(),
        };
        // A node restarted inside the window counts from zero once its
        // counter (or sample count) is below the window-start reading.
        visit(sc, &mut |k, n, v| {
            let at_start = start.0.get(&(k, n)).copied().unwrap_or(0);
            match v {
                Val::Count(now) => {
                    let d = if now >= at_start { now - at_start } else { now };
                    *w.delta.entry(k).or_default() += d;
                    *w.end.entry(k).or_default() += now;
                }
                Val::Hist(h) => {
                    let all = h.samples();
                    let new = all.get(at_start as usize..).unwrap_or(all);
                    w.samples.entry(k).or_default().extend_from_slice(new);
                }
            }
        });
        w
    }

    /// Sum over nodes of the counter's growth in the window.
    pub fn delta(&self, key: &str) -> u64 {
        self.delta.get(key).copied().unwrap_or(0)
    }

    /// Sum over nodes of the counter's value at the window's end.
    pub fn end(&self, key: &str) -> u64 {
        self.end.get(key).copied().unwrap_or(0)
    }

    /// Histogram samples recorded in the window, in recording order per node.
    pub fn samples(&self, key: &str) -> &[f64] {
        self.samples.get(key).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Value at percentile `p` (nearest rank) of `sorted`, or 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorted copy of a sample list.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
