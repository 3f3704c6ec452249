//! The four traffic mixes. Each is a pure function of the seed: testbed,
//! clients and fault script are all fixed at simulated time zero, so a
//! run is one `Engine` driven forward with no harness action in between
//! (which is what lets the traced run replay it with `Engine::step`).

use std::sync::Arc;

use yoda_core::instance::YodaConfig;
use yoda_core::testbed::{Testbed, TestbedConfig};
use yoda_http::{BrowserConfig, RateClientConfig};
use yoda_netsim::{Addr, NodeId, SimTime, Zone};
use yoda_tcpstore::StoreServerConfig;

use crate::kaclient::{class_of, KaClient, KaConfig, Target, CLASSES};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ConnChurn,
    BulkSpliced,
    KeepaliveSwitch,
    FailoverMixed,
}

const ALL: [Workload; 4] = [
    Workload::ConnChurn,
    Workload::BulkSpliced,
    Workload::KeepaliveSwitch,
    Workload::FailoverMixed,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ConnChurn => "conn_churn",
            Workload::BulkSpliced => "bulk_spliced",
            Workload::KeepaliveSwitch => "keepalive_switch",
            Workload::FailoverMixed => "failover_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated phases: `[0, warmup)` is set-up, `[warmup, warmup +
    /// window)` is timed, and `drain` more lets in-flight requests
    /// finish (untimed) before the end-of-run checks.
    pub fn phases(self) -> Phases {
        let s = SimTime::from_secs;
        match self {
            Workload::ConnChurn => Phases {
                warmup: s(3),
                window: s(12),
                drain: s(3),
            },
            Workload::BulkSpliced => Phases {
                warmup: s(6),
                window: s(30),
                drain: s(0),
            },
            Workload::KeepaliveSwitch => Phases {
                warmup: s(10),
                window: s(30),
                drain: s(3),
            },
            Workload::FailoverMixed => Phases {
                warmup: s(5),
                window: s(26),
                drain: s(0),
            },
        }
    }

    /// The latency percentile reported as `lat_tail_ms`: the highest one
    /// with at least [`TAIL_BEYOND`] samples above it at this size (every
    /// run checks that it still has them), except on `failover_mixed`.
    /// There the faults leave only 10–20 timed-out-and-retried requests,
    /// so any percentile above p99 lands between sparse clusters and moved
    /// 7.7–10.4 s across five seeds; p95 is the highest that repeats.
    pub fn tail_pct(self) -> f64 {
        match self {
            Workload::ConnChurn => 99.9,
            Workload::BulkSpliced => 95.0,
            Workload::KeepaliveSwitch => 99.9,
            Workload::FailoverMixed => 95.0,
        }
    }

    /// Whether the workload injects faults (every other one must finish
    /// with zero broken flows and zero failed requests).
    pub fn faulty(self) -> bool {
        self == Workload::FailoverMixed
    }
}

/// Samples a tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub warmup: SimTime,
    pub window: SimTime,
    pub drain: SimTime,
}

/// Which client node type a scenario attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientKind {
    Rate,
    Browser,
    KeepAlive,
}

/// A built testbed with its clients attached and faults scheduled.
pub struct Scenario {
    pub workload: Workload,
    pub tb: Testbed,
    pub kind: ClientKind,
    pub clients: Vec<NodeId>,
    /// `keepalive_switch`: the backend node each object class is routed to.
    pub class_backends: Vec<NodeId>,
    /// The rule text installed on the first VIP.
    pub vip0_rules: String,
    /// The object paths clients request from the first VIP.
    pub vip0_paths: Vec<String>,
}

/// When a workload's own rules replace the testbed's default split. Set at
/// time zero, next to the default VIP installation, they did not take
/// effect.
const POLICY_AT: SimTime = SimTime::from_millis(500);
/// Open-loop rate per conn_churn VIP (req/s, simulated).
const CHURN_RATE: f64 = 250.0;
/// bulk_spliced: browser processes per service.
const BULK_PROCESSES: usize = 12;
/// keepalive_switch: client nodes × users each.
const KA_NODES: usize = 8;
const KA_USERS: usize = 300;
/// Ports reserved per keep-alive node: its users plus replacements.
const KA_PORTS: usize = 3_000;
/// failover_mixed: browser processes per service.
const FAILOVER_PROCESSES: usize = 30;

pub fn build(workload: Workload, seed: u64) -> Scenario {
    let phases = workload.phases();
    let mut cfg = TestbedConfig {
        seed,
        ..TestbedConfig::default()
    };
    match workload {
        Workload::ConnChurn => {}
        Workload::BulkSpliced => {
            cfg.yoda = YodaConfig {
                splice: true,
                http11_inspect: false,
                ..YodaConfig::default()
            };
        }
        Workload::KeepaliveSwitch => {
            cfg.yoda = YodaConfig {
                splice: true,
                http11_inspect: true,
                ..YodaConfig::default()
            };
        }
        Workload::FailoverMixed => {
            // A store tier slow enough (8 ms/op, as in the brownout
            // experiment) that a 10× slowdown saturates it and engages
            // hedging, quarantine and degraded mode.
            cfg.store = StoreServerConfig {
                per_op_service: SimTime::from_millis(8),
                ..StoreServerConfig::default()
            };
        }
    }
    let mut tb = Testbed::build(cfg);
    let mut class_backends = Vec::new();
    let mut vip0_rules = tb.equal_split_rules(0);
    let mut vip0_paths: Vec<String> = tb
        .catalog
        .site(0)
        .objects
        .iter()
        .map(|o| o.path.clone())
        .collect();
    let (kind, clients) = match workload {
        Workload::ConnChurn => {
            // Two VIPs keep the static equal split, two use Prequal
            // probing, so probe traffic is part of the mix.
            for s in 2..tb.vips.len() {
                let backends: Vec<String> = tb.service_backends[s]
                    .iter()
                    .map(|b| b.to_string())
                    .collect();
                let rules = format!(
                    "name=pq-{s} priority=1 match * action=prequal {}",
                    backends.join(" ")
                );
                tb.set_policy_at(tb.vips[s], &rules, POLICY_AT);
            }
            vip0_paths = vec![smallest_object(&tb, 0)];
            let ids = (0..tb.vips.len())
                .map(|s| {
                    let smallest = smallest_object(&tb, s);
                    tb.add_rate_client(
                        s,
                        RateClientConfig {
                            rate_per_sec: CHURN_RATE,
                            object_path: Some(smallest),
                            duration: Some(phases.warmup + phases.window),
                            ..RateClientConfig::default()
                        },
                    )
                })
                .collect();
            (ClientKind::Rate, ids)
        }
        Workload::BulkSpliced => {
            vip0_paths = vec![largest_object(&tb, 0)];
            let ids = (0..tb.vips.len())
                .map(|s| {
                    let largest = largest_object(&tb, s);
                    tb.add_browser(
                        s,
                        BrowserConfig {
                            processes: BULK_PROCESSES,
                            fixed_object: Some(largest),
                            ..BrowserConfig::default()
                        },
                    )
                })
                .collect();
            (ClientKind::Browser, ids)
        }
        Workload::KeepaliveSwitch => {
            let b = &tb.service_backends[0];
            let rules = format!(
                "name=jpg priority=3 match url=*.jpg action=split {}=1\n\
                 name=css priority=3 match url=*.css action=split {}=1\n\
                 name=rest priority=1 match * action=split {}=1",
                b[0], b[1], b[2]
            );
            tb.set_policy_at(tb.vips[0], &rules, POLICY_AT);
            vip0_rules = rules;
            // Service s's j-th backend is testbed backend j·services + s.
            class_backends = (0..CLASSES)
                .map(|j| tb.backends[j * tb.vips.len()])
                .collect();
            let targets = Arc::new(small_targets(&tb, 0));
            vip0_paths = targets.iter().flatten().map(|t| t.path.clone()).collect();
            let ids = (0..KA_NODES)
                .map(|n| {
                    let addr = Addr::new(172, 16, 2, n as u8 + 1);
                    let cfg = KaConfig {
                        vip: tb.vips[0],
                        host: "service0.test".to_string(),
                        targets: targets.clone(),
                        users: KA_USERS,
                        think_ms: (2_000, 8_000),
                        stop_at: phases.warmup + phases.window,
                        timeout: SimTime::from_secs(10),
                        port_base: (n * KA_PORTS) as u16,
                    };
                    tb.engine.add_node(
                        format!("ka-{addr}"),
                        addr,
                        Zone::External,
                        Box::new(KaClient::new(cfg, addr)),
                    )
                })
                .collect();
            (ClientKind::KeepAlive, ids)
        }
        Workload::FailoverMixed => {
            let ids = (0..tb.vips.len())
                .map(|s| {
                    tb.add_browser(
                        s,
                        BrowserConfig {
                            processes: FAILOVER_PROCESSES,
                            retries: 1,
                            http_timeout: SimTime::from_secs(10),
                            ..BrowserConfig::default()
                        },
                    )
                })
                .collect();
            // Fault script, relative to the end of warm-up: one instance,
            // one mux and one store die and come back (overlapping), then
            // the whole store tier runs 10× slow for 4 s.
            let t = |secs: u64| phases.warmup + SimTime::from_secs(secs);
            tb.fail_instance_at(0, t(1));
            tb.restore_instance_at(0, t(7));
            tb.fail_mux_at(0, t(3));
            tb.restore_mux_at(0, t(9));
            tb.fail_store_at(0, t(5));
            tb.restore_store_at(0, t(11));
            for i in 0..tb.stores.len() {
                tb.slowdown_store_at(i, 10.0, t(13));
                tb.slowdown_store_at(i, 1.0, t(17));
            }
            (ClientKind::Browser, ids)
        }
    };
    Scenario {
        workload,
        tb,
        kind,
        clients,
        class_backends,
        vip0_rules,
        vip0_paths,
    }
}

fn smallest_object(tb: &Testbed, site: usize) -> String {
    let objects = &tb.catalog.site(site).objects;
    let o = objects.iter().min_by_key(|o| (o.size, o.path.clone()));
    o.map(|o| o.path.clone()).unwrap_or_default()
}

fn largest_object(tb: &Testbed, site: usize) -> String {
    let objects = &tb.catalog.site(site).objects;
    let o = objects.iter().max_by_key(|o| (o.size, o.path.clone()));
    o.map(|o| o.path.clone()).unwrap_or_default()
}

/// Keep-alive response bodies are 8–12 KiB: six to nine segments, inside
/// TCP's initial window of ten. A share of such responses on a reused
/// connection takes a second round trip; with the band fixed that share,
/// and so the tail percentile, does not hinge on which sizes a seed's
/// catalog happens to offer.
const KA_BODY: std::ops::RangeInclusive<usize> = 8 * 1024..=12 * 1024;

/// Up to four of the smallest objects of each class within [`KA_BODY`],
/// so keep-alive requests cost mostly their per-request path rather than
/// body transfer.
fn small_targets(tb: &Testbed, site: usize) -> [Vec<Target>; CLASSES] {
    let mut by_class: [Vec<Target>; CLASSES] = Default::default();
    for o in tb
        .catalog
        .site(site)
        .objects
        .iter()
        .filter(|o| KA_BODY.contains(&o.size))
    {
        if let Some(group) = by_class.get_mut(class_of(&o.path)) {
            group.push(Target {
                path: o.path.clone(),
                size: o.size,
            });
        }
    }
    for group in &mut by_class {
        group.sort_by(|a, b| (a.size, &a.path).cmp(&(b.size, &b.path)));
        group.truncate(4);
    }
    by_class
}
