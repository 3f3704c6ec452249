//! Proxy-baseline testbed: the same topology as the Yoda testbed
//! (§7 *Setup*) with HAProxy-style instances in place of Yoda instances
//! and no TCPStore.

use std::sync::Arc;

use yoda_core::controller::Controller;
use yoda_http::{
    BrowserClient, BrowserConfig, OriginServer, RateClient, RateClientConfig, SiteCatalog,
    SiteConfig,
};
use yoda_l4lb::{EdgeRouter, Mux};
use yoda_netsim::{Addr, Endpoint, Engine, NodeId, SimTime, Topology, Zone};

use crate::instance::ProxyInstance;

/// Proxy testbed shape (network: [`Topology::azure_testbed`]).
#[derive(Debug, Clone)]
pub struct ProxyTestbedConfig {
    /// RNG seed.
    pub seed: u64,
    /// Proxy instances.
    pub num_instances: usize,
    /// Backends (split round-robin over services).
    pub num_backends: usize,
    /// L4 muxes.
    pub num_muxes: usize,
    /// Services/VIPs.
    pub num_services: usize,
    /// Pages per site.
    pub pages_per_site: usize,
}

impl Default for ProxyTestbedConfig {
    fn default() -> Self {
        ProxyTestbedConfig {
            seed: 42,
            num_instances: 10,
            num_backends: 30,
            num_muxes: 10,
            num_services: 4,
            pages_per_site: 60,
        }
    }
}

/// A built proxy testbed.
pub struct ProxyTestbed {
    /// The engine.
    pub engine: Engine,
    /// Controller node.
    pub controller: NodeId,
    /// Edge router.
    pub router: NodeId,
    /// Muxes.
    pub muxes: Vec<NodeId>,
    /// Proxy instance nodes.
    pub instances: Vec<NodeId>,
    /// Proxy instance addresses.
    pub instance_addrs: Vec<Addr>,
    /// Backend nodes.
    pub backends: Vec<NodeId>,
    /// Backends per service.
    pub service_backends: Vec<Vec<Endpoint>>,
    /// VIPs.
    pub vips: Vec<Endpoint>,
    /// Shared catalog.
    pub catalog: Arc<SiteCatalog>,
    next_client_host: u8,
}

impl ProxyTestbed {
    /// Assembles the proxy testbed with equal-split default policies.
    pub fn build(cfg: ProxyTestbedConfig) -> ProxyTestbed {
        let mut engine = Engine::with_topology(cfg.seed, Topology::azure_testbed());
        let router_addr = Addr::new(10, 0, 3, 1);
        let controller_addr = Addr::new(10, 0, 4, 1);
        let mux_addrs: Vec<Addr> =
            (1..=cfg.num_muxes as u8).map(|i| Addr::new(10, 0, 2, i)).collect();
        let instance_addrs: Vec<Addr> =
            (1..=cfg.num_instances as u8).map(|i| Addr::new(10, 0, 0, i)).collect();
        let backend_addrs: Vec<Addr> =
            (1..=cfg.num_backends as u8).map(|i| Addr::new(10, 1, 0, i)).collect();
        let vips: Vec<Endpoint> = (1..=cfg.num_services as u8)
            .map(|i| Endpoint::new(Addr::new(100, 0, 0, i), 80))
            .collect();

        let site_cfgs: Vec<SiteConfig> = (0..cfg.num_services)
            .map(|s| SiteConfig {
                pages: cfg.pages_per_site,
                embedded_per_page: (4, 12),
                host: format!("service{s}.test"),
            })
            .collect();
        let catalog = Arc::new(SiteCatalog::generate(cfg.seed, &site_cfgs));

        let router = engine.add_node(
            "router",
            router_addr,
            Zone::Dc,
            Box::new(EdgeRouter::new(router_addr, mux_addrs.clone())),
        );
        for vip in &vips {
            engine.add_addr(router, vip.addr);
        }
        let muxes: Vec<NodeId> = mux_addrs
            .iter()
            .map(|&m| engine.add_node(format!("mux-{m}"), m, Zone::Dc, Box::new(Mux::new(m))))
            .collect();
        let instances: Vec<NodeId> = instance_addrs
            .iter()
            .map(|&a| {
                engine.add_node(
                    format!("haproxy-{a}"),
                    a,
                    Zone::Dc,
                    Box::new(ProxyInstance::new(a)),
                )
            })
            .collect();
        let mut service_backends: Vec<Vec<Endpoint>> = vec![Vec::new(); cfg.num_services];
        let backends: Vec<NodeId> = backend_addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let ep = Endpoint::new(a, 80);
                service_backends[i % cfg.num_services].push(ep);
                engine.add_node(
                    format!("backend-{a}"),
                    a,
                    Zone::Dc,
                    Box::new(OriginServer::new(ep, catalog.clone())),
                )
            })
            .collect();

        let mut controller_node = Controller::new(None, controller_addr);
        controller_node.set_l4(router_addr, mux_addrs.clone());
        for &a in &instance_addrs {
            controller_node.register_instance(a);
        }
        for sb in &service_backends {
            for &ep in sb {
                controller_node.register_backend(ep);
            }
        }
        let controller =
            engine.add_node("controller", controller_addr, Zone::Dc, Box::new(controller_node));

        let mut tb = ProxyTestbed {
            engine,
            controller,
            router,
            muxes,
            instances,
            instance_addrs,
            backends,
            service_backends,
            vips,
            catalog,
            next_client_host: 1,
        };
        for (s, vip) in tb.vips.clone().into_iter().enumerate() {
            let rules = tb.equal_split_rules(s);
            tb.set_policy(vip, &rules);
        }
        tb
    }

    /// Equal-weight split rule text for a service.
    pub fn equal_split_rules(&self, service: usize) -> String {
        let backends: Vec<String> = self.service_backends[service]
            .iter()
            .map(|b| format!("{b}=1"))
            .collect();
        format!(
            "name=default-{service} priority=1 match * action=split {}",
            backends.join(" ")
        )
    }

    /// Applies a policy through the controller.
    pub fn set_policy(&mut self, vip: Endpoint, rules_text: &str) {
        let controller = self.controller;
        let rules = rules_text.to_string();
        let instances = self.instance_addrs.clone();
        self.engine.schedule(self.engine.now(), move |eng| {
            eng.with_node_ctx::<Controller>(controller, move |c, ctx| {
                if c.has_vip(vip) {
                    c.update_policy(ctx, vip, &rules);
                } else {
                    c.add_vip(ctx, vip, &rules, instances);
                }
            });
        });
    }

    /// Attaches a browser for a service.
    pub fn add_browser(&mut self, service: usize, cfg: BrowserConfig) -> NodeId {
        let addr = self.next_client_addr();
        let cfg = BrowserConfig {
            site: service,
            target: self.vips[service],
            host: format!("service{service}.test"),
            ..cfg
        };
        self.engine.add_node(
            format!("browser-{addr}"),
            addr,
            Zone::External,
            Box::new(BrowserClient::new(cfg, addr, self.catalog.clone())),
        )
    }

    /// Attaches an open-loop rate client for a service.
    pub fn add_rate_client(&mut self, service: usize, cfg: RateClientConfig) -> NodeId {
        let addr = self.next_client_addr();
        let cfg = RateClientConfig {
            site: service,
            target: self.vips[service],
            host: format!("service{service}.test"),
            ..cfg
        };
        self.engine.add_node(
            format!("rate-{addr}"),
            addr,
            Zone::External,
            Box::new(RateClient::new(cfg, addr, self.catalog.clone())),
        )
    }

    fn next_client_addr(&mut self) -> Addr {
        let host = self.next_client_host;
        self.next_client_host = self.next_client_host.wrapping_add(1);
        Addr::new(172, 16, 1, host)
    }

    /// Fails proxy instance `i` at `at`.
    pub fn fail_instance_at(&mut self, i: usize, at: SimTime) {
        let id = self.instances[i];
        self.engine.schedule(at, move |eng| eng.fail_node(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_serves_pages() {
        let mut tb = ProxyTestbed::build(ProxyTestbedConfig {
            num_instances: 3,
            num_backends: 6,
            num_muxes: 2,
            num_services: 1,
            pages_per_site: 10,
            ..ProxyTestbedConfig::default()
        });
        let browser = tb.add_browser(
            0,
            BrowserConfig {
                processes: 3,
                max_pages: Some(2),
                ..BrowserConfig::default()
            },
        );
        tb.engine.run_for(SimTime::from_secs(60));
        let b = tb.engine.node_ref::<BrowserClient>(browser);
        assert_eq!(b.pages_completed, 6);
        assert_eq!(b.broken_flows, 0);
        let total: u64 = tb
            .instances
            .iter()
            .map(|&i| tb.engine.node_ref::<ProxyInstance>(i).requests)
            .sum();
        assert_eq!(total, b.completed);
    }

    #[test]
    fn proxy_failure_breaks_flows() {
        // The paper's Problem 1: kill a proxy mid-run; its flows hang and
        // (with no browser retry) time out.
        let mut tb = ProxyTestbed::build(ProxyTestbedConfig {
            num_instances: 2,
            num_backends: 4,
            num_muxes: 2,
            num_services: 1,
            pages_per_site: 10,
            ..ProxyTestbedConfig::default()
        });
        let browser = tb.add_browser(
            0,
            BrowserConfig {
                processes: 6,
                max_pages: Some(4),
                http_timeout: SimTime::from_secs(10),
                retries: 0,
                ..BrowserConfig::default()
            },
        );
        tb.fail_instance_at(0, SimTime::from_secs(3));
        tb.engine.run_for(SimTime::from_secs(240));
        let b = tb.engine.node_ref::<BrowserClient>(browser);
        assert!(
            b.timeouts > 0,
            "flows through the dead proxy must hit the HTTP timeout"
        );
        assert!(b.broken_flows > 0, "noretry leaves flows broken");
    }
}
