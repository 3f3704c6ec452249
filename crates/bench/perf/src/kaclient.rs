//! HTTP/1.1 keep-alive client for the `keepalive_switch` workload.
//!
//! Each simulated user holds one persistent connection to the VIP and
//! issues one request at a time on it, pausing a random think time
//! between requests. Successive requests name objects of different
//! classes (`.jpg`, `.css`, other) whose rules send them to different
//! backends, so the instance reassembles, parses and matches every
//! request and switches the backend leg mid-connection (paper §5.2).
//! Built only on the public `TcpStack` and `HttpRequest` API.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::BytesMut;
use yoda_http::{parse_response, HttpRequest};
use yoda_netsim::{Addr, Ctx, Endpoint, Histogram, Node, Packet, SimTime, TimerToken};
use yoda_tcp::{ConnId, TcpConfig, TcpEvent, TcpStack, TCP_TIMER_KIND};

const THINK_KIND: u32 = 0xCA01;
const TIMEOUT_KIND: u32 = 0xCA02;

/// Object classes; each has its own rule and backend.
pub const CLASSES: usize = 3;

/// The class of a request path: 0 `.jpg`, 1 `.css`, 2 anything else.
pub fn class_of(path: &str) -> usize {
    if path.ends_with(".jpg") {
        0
    } else if path.ends_with(".css") {
        1
    } else {
        2
    }
}

/// One requestable object.
#[derive(Debug, Clone)]
pub struct Target {
    pub path: String,
    pub size: usize,
}

/// Client behaviour shared by every user of one node.
#[derive(Debug, Clone)]
pub struct KaConfig {
    pub vip: Endpoint,
    pub host: String,
    /// Objects to request, grouped by class.
    pub targets: Arc<[Vec<Target>; CLASSES]>,
    /// Concurrent users (one connection each) on this node.
    pub users: usize,
    /// Think time between a response and the next request, drawn
    /// uniformly from this range (ms).
    pub think_ms: (u64, u64),
    /// No request starts at or after this time; open connections close.
    pub stop_at: SimTime,
    /// A request with no full response after this long counts as timed
    /// out and its connection is replaced.
    pub timeout: SimTime,
    /// Offset of this node's ephemeral ports. Yoda reuses the client's
    /// port on the backend leg, so clients of one VIP need disjoint ports.
    pub port_base: u16,
}

#[derive(Debug, Default)]
struct User {
    conn: Option<ConnId>,
    buf: BytesMut,
    /// `(class, expected body size, sent at, request number)`.
    inflight: Option<(usize, usize, SimTime, u64)>,
    requests: u64,
}

/// Keep-alive client node. Counters are read by the benchmark after the run.
pub struct KaClient {
    cfg: KaConfig,
    addr: Addr,
    stack: TcpStack,
    users: Vec<User>,
    by_conn: BTreeMap<ConnId, usize>,
    /// Request → full response latency of each completed request, ms.
    pub latencies: Histogram,
    /// Requests sent.
    pub sent: u64,
    /// Requests answered in full.
    pub completed: u64,
    /// Requests unanswered after `timeout` (their connection is replaced).
    pub timeouts: u64,
    /// Requests whose connection was reset under them.
    pub resets: u64,
    /// Responses whose status was not 200 or whose body length differs
    /// from the catalog object's size.
    pub bad_responses: u64,
    /// Completed requests per object class.
    pub per_class: [u64; CLASSES],
}

impl KaClient {
    pub fn new(cfg: KaConfig, addr: Addr) -> KaClient {
        let users = (0..cfg.users).map(|_| User::default()).collect();
        let mut stack = TcpStack::new(TcpConfig::default());
        stack.set_ephemeral_base(cfg.port_base);
        KaClient {
            cfg,
            addr,
            stack,
            users,
            by_conn: BTreeMap::new(),
            latencies: Histogram::new(),
            sent: 0,
            completed: 0,
            timeouts: 0,
            resets: 0,
            bad_responses: 0,
            per_class: [0; CLASSES],
        }
    }

    /// Requests sent but not yet answered, timed out or reset.
    pub fn in_flight(&self) -> u64 {
        self.users.iter().filter(|u| u.inflight.is_some()).count() as u64
    }

    fn think(&mut self, ctx: &mut Ctx<'_>, user: usize) {
        let (lo, hi) = self.cfg.think_ms;
        let ms = ctx.node_rng().gen_range(lo..hi);
        ctx.set_timer(
            SimTime::from_millis(ms),
            TimerToken::new(THINK_KIND).with_a(user as u64),
        );
    }

    fn connect(&mut self, ctx: &mut Ctx<'_>, user: usize) {
        let local = Endpoint::new(self.addr, self.stack.ephemeral_port());
        let conn = self.stack.connect(ctx, local, self.cfg.vip);
        self.by_conn.insert(conn, user);
        if let Some(u) = self.users.get_mut(user) {
            u.conn = Some(conn);
            u.buf = BytesMut::new();
        }
    }

    /// The user's think time is over: send its next request, or close
    /// once the run is past `stop_at`.
    fn next_request(&mut self, ctx: &mut Ctx<'_>, user: usize) {
        let Some(conn) = self.users.get(user).and_then(|u| u.conn) else {
            if ctx.now() < self.cfg.stop_at {
                self.connect(ctx, user);
            }
            return;
        };
        if ctx.now() >= self.cfg.stop_at {
            self.stack.close(ctx, conn);
            return;
        }
        let class = ctx.node_rng().gen_range(0..CLASSES);
        let Some(group) = self.cfg.targets.get(class).filter(|g| !g.is_empty()) else {
            return;
        };
        let pick = ctx.node_rng().gen_range(0..group.len());
        let Some(target) = group.get(pick) else {
            return;
        };
        let req = HttpRequest::get(target.path.clone())
            .http11()
            .with_header("Host", self.cfg.host.clone())
            .encode();
        let size = target.size;
        let Some(u) = self.users.get_mut(user) else {
            return;
        };
        u.requests += 1;
        u.inflight = Some((class, size, ctx.now(), u.requests));
        let token = TimerToken::new(TIMEOUT_KIND)
            .with_a(user as u64)
            .with_b(u.requests);
        self.sent += 1;
        self.stack.send(ctx, conn, &req);
        ctx.set_timer(self.cfg.timeout, token);
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let Some(&user) = self.by_conn.get(&conn) else {
            return;
        };
        let data = self.stack.recv(conn);
        let Some(u) = self.users.get_mut(user) else {
            return;
        };
        u.buf.extend_from_slice(&data);
        let Some((resp, used)) = parse_response(&u.buf) else {
            return;
        };
        let _ = u.buf.split_to(used);
        let Some((class, size, sent_at, _)) = u.inflight.take() else {
            // A response nobody is waiting for.
            self.bad_responses += 1;
            return;
        };
        if resp.status != 200 || resp.body.len() != size {
            self.bad_responses += 1;
        }
        self.completed += 1;
        if let Some(c) = self.per_class.get_mut(class) {
            *c += 1;
        }
        self.latencies
            .record_time_ms(ctx.now().saturating_sub(sent_at));
        self.think(ctx, user);
    }

    /// The connection failed under a user: count its request and start
    /// over on a fresh connection after a think time.
    fn drop_conn(&mut self, ctx: &mut Ctx<'_>, user: usize, abort: bool) {
        let Some(u) = self.users.get_mut(user) else {
            return;
        };
        u.inflight = None;
        if let Some(conn) = u.conn.take() {
            self.by_conn.remove(&conn);
            if abort {
                self.stack.abort(ctx, conn);
            }
        }
        self.think(ctx, user);
    }

    fn on_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<TcpEvent>) {
        for ev in events {
            match ev {
                TcpEvent::Connected(conn) => {
                    if let Some(&user) = self.by_conn.get(&conn) {
                        self.next_request(ctx, user);
                    }
                }
                TcpEvent::Data(conn) => self.on_data(ctx, conn),
                TcpEvent::Reset(conn) => {
                    if let Some(&user) = self.by_conn.get(&conn) {
                        if self.users.get(user).is_some_and(|u| u.inflight.is_some()) {
                            self.resets += 1;
                        }
                        self.drop_conn(ctx, user, false);
                    }
                }
                _ => {}
            }
        }
    }
}

impl Node for KaClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Spread the users' first connections over one think interval.
        for user in 0..self.users.len() {
            self.think(ctx, user);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let events = self.stack.on_packet(ctx, &pkt);
        self.on_events(ctx, events);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        match token.kind {
            TCP_TIMER_KIND => {
                let events = self.stack.on_timer(ctx, token);
                self.on_events(ctx, events);
            }
            THINK_KIND => self.next_request(ctx, token.a as usize),
            TIMEOUT_KIND => {
                let user = token.a as usize;
                let pending = self
                    .users
                    .get(user)
                    .and_then(|u| u.inflight)
                    .is_some_and(|(.., n)| n == token.b);
                if pending {
                    self.timeouts += 1;
                    self.drop_conn(ctx, user, true);
                }
            }
            _ => {}
        }
    }
}
