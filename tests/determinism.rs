//! The simulation must be a pure function of its seed: two engines built
//! from the same config and driven through the same scenario must process
//! the *identical* event sequence. The engine folds every processed event
//! (time + kind + destination) into an FNV-1a digest; comparing digests
//! across runs catches any nondeterminism — hash-order iteration, ambient
//! randomness, wall-clock reads — no matter where it hides.
//!
//! This is the dynamic companion to `yoda-tidy`'s static determinism
//! rules: tidy forbids the known sources, this test catches the unknown
//! ones.

use yoda::core::testbed::{Testbed, TestbedConfig};
use yoda::http::{BrowserClient, BrowserConfig};
use yoda::netsim::SimTime;

/// Runs a full scenario — control-plane settling, browsers fetching
/// through muxes/instances/backends/TCPStore, an instance failure with
/// recovery — and returns the engine's event digest plus a few load-
/// bearing end-state numbers.
fn run_scenario(seed: u64) -> (u64, u64, u64, u64) {
    let mut tb = Testbed::build(TestbedConfig {
        seed,
        num_instances: 2,
        num_stores: 3,
        num_backends: 4,
        num_muxes: 2,
        num_services: 2,
        pages_per_site: 30,
        ..TestbedConfig::default()
    });
    tb.engine.run_for(SimTime::from_secs(1));
    let b0 = tb.add_browser(
        0,
        BrowserConfig {
            processes: 4,
            max_pages: Some(3),
            ..BrowserConfig::default()
        },
    );
    let b1 = tb.add_browser(
        1,
        BrowserConfig {
            processes: 3,
            max_pages: Some(2),
            ..BrowserConfig::default()
        },
    );
    // An instance failure mid-traffic exercises the recovery machinery,
    // which leans on timer ordering and TCPStore quorum scheduling.
    tb.fail_instance_at(0, SimTime::from_millis(2500));
    tb.engine.run_for(SimTime::from_secs(60));
    let completed = tb.engine.node_ref::<BrowserClient>(b0).completed
        + tb.engine.node_ref::<BrowserClient>(b1).completed;
    (
        tb.engine.event_digest(),
        tb.engine.packets_sent(),
        tb.engine.now().as_micros(),
        completed,
    )
}

/// Same seed ⇒ bit-identical event trace (and therefore end state).
#[test]
fn same_seed_same_event_trace() {
    let first = run_scenario(0xD15EA5E);
    let second = run_scenario(0xD15EA5E);
    assert_eq!(
        first, second,
        "two runs with one seed diverged: (digest, packets, time, completed)"
    );
    // The scenario must actually have exercised the system for the digest
    // comparison to mean anything.
    assert!(first.1 > 1_000, "scenario too small: {} packets", first.1);
    assert!(first.3 > 0, "no page fetches completed");
}

/// Different seeds ⇒ different traces (the digest actually discriminates).
#[test]
fn different_seed_different_event_trace() {
    let a = run_scenario(1);
    let b = run_scenario(2);
    assert_ne!(a.0, b.0, "digest failed to distinguish different seeds");
}

/// Runs the default testbed with browsers on every service for `2 * HALF`
/// of traffic. With `move_midway`, the second half runs on a spawned
/// thread that takes ownership of the whole `Testbed`. Returns the event
/// digest and every browser's counters.
fn default_testbed_run(move_midway: bool) -> (u64, Vec<[u64; 6]>) {
    const HALF: SimTime = SimTime::from_secs(4);
    let mut tb = Testbed::build(TestbedConfig {
        seed: 0x7E57,
        ..TestbedConfig::default()
    });
    tb.run_for(SimTime::from_secs(1));
    let browsers: Vec<_> = (0..tb.vips.len())
        .map(|s| {
            tb.add_browser(
                s,
                BrowserConfig {
                    processes: 2,
                    ..BrowserConfig::default()
                },
            )
        })
        .collect();
    tb.run_for(HALF);
    let tb = if move_midway {
        std::thread::spawn(move || {
            tb.run_for(HALF);
            tb
        })
        .join()
        .expect("testbed thread panicked")
    } else {
        tb.run_for(HALF);
        tb
    };
    let counters = browsers
        .iter()
        .map(|&b| {
            let c = tb.engine.node_ref::<BrowserClient>(b);
            [
                c.completed,
                c.pages_completed,
                c.started_fetches,
                c.timeouts,
                c.resets,
                c.broken_flows,
            ]
        })
        .collect();
    (tb.engine.event_digest(), counters)
}

/// An engine really moves across threads: a default testbed that finishes
/// its run on a spawned thread ends bit-identical to one that never
/// moved. (`Engine: Send` is a compile-time witness in
/// `send_sync_assertions.rs`; this is the runtime half.)
#[test]
fn testbed_moved_to_another_thread_midway_is_identical() {
    let (digest, counters) = default_testbed_run(false);
    assert!(
        counters.iter().all(|c| c[0] > 0),
        "every browser must complete fetches for the comparison to mean anything: {counters:?}"
    );
    assert_eq!(
        default_testbed_run(true),
        (digest, counters),
        "moving the testbed to another thread changed the run"
    );
}

// ---------------------------------------------------------------------------
// Golden digest: pins the engine's event sequence across refactors
// ---------------------------------------------------------------------------

mod golden {
    use yoda::netsim::{
        Addr, Ctx, Endpoint, Engine, Node, Packet, SimTime, TimerId, TimerToken, Topology, Zone,
        PROTO_PING,
    };

    /// A node that exercises every event class the engine has: packets
    /// (forwarded around a ring with RNG-chosen hops), timers (periodic
    /// re-arm, same-tick collisions, and a cancelled one), and — driven
    /// from the harness below — control closures, node failure, and
    /// generation-bumping restore.
    struct Mixer {
        index: u32,
        ring: u32,
        hops_left: u32,
        fires: u32,
        cancelled: Option<TimerId>,
    }

    impl Mixer {
        fn peer(&self, offset: u32) -> Endpoint {
            let target = (self.index + offset) % self.ring;
            Endpoint::new(Addr::new(10, 9, 0, (target + 1) as u8), 0)
        }
        fn me(&self) -> Endpoint {
            Endpoint::new(Addr::new(10, 9, 0, (self.index + 1) as u8), 0)
        }
    }

    impl Node for Mixer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let pkt = Packet::new(self.me(), self.peer(1), PROTO_PING, bytes::Bytes::new());
            ctx.send(pkt);
            // Two timers landing on the same microsecond tick, plus one
            // cancelled before it can fire.
            ctx.set_timer(SimTime::from_millis(3), TimerToken::new(1));
            ctx.set_timer(SimTime::from_millis(3), TimerToken::new(2));
            let id = ctx.set_timer(SimTime::from_millis(4), TimerToken::new(3));
            self.cancelled = Some(id);
            if self.index % 2 == 0 {
                if let Some(id) = self.cancelled {
                    ctx.cancel_timer(id);
                }
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _pkt: Packet) {
            if self.hops_left == 0 {
                return;
            }
            self.hops_left -= 1;
            let offset = 1 + (ctx.rng().gen_range(0..3) as u32);
            let pkt = Packet::new(self.me(), self.peer(offset), PROTO_PING, bytes::Bytes::new());
            ctx.send(pkt);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
            self.fires += 1;
            if token.kind == 1 && self.fires < 8 {
                ctx.set_timer(SimTime::from_millis(2), TimerToken::new(1));
                let pkt =
                    Packet::new(self.me(), self.peer(2), PROTO_PING, bytes::Bytes::new());
                ctx.send(pkt);
            }
        }
    }

    fn fresh(index: u32, ring: u32) -> Box<Mixer> {
        Box::new(Mixer {
            index,
            ring,
            hops_left: 40,
            fires: 0,
            cancelled: None,
        })
    }

    fn run_mixed_workload() -> (u64, u64, u64, u64) {
        const RING: u32 = 8;
        let mut eng = Engine::with_topology(99, Topology::uniform(SimTime::from_micros(700)));
        let mut ids = Vec::new();
        for i in 0..RING {
            let id = eng.add_node(
                format!("mixer-{i}"),
                Addr::new(10, 9, 0, (i + 1) as u8),
                Zone::Dc,
                fresh(i, RING),
            );
            ids.push(id);
        }
        // Control events interleaved with traffic: a crash mid-run, a
        // generation-bumping restore (stale timers must be suppressed),
        // and a scripted extra packet.
        let victim = ids[2];
        eng.schedule(SimTime::from_millis(9), move |eng| eng.fail_node(victim));
        eng.schedule(SimTime::from_millis(14), move |eng| {
            eng.restore_node(victim, fresh(2, RING));
        });
        eng.schedule(SimTime::from_millis(21), move |eng| {
            eng.with_node_ctx::<Mixer>(victim, |node, ctx| {
                let pkt =
                    Packet::new(node.me(), node.peer(1), PROTO_PING, bytes::Bytes::new());
                ctx.send(pkt);
            });
        });
        eng.run_for(SimTime::from_millis(200));
        (
            eng.event_digest(),
            eng.packets_sent(),
            eng.events_processed(),
            eng.now().as_micros(),
        )
    }

    /// Golden constants recorded from the engine *before* the hot-path
    /// overhaul (BTreeMap addr routing + single BinaryHeap). Any engine
    /// refactor must reproduce this event sequence bit-for-bit; if this
    /// test fails the change is a behaviour change, not a pure
    /// optimisation, and must not be folded into a perf PR.
    const GOLDEN_DIGEST: u64 = 0xa33c_a2ef_71ca_4849;
    const GOLDEN_PACKETS: u64 = 362;
    const GOLDEN_EVENTS: u64 = 448;

    #[test]
    fn mixed_workload_matches_golden_digest() {
        let (digest, packets, events, now) = run_mixed_workload();
        assert_eq!(now, 200_000, "run_for leaves the clock at the deadline");
        assert_eq!(
            (digest, packets, events),
            (GOLDEN_DIGEST, GOLDEN_PACKETS, GOLDEN_EVENTS),
            "event sequence diverged from the pre-overhaul engine \
             (digest, packets_sent, events_processed)"
        );
    }
}
