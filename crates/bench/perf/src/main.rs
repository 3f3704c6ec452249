//! Yoda benchmark: one named traffic mix, generated from a seed, run on
//! the simulated testbed; prints every end-to-end metric (`--trace 0`) or
//! every per-layer metric (`--trace 1`) and checks the run's outputs.
//! See README.md for the workloads, the metrics and how they relate.

mod clock;
mod kaclient;
mod layers;
mod micro;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use yoda_http::OriginServer;
use yoda_netsim::SimTime;

use crate::clock::{peak_rss_mb, thread_cpu_ns};
use crate::kaclient::KaClient;
use crate::layers::{percentile, sorted, Snapshot, Window};
use crate::workload::{build, ClientKind, Scenario, Workload, TAIL_BEYOND};

const USAGE: &str = "\
usage: yoda-perf --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]

  --workload   conn_churn | bulk_spliced | keepalive_switch | failover_mixed
  --seed       u64 seed; the same seed gives bit-identical simulated results
  --seconds    wall-clock budget for the repeated timed runs (default 10)
  --trace      0: end-to-end metrics; 1: per-layer metrics (default 0)

The last stdout line is one JSON object:
  {\"correct\": bool, \"attempted\": n, \"failed\": n, \"metrics\": {name: {value, unit}}}";

/// Untraced repetitions made whatever the budget, so each slice's fastest
/// reading is taken over at least this many.
const MIN_REPS: usize = 3;
/// CPU given to each microbenchmark in a `--trace 1` run.
const MICRO_BUDGET: Duration = Duration::from_millis(150);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// `Ok(None)` means `--help`.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if seconds == 0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    }))
}

/// Everything a run computes in simulated time. Identical, bit for bit,
/// for every repetition of one seed.
#[derive(Debug, PartialEq)]
struct Sim {
    digest: u64,
    events: u64,
    /// Requests resolved in the window: completed, and given up on.
    completed: u64,
    broken: u64,
    success_rate: f64,
    lat_p50_ms: f64,
    lat_tail_ms: f64,
    lat_samples: usize,
    tail_beyond: usize,
    layer: Vec<(&'static str, &'static str, f64)>,
    /// Failed output checks.
    failures: Vec<String>,
}

struct Rep {
    /// CPU of each set-up slice (the build, then equal warm-up slices).
    setup_slices: Vec<u64>,
    /// CPU of each equal slice of the timed window.
    window_slices: Vec<u64>,
    window_wall_ns: u64,
    sim: Sim,
}

impl Rep {
    fn setup_ns(&self) -> u64 {
        self.setup_slices.iter().sum()
    }

    fn window_cpu_ns(&self) -> u64 {
        self.window_slices.iter().sum()
    }
}

/// Slices the set-up and the timed window are each timed in.
const SLICES: u32 = 40;

/// Runs `eng` to `end` in [`SLICES`] equal steps, appending each step's CPU.
fn run_sliced(sc: &mut Scenario, end: SimTime, out: &mut Vec<u64>) {
    let from = sc.tb.engine.now();
    let step = SimTime::from_micros((end.as_micros() - from.as_micros()) / SLICES as u64);
    for i in 1..=SLICES {
        let t = if i == SLICES {
            end
        } else {
            from + SimTime::from_micros(step.as_micros() * i as u64)
        };
        let c0 = thread_cpu_ns();
        sc.tb.engine.run_until(t);
        out.push(thread_cpu_ns() - c0);
    }
}

fn run_rep(w: Workload, seed: u64) -> Rep {
    let ph = w.phases();
    let c0 = thread_cpu_ns();
    let mut sc = build(w, seed);
    let mut setup_slices = vec![thread_cpu_ns() - c0];
    run_sliced(&mut sc, ph.warmup, &mut setup_slices);

    let start = Snapshot::take(&sc);
    let wall = Instant::now();
    let mut window_slices = Vec::new();
    run_sliced(&mut sc, ph.warmup + ph.window, &mut window_slices);
    let window_wall_ns = wall.elapsed().as_nanos() as u64;
    let win = Window::since(&start, &sc);
    let (digest, events) = (sc.tb.engine.event_digest(), sc.tb.engine.events_processed());

    sc.tb.engine.run_until(ph.warmup + ph.window + ph.drain);
    let failures = end_checks(&sc);
    Rep {
        setup_slices,
        window_slices,
        window_wall_ns,
        sim: summarize(&sc, &win, digest, events, failures),
    }
}

fn summarize(
    sc: &Scenario,
    win: &Window,
    digest: u64,
    events: u64,
    mut failures: Vec<String>,
) -> Sim {
    let w = sc.workload;
    let completed = win.delta("cl.completed");
    let failed_attempts =
        win.delta("cl.timeouts") + win.delta("cl.resets") + win.delta("cl.stalls");
    let broken = win.delta("cl.broken");
    if completed == 0 {
        failures.push("no request completed in the timed window".into());
    }

    // Latency population: every completed request, plus each request
    // given up on as slower than every success. A browser records its
    // given-up fetches too, so those are taken to be its largest samples.
    let mut pop = sorted(win.samples("cl.lat"));
    if sc.kind == ClientKind::Browser {
        pop.truncate(pop.len().saturating_sub(broken as usize));
    }
    pop.extend(std::iter::repeat_n(f64::INFINITY, broken as usize));
    let n = pop.len();
    let p = w.tail_pct();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let tail_beyond = n.saturating_sub(rank.max(1));
    if tail_beyond < TAIL_BEYOND {
        failures.push(format!(
            "p{p} of {n} samples has only {tail_beyond} beyond it"
        ));
    }
    let mut finite = |v: f64, what: &str| {
        if v.is_finite() {
            v
        } else {
            failures.push(format!("{what} falls on a failed request"));
            0.0
        }
    };
    let lat_p50_ms = finite(percentile(&pop, 50.0), "lat_p50_ms");
    let lat_tail_ms = finite(percentile(&pop, p), "lat_tail_ms");
    let success_rate = completed as f64 / (completed + failed_attempts).max(1) as f64;

    let per_req = |x: u64| x as f64 / completed.max(1) as f64;
    let mut layer: Vec<(&'static str, &'static str, f64)> = LAYER_METRICS
        .iter()
        .map(|&(name, unit, src)| {
            let v = match src {
                Src::PerReq(k) => per_req(win.delta(k)),
                Src::Count(k) => win.delta(k) as f64,
                Src::End(k) => win.end(k) as f64,
                Src::Pct(k, p) => percentile(&sorted(win.samples(k)), p),
            };
            (name, unit, v)
        })
        .collect();
    let (fwd, spl) = (win.delta("mux.forwarded"), win.delta("mux.spliced"));
    layer.push((
        "l4lb.mux.fastpath_share",
        "fraction",
        spl as f64 / (spl + fwd).max(1) as f64,
    ));
    Sim {
        digest,
        events,
        completed,
        broken,
        success_rate,
        lat_p50_ms,
        lat_tail_ms,
        lat_samples: n,
        tail_beyond,
        layer,
        failures,
    }
}

/// Where a per-layer metric comes from, by counter key (see `layers.rs`).
#[derive(Clone, Copy)]
enum Src {
    /// Window growth ÷ requests completed in the window.
    PerReq(&'static str),
    /// Window growth.
    Count(&'static str),
    /// Value at the window's end.
    End(&'static str),
    /// Percentile of the samples recorded in the window.
    Pct(&'static str, f64),
}

#[rustfmt::skip]
const LAYER_METRICS: &[(&str, &str, Src)] = &[
    ("netsim.events_per_req", "1/req", Src::PerReq("engine.events")),
    ("netsim.packets_per_req", "1/req", Src::PerReq("engine.packets")),
    ("netsim.packets_dropped", "count", Src::Count("engine.dropped")),
    ("netsim.timer_backlog_end", "count", Src::End("engine.timer_backlog")),
    ("l4lb.router.relayed_per_req", "1/req", Src::PerReq("router.relayed")),
    ("l4lb.mux.forwarded_per_req", "1/req", Src::PerReq("mux.forwarded")),
    ("l4lb.mux.spliced_per_req", "1/req", Src::PerReq("mux.spliced")),
    ("l4lb.mux.dropped", "count", Src::Count("mux.dropped")),
    ("l4lb.mux.resteered", "count", Src::Count("mux.resteered")),
    ("l4lb.mux.flow_entries_end", "count", Src::End("mux.flow_entries")),
    ("l4lb.mux.splice_entries_end", "count", Src::End("mux.splice_entries")),
    ("core.instance.tunneled_per_req", "1/req", Src::PerReq("inst.tunneled")),
    ("core.instance.requests_per_req", "1/req", Src::PerReq("inst.requests")),
    ("core.instance.backend_switches", "count", Src::Count("inst.switches")),
    ("core.instance.splices_installed", "count", Src::Count("inst.splices")),
    ("core.instance.recoveries", "count", Src::Count("inst.recoveries")),
    ("core.instance.dropped_overload", "count", Src::Count("inst.drop_overload")),
    ("core.instance.dropped_unknown", "count", Src::Count("inst.drop_unknown")),
    ("core.instance.live_flows_end", "count", Src::End("inst.live_flows")),
    ("core.instance.degraded_entries", "count", Src::Count("inst.degraded_entries")),
    ("core.instance.wb_dropped", "count", Src::Count("inst.wb_dropped")),
    ("core.instance.storage_p50_ms", "ms", Src::Pct("inst.storage_lat", 50.0)),
    ("core.instance.conn_p50_ms", "ms", Src::Pct("inst.conn_lat", 50.0)),
    ("core.controller.failures_detected", "count", Src::Count("ctrl.failures")),
    ("core.controller.derates", "count", Src::Count("ctrl.derates")),
    ("tcpstore.server.sets_per_req", "1/req", Src::PerReq("store.sets")),
    ("tcpstore.server.gets_per_req", "1/req", Src::PerReq("store.gets")),
    ("tcpstore.server.deletes_per_req", "1/req", Src::PerReq("store.deletes")),
    ("tcpstore.server.misses", "count", Src::Count("store.misses")),
    ("tcpstore.client.timeouts", "count", Src::Count("sc.timeouts")),
    ("tcpstore.client.hedges", "count", Src::Count("sc.hedges")),
    ("tcpstore.client.retries", "count", Src::Count("sc.retries")),
    ("tcpstore.client.quarantines", "count", Src::Count("sc.quarantines")),
    ("tcpstore.client.set_p99_ms", "ms", Src::Pct("sc.set_lat", 99.0)),
    ("tcpstore.client.get_p99_ms", "ms", Src::Pct("sc.get_lat", 99.0)),
    ("http.origin.requests_per_req", "1/req", Src::PerReq("origin.requests")),
    ("http.origin.bytes_per_req", "B/req", Src::PerReq("origin.bytes")),
    ("http.client.timeouts", "count", Src::Count("cl.timeouts")),
    ("http.client.resets", "count", Src::Count("cl.resets")),
    ("balance.probes_per_req", "1/req", Src::PerReq("origin.probes")),
    ("broken_flows", "count", Src::Count("cl.broken")),
];

/// Output checks on the whole run, after the drain.
fn end_checks(sc: &Scenario) -> Vec<String> {
    let mut failures = Vec::new();
    let all = Snapshot::take(sc);
    let failed = all.sum("cl.timeouts") + all.sum("cl.resets") + all.sum("cl.stalls");
    let resolved = all.sum("cl.completed") + failed + all.sum("cl.in_flight");
    if all.sum("cl.started") != resolved {
        failures.push(format!(
            "client conservation: {} started != {resolved} completed + failed + in flight",
            all.sum("cl.started")
        ));
    }
    if !sc.workload.faulty() && (failed > 0 || all.sum("cl.broken") > 0) {
        failures.push(format!(
            "fault-free run lost requests: {failed} failed attempts, {} broken flows",
            all.sum("cl.broken")
        ));
    }
    if sc.kind == ClientKind::KeepAlive {
        let eng = &sc.tb.engine;
        if sc
            .vip0_paths
            .iter()
            .map(|p| kaclient::class_of(p))
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            < kaclient::CLASSES
        {
            failures.push(
                "the catalog lacks an object in the keep-alive size band in some class".into(),
            );
        }
        if all.sum("cl.bad") > 0 {
            failures.push(format!(
                "{} keep-alive responses were wrong",
                all.sum("cl.bad")
            ));
        }
        for (class, &backend) in sc.class_backends.iter().enumerate() {
            let served = eng
                .try_node_ref::<OriginServer>(backend)
                .map_or(0, |o| o.requests);
            let asked: u64 = sc
                .clients
                .iter()
                .filter_map(|&id| eng.try_node_ref::<KaClient>(id))
                .map(|c| c.per_class[class])
                .sum();
            if served != asked {
                failures.push(format!(
                    "class {class}: its backend served {served} requests, clients completed {asked}"
                ));
            }
        }
    }
    failures
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("yoda-perf: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let rep_budget = if args.trace { budget / 2 } else { budget };
    let min_reps = if args.trace { 2 } else { MIN_REPS };

    let began = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < min_reps || began.elapsed() < rep_budget {
        let r = run_rep(w, args.seed);
        eprintln!(
            "yoda-perf: rep {}: setup {:.4} s, window {:.4} s CPU / {:.4} s wall, {} requests",
            reps.len(),
            r.setup_ns() as f64 / 1e9,
            r.window_cpu_ns() as f64 / 1e9,
            r.window_wall_ns as f64 / 1e9,
            r.sim.completed
        );
        reps.push(r);
    }
    let peak_rss = peak_rss_mb();
    let first = &reps[0].sim;
    let mut failures = first.failures.clone();
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.sim != *first {
            failures.push(format!(
                "repetition {i} of seed {} differs in simulated results",
                args.seed
            ));
        }
    }
    // Host time: per slice, the fastest repetition. Every repetition does
    // the same simulated work slice by slice, and interference from other
    // tenants of the host only adds time, in bursts shorter than a
    // repetition; the per-slice minimum is the steadiest reading of the
    // work itself (the median over repetitions moved ±15 % between runs).
    let fastest = |get: fn(&Rep) -> &[u64]| -> f64 {
        let slices = get(&reps[0]).len();
        let min_of = |i: usize| {
            reps.iter()
                .filter_map(|r| get(r).get(i))
                .min()
                .copied()
                .unwrap_or(0)
        };
        (0..slices).map(min_of).sum::<u64>() as f64
    };
    let setup_ns = fastest(|r| &r.setup_slices);
    let window_cpu_ns = fastest(|r| &r.window_slices);
    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    let mut put =
        |name: &str, unit: &'static str, v: f64| metrics.push((name.to_string(), unit, v));
    if !args.trace {
        put(
            "cpu_us_per_req",
            "us",
            window_cpu_ns / 1e3 / first.completed.max(1) as f64,
        );
        put("setup_s", "s", setup_ns / 1e9);
        put("peak_rss_mb", "MB", peak_rss);
        put("lat_p50_ms", "ms", first.lat_p50_ms);
        put("lat_tail_ms", "ms", first.lat_tail_ms);
        put("success_rate", "fraction", first.success_rate);
    } else {
        for &(name, unit, v) in &first.layer {
            put(name, unit, v);
        }
        let tr = traced::run(w, args.seed, first.events);
        if (tr.events, tr.digest) != (first.events, first.digest) {
            failures.push(format!(
                "traced run ended at {} events / digest {:#018x}, untraced at {} / {:#018x}",
                tr.events, tr.digest, first.events, first.digest
            ));
        }
        let traced_ns: u64 = tr.layer_ns.iter().sum();
        for (l, name) in traced::LAYERS.iter().enumerate() {
            let steps = tr.layer_steps[l].max(1) as f64;
            put(
                &format!("trace.{name}.ns_per_step"),
                "ns",
                tr.layer_ns[l] as f64 / steps,
            );
            put(
                &format!("trace.{name}.share"),
                "fraction",
                tr.layer_ns[l] as f64 / traced_ns.max(1) as f64,
            );
        }
        put(
            "trace.overhead_ratio",
            "ratio",
            tr.total_cpu_ns as f64 / (setup_ns + window_cpu_ns),
        );
        let sc = build(w, args.seed);
        for (name, ns) in micro::run_all(&sc, args.seed, MICRO_BUDGET.as_nanos() as u64) {
            put(name, "ns", ns);
        }
        let wall_over_cpu = reps
            .iter()
            .map(|r| r.window_wall_ns as f64 / r.window_cpu_ns() as f64);
        put(
            "harness.wall_over_cpu",
            "ratio",
            median(wall_over_cpu.collect()),
        );
    }

    let attempted: u64 = reps.iter().map(|r| r.sim.completed + r.sim.broken).sum();
    let failed = reps.iter().map(|r| r.sim.broken).sum::<u64>() + failures.len() as u64;
    for f in &failures {
        eprintln!("yoda-perf: check failed: {f}");
    }
    println!(
        "# {}: {} reps, {} sim events/rep, lat_tail_ms = p{} of {} requests ({} beyond), digest {:#018x}",
        w.name(),
        reps.len(),
        first.events,
        w.tail_pct(),
        first.lat_samples,
        first.tail_beyond,
        first.digest
    );
    println!(
        "{}",
        to_json(failures.is_empty(), attempted.max(1), failed, &metrics)
    );
}

fn to_json(correct: bool, attempted: u64, failed: u64, metrics: &[(String, &str, f64)]) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}
