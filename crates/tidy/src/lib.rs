//! `yoda-tidy`: the in-tree static-analysis pass.
//!
//! Modeled on rustc's `tidy` tool, grown into a call-graph-aware
//! analyzer: a zero-dependency scanner that walks the whole workspace,
//! parses every `fn` item, assembles a conservative call graph, and
//! propagates two taints along it. It runs two ways — `cargo run -p
//! yoda-tidy` for humans/CI (`--json` for machines), and as a `#[test]`
//! (see `tests/gate.rs`) so `cargo test -q` fails on any new violation.
//!
//! # Taints
//!
//! * **hot-taint** seeds at every packet/timer handler (any non-test
//!   function named `on_packet`, `on_timer`, or `on_tick`, plus the
//!   engine dispatch loop `Engine::step`) and flows through every
//!   function transitively callable from one. Hot functions must not
//!   `unwrap`/`expect`/`panic!` or index slices: a malformed or unlucky
//!   packet must be dropped, never crash the data plane (PAPER.md §5–6).
//! * **sim-taint** seeds at `Engine::step` and flows the same way; a
//!   tainted function inside a simulation crate must not read wall
//!   clocks, the environment, ambient RNGs, or iterate `HashMap`/
//!   `HashSet` — figures must be a pure function of the seed.
//!
//! Every taint violation reports its *taint path* (root → … → offending
//! function) so the fix target is obvious. The call graph is name-based
//! and deliberately over-approximate; see `callgraph` for the heuristics
//! and DESIGN.md "Static analysis" for the soundness caveats.
//!
//! # Rule families
//!
//! * **panic-hotpath / panic-hotpath-index** — the hot-taint rules.
//! * **sim-taint-\*** — the sim-taint rules; a determinism violation in
//!   an unreached simulation-crate function still fires as the lexical
//!   **determinism-\*** rule (defense in depth).
//! * **seq-hygiene** — sequence-number arithmetic must go through
//!   `SeqNum`'s wrapping helpers.
//! * **shard-nonsend-\* / shard-taint-\*** — the shard-safety rules: no
//!   `Rc`/`Weak`, `Cell`/`RefCell`/`UnsafeCell`, `static mut`,
//!   `thread_local!`, or raw pointers in library code. Engines and nodes
//!   stay `Send` so a whole run — node state and queued closures
//!   included — can move to another thread, so every one of these is a
//!   latent data race or a compile wall. A violation inside the hot
//!   closure upgrades from
//!   the lexical `shard-nonsend-*` rule to `shard-taint-*` with the
//!   taint path attached.
//! * **shard-shared-mutable-escape** — a struct implementing `Node` must
//!   own its state: any field that can alias state owned by another node
//!   (`Rc`/`Arc`/`Weak`/`RefCell`/`Cell`/raw pointers) is flagged, `Arc`
//!   included — shared *ownership* across nodes couples their state
//!   outside the event order even when the type is `Send`.
//! * **effect-\*** — the interprocedural effect-signature pass (see
//!   `effects`): every function gets a signature over a seven-effect
//!   lattice (rng-draw, clock-read, seq-alloc, digest-fold,
//!   engine-global-mut, unordered-iter, io-env), propagated to a
//!   fixpoint along the call graph; a handler reaching a strict effect
//!   outside the sanctioned `Ctx` API is a violation with a
//!   `root → … → fn` taint path. `--effects` dumps the signatures.
//! * **workspace-hygiene** — every crate denies warnings, library code
//!   has no debug prints, TODOs carry an issue tag, and every manifest
//!   dependency is an in-tree `path` dependency (hermetic build).
//!
//! # Allowlist
//!
//! Justified exceptions live in `tidy.allow` at the repository root, one
//! per line: `rule | path | needle | justification`. An entry silences
//! violations of `rule` in `path` whose source line contains `needle`.
//! Entries must carry a justification and must match something — a stale
//! entry is itself an error, so the allowlist can only shrink unless a
//! human deliberately grows it.

#![deny(warnings)]

pub mod callgraph;
pub mod effects;
pub mod lexer;
pub mod parser;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use callgraph::CallGraph;
use lexer::{lex, LexedLine};
use parser::parse_fns;

/// Crates whose event handling feeds the deterministic simulation; map
/// iteration order inside them can leak into event scheduling.
pub(crate) const SIM_CRATES: &[&str] = &[
    "crates/netsim/src/",
    "crates/balance/src/",
    "crates/tcp/src/",
    "crates/core/src/",
    "crates/tcpstore/src/",
    "crates/l4lb/src/",
    "crates/chaos/src/",
];

/// Function names that root the hot closure: the per-packet and
/// per-timer handlers the engine dispatches into. (`on_tick` is listed
/// for forward compatibility; the instance probe tick currently runs
/// from `on_timer`.)
pub(crate) const HOT_ROOT_NAMES: &[&str] = &["on_packet", "on_timer", "on_tick"];

/// The measurement harness: the one place allowed to read wall clocks,
/// process args, and print (it measures the host, not the simulation).
/// Its `Node` impls are excluded from the call graph and the taints.
const HARNESS_PREFIX: &str = "crates/bench/";

/// Files exempt from `panic-hotpath-index`: the engine's open-addressing
/// address table and hierarchical timer wheel keep power-of-two arrays
/// and mask every slot index to the array bound (`slots[idx & mask]`,
/// `head[slot & 63]`), so their index expressions cannot panic. The
/// lexical check cannot see the mask, hence the file-level carve-out.
/// Every other hot-taint rule (unwrap/expect/panic!) and the sim-taint
/// determinism rules still apply to these files in full.
const MASKED_INDEX_FILES: &[&str] = &[
    "crates/netsim/src/addrmap.rs",
    "crates/netsim/src/wheel.rs",
];

/// Taint evidence attached to a call-graph-derived violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Taint {
    /// `"hot"` or `"sim"`.
    pub kind: &'static str,
    /// Labels from the taint root to the offending function.
    pub path: Vec<String>,
}

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier, e.g. `sim-taint-hash-collections`.
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Trimmed source line.
    pub content: String,
    /// Why the line is subject to the rule, when derived from the call
    /// graph rather than the file's location.
    pub taint: Option<Taint>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.content
        )?;
        if let Some(t) = &self.taint {
            write!(f, "\n      {} path: {}", t.kind, t.path.join(" -> "))?;
        }
        Ok(())
    }
}

/// Sizes of the analysis, for the JSON report and sanity checks.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Stats {
    /// Rust files scanned.
    pub files: usize,
    /// Non-test functions in the call graph.
    pub functions: usize,
    /// Functions in the hot closure.
    pub hot_functions: usize,
    /// Functions in the sim closure that live in simulation crates.
    pub sim_functions: usize,
}

/// Outcome of a tidy run: surviving violations plus allowlist problems.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations not covered by `tidy.allow`.
    pub violations: Vec<Violation>,
    /// Problems with the allowlist itself (stale entries, missing
    /// justifications, unparsable lines).
    pub allowlist_errors: Vec<String>,
    /// Analysis sizes.
    pub stats: Stats,
}

impl Report {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.allowlist_errors.is_empty()
    }
}

/// Locates the workspace root by walking up from the tidy crate's
/// manifest dir to the first directory holding a `Cargo.lock`.
pub fn workspace_root() -> Result<PathBuf, String> {
    let start = Path::new(env!("CARGO_MANIFEST_DIR"));
    for dir in start.ancestors() {
        if dir.join("Cargo.lock").is_file() {
            return Ok(dir.to_path_buf());
        }
    }
    Err(format!(
        "no Cargo.lock in any directory above {}",
        start.display()
    ))
}

/// Runs every rule over the workspace rooted at `root`.
pub fn run(root: &Path) -> Report {
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in rust_files(root) {
        let rel = rel_path(root, &path);
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        sources.push((rel, text));
    }

    let (mut violations, stats) = analyze(&sources);

    for path in manifest_files(root) {
        let rel = rel_path(root, &path);
        let Ok(source) = fs::read_to_string(&path) else {
            continue;
        };
        check_hermetic_manifest(&rel, &source, &mut violations);
    }

    // Deterministic output order regardless of filesystem enumeration; a
    // line matching one rule several ways is still one violation.
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    violations.dedup();

    let (allowed, allowlist_errors) = load_allowlist(root);
    let mut used = vec![false; allowed.len()];
    let surviving: Vec<Violation> = violations
        .into_iter()
        .filter(|v| {
            let mut hit = false;
            for (i, e) in allowed.iter().enumerate() {
                if e.rule == v.rule && e.path == v.path && v.content.contains(&e.needle) {
                    used[i] = true;
                    hit = true;
                }
            }
            !hit
        })
        .collect();

    let mut errors = allowlist_errors;
    for (i, e) in allowed.iter().enumerate() {
        if !used[i] {
            errors.push(format!(
                "tidy.allow:{}: stale entry (no current violation matches): {} | {} | {}",
                e.line_no, e.rule, e.path, e.needle
            ));
        }
    }

    Report {
        violations: surviving,
        allowlist_errors: errors,
        stats,
    }
}

/// Runs only the effect-signature pass over the workspace rooted at
/// `root` and returns its report — the `--effects` CLI mode. (The full
/// analysis runs; violations and the allowlist are simply not
/// consulted, so the dump is stable even on a dirty tree.)
pub fn run_effects(root: &Path) -> effects::EffectsReport {
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in rust_files(root) {
        let rel = rel_path(root, &path);
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        sources.push((rel, text));
    }
    let (_, _, report) = analyze_full(&sources);
    report
}

/// Runs the source-level analysis (everything except the manifest rule
/// and the allowlist) over in-memory `(repo-relative-path, source)`
/// pairs. Public so tests can drive the analyzer over fixture
/// mini-workspaces without touching the disk.
pub fn analyze(sources: &[(String, String)]) -> (Vec<Violation>, Stats) {
    let (violations, stats, _) = analyze_full(sources);
    (violations, stats)
}

/// [`analyze`], plus the per-function effect-signature report the
/// `--effects` CLI mode dumps.
pub fn analyze_full(
    sources: &[(String, String)],
) -> (Vec<Violation>, Stats, effects::EffectsReport) {
    let mut violations = Vec::new();

    let lexed: Vec<(String, Vec<LexedLine>)> = sources
        .iter()
        .map(|(rel, text)| (rel.clone(), lex(text)))
        .collect();

    // Lexical (per-file) rules.
    for (rel, lines) in &lexed {
        check_determinism(rel, lines, &mut violations);
        check_seq_hygiene(rel, lines, &mut violations);
        check_shard_safety(rel, lines, &mut violations);
        check_debug_prints(rel, lines, &mut violations);
        check_todo_tags(rel, lines, &mut violations);
        check_deny_warnings(rel, lines, &mut violations);
    }

    // Call-graph rules. Only library code enters the graph: harness,
    // integration tests, benches, and examples cannot sit on a
    // simulated packet path.
    let parsed: Vec<(String, Vec<parser::FnItem>)> = lexed
        .iter()
        .filter(|(rel, _)| in_call_graph(rel))
        .map(|(rel, lines)| (rel.clone(), parse_fns(lines)))
        .collect();
    let graph = CallGraph::build(&parsed);
    let by_rel: BTreeMap<&str, &[LexedLine]> = lexed
        .iter()
        .map(|(rel, lines)| (rel.as_str(), lines.as_slice()))
        .collect();

    let hot_roots = hot_roots(&graph);
    let hot = graph.reach(&hot_roots);
    let sim_roots = dispatch_roots(&graph);
    let sim = graph.reach(&sim_roots);

    // hot-taint: no panics or indexing anywhere in the hot closure.
    for (&idx, _) in &hot {
        let f = &graph.fns[idx];
        let Some(lines) = by_rel.get(f.file.as_str()) else {
            continue;
        };
        let taint = Taint {
            kind: "hot",
            path: graph.path_to(&hot, idx),
        };
        for l in lines
            .iter()
            .filter(|l| f.start_line <= l.number && l.number <= f.end_line)
        {
            if l.in_test || graph.fn_at(&f.file, l.number) != Some(idx) {
                continue;
            }
            for pat in [
                ".unwrap()",
                ".expect(",
                "panic!(",
                "unreachable!(",
                "todo!(",
                "unimplemented!(",
                ".unwrap_err()",
            ] {
                if l.code.contains(pat) {
                    push_taint(&mut violations, "panic-hotpath", &f.file, l, &taint);
                }
            }
            if has_index_expr(&l.code) && !MASKED_INDEX_FILES.contains(&f.file.as_str()) {
                push_taint(&mut violations, "panic-hotpath-index", &f.file, l, &taint);
            }
        }
    }

    // sim-taint: upgrade lexical determinism violations whose line sits
    // inside a sim-reachable function of a simulation crate, attaching
    // the taint path. Unreached code keeps the plain determinism rule.
    for v in &mut violations {
        let Some(sim_rule) = sim_rule_for(v.rule) else {
            continue;
        };
        if !SIM_CRATES.iter().any(|p| v.path.starts_with(p)) {
            continue;
        }
        if let Some(idx) = graph.fn_at(&v.path, v.line) {
            if sim.contains_key(&idx) {
                v.rule = sim_rule;
                v.taint = Some(Taint {
                    kind: "sim",
                    path: graph.path_to(&sim, idx),
                });
            }
        }
    }

    // shard-taint: upgrade lexical shard-safety violations whose line
    // sits inside the hot closure (Engine::step or node dispatch),
    // attaching the root → … → fn taint path. A non-Send construct that
    // only lives in cold setup code keeps the plain shard-nonsend rule.
    for v in &mut violations {
        let Some(shard_rule) = shard_rule_for(v.rule) else {
            continue;
        };
        if let Some(idx) = graph.fn_at(&v.path, v.line) {
            if hot.contains_key(&idx) {
                v.rule = shard_rule;
                v.taint = Some(Taint {
                    kind: "hot",
                    path: graph.path_to(&hot, idx),
                });
            }
        }
    }

    // shard-shared-mutable-escape: a per-node struct must own its
    // mutable state. Any field of a `Node`-implementing struct whose
    // type can alias *mutable* state owned by another node is flagged —
    // including `Arc<Mutex<…>>`-style types, which are `Send` but still
    // shared mutation: one node's handler could change another node's
    // state outside the engine's event order. A bare `Arc` of an
    // immutable value (e.g. a shared site catalog) is permitted: aliased
    // reads merge deterministically.
    let node_types: std::collections::BTreeSet<&str> = parsed
        .iter()
        .flat_map(|(_, fns)| fns.iter())
        .filter(|f| !f.is_test && f.trait_name.as_deref() == Some("Node"))
        .filter_map(|f| f.self_ty.as_deref())
        .collect();
    for (rel, lines) in &lexed {
        if !in_call_graph(rel) {
            continue;
        }
        for s in parser::parse_structs(lines) {
            if s.is_test || !node_types.contains(s.name.as_str()) {
                continue;
            }
            for field in &s.fields {
                // `Cell<` catches `RefCell<`/`UnsafeCell<` by substring.
                const ALIASING: &[&str] = &["Rc<", "Weak<", "Cell<", "*mut", "*const"];
                const INTERIOR_MUT: &[&str] = &["Mutex<", "RwLock<", "Atomic"];
                let escapes = ALIASING.iter().any(|p| field.ty.contains(p))
                    || (field.ty.contains("Arc<")
                        && INTERIOR_MUT.iter().any(|p| field.ty.contains(p)));
                if escapes {
                    let content = lines
                        .iter()
                        .find(|l| l.number == field.line)
                        .map(|l| l.raw.trim().to_string())
                        .unwrap_or_else(|| format!("{}: {}", field.name, field.ty));
                    violations.push(Violation {
                        rule: "shard-shared-mutable-escape",
                        path: rel.clone(),
                        line: field.line,
                        content,
                        taint: None,
                    });
                }
            }
        }
    }

    // effect-*: the interprocedural effect-signature pass — strict
    // effects reachable from a handler outside the sanctioned Ctx API,
    // plus the per-function signatures for the --effects dump.
    let (effect_violations, effects_report) = effects::analyze_effects(&graph, &by_rel);
    violations.extend(effect_violations);

    let stats = Stats {
        files: sources.len(),
        functions: graph.fns.len(),
        hot_functions: hot.len(),
        sim_functions: sim
            .keys()
            .filter(|&&i| {
                SIM_CRATES
                    .iter()
                    .any(|p| graph.fns[i].file.starts_with(p))
            })
            .count(),
    };
    (violations, stats, effects_report)
}

/// Whether a file's functions participate in the call graph.
fn in_call_graph(rel: &str) -> bool {
    let lib_code =
        rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"));
    lib_code && !rel.starts_with(HARNESS_PREFIX)
}

/// Seed set for the hot closure: every handler impl plus the dispatch
/// loop itself (the engine is per-packet code too).
fn hot_roots(graph: &CallGraph) -> Vec<usize> {
    let mut roots = Vec::new();
    for name in HOT_ROOT_NAMES {
        roots.extend(graph.find(name));
    }
    roots.extend(dispatch_roots(graph));
    roots
}

/// The engine dispatch loop: `Engine::step`.
fn dispatch_roots(graph: &CallGraph) -> Vec<usize> {
    graph
        .find("step")
        .into_iter()
        .filter(|&i| graph.fns[i].self_ty.as_deref() == Some("Engine"))
        .collect()
}

/// Maps a lexical determinism rule to its taint-path-carrying upgrade.
fn sim_rule_for(rule: &str) -> Option<&'static str> {
    match rule {
        "determinism-wall-clock" => Some("sim-taint-wall-clock"),
        "determinism-env-read" => Some("sim-taint-env-read"),
        "determinism-ambient-rng" => Some("sim-taint-ambient-rng"),
        "determinism-hash-collections" => Some("sim-taint-hash-collections"),
        _ => None,
    }
}

/// Maps a lexical shard-safety rule to its taint-path-carrying upgrade.
fn shard_rule_for(rule: &str) -> Option<&'static str> {
    match rule {
        "shard-nonsend-rc" => Some("shard-taint-rc"),
        "shard-nonsend-cell" => Some("shard-taint-cell"),
        "shard-nonsend-static-mut" => Some("shard-taint-static-mut"),
        "shard-nonsend-thread-local" => Some("shard-taint-thread-local"),
        "shard-nonsend-raw-ptr" => Some("shard-taint-raw-ptr"),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Lexical rules
// ---------------------------------------------------------------------------

/// determinism-*: no wall clock, env reads, ambient RNG, registry rand, or
/// hash-order collections in simulation code.
fn check_determinism(rel: &str, lines: &[LexedLine], out: &mut Vec<Violation>) {
    // The tidy CLI is host tooling like the bench harness: it reads
    // process args and never touches the simulation.
    let in_harness = rel.starts_with(HARNESS_PREFIX) || rel.starts_with("crates/tidy/");
    let in_sim_crate = SIM_CRATES.iter().any(|p| rel.starts_with(p));
    for l in lines {
        if !in_harness {
            for pat in ["Instant::now", "SystemTime", "UNIX_EPOCH"] {
                if l.code.contains(pat) {
                    push(out, "determinism-wall-clock", rel, l);
                }
            }
            for pat in ["std::env::", "env::var(", "env::args(", "env::vars("] {
                if l.code.contains(pat) {
                    push(out, "determinism-env-read", rel, l);
                }
            }
        }
        for pat in ["thread_rng", "from_entropy", "rand::", "use rand"] {
            if l.code.contains(pat) {
                push(out, "determinism-ambient-rng", rel, l);
            }
        }
        if in_sim_crate && (l.code.contains("HashMap") || l.code.contains("HashSet")) {
            push(out, "determinism-hash-collections", rel, l);
        }
    }
}

/// shard-nonsend-*: no thread-bound constructs in library code. Unlike
/// the determinism rules, the bench harness is *not* exempt — its
/// sampling closures ride the engine's event queue, which must stay
/// `Send` with the engine, so an `Rc`/`RefCell` capture there is exactly
/// as unsafe as one in the engine. Only the tidy crate itself is excluded (it spells the
/// patterns) along with `#[cfg(test)]` code, where the compiler's `Send`
/// bounds on `Engine::schedule`/`Node` already police the boundary.
fn check_shard_safety(rel: &str, lines: &[LexedLine], out: &mut Vec<Violation>) {
    let lib_code =
        rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"));
    if !lib_code || rel.starts_with("crates/tidy/") {
        return;
    }
    for l in lines {
        if l.in_test {
            continue;
        }
        // `Rc<`/`Rc::` never match `Arc<`/`Arc::` — case-sensitive, and
        // the lowercase `rc` in `Arc` can't spell an uppercase `R`.
        if ["Rc<", "Rc::", "Weak<", "Weak::", "use std::rc"]
            .iter()
            .any(|p| l.code.contains(p))
        {
            push(out, "shard-nonsend-rc", rel, l);
        }
        // `Cell<`/`Cell::` also match `RefCell`/`UnsafeCell`/`OnceCell`
        // by substring — one rule for the whole interior-mutability
        // family (none of them are `Sync`-shareable across threads).
        if ["Cell<", "Cell::"].iter().any(|p| l.code.contains(p)) {
            push(out, "shard-nonsend-cell", rel, l);
        }
        if l.code.contains("static mut ") {
            push(out, "shard-nonsend-static-mut", rel, l);
        }
        if l.code.contains("thread_local!") {
            push(out, "shard-nonsend-thread-local", rel, l);
        }
        if ["*mut ", "*const "].iter().any(|p| l.code.contains(p)) {
            push(out, "shard-nonsend-raw-ptr", rel, l);
        }
    }
}

/// Detects `expr[...]` indexing: a `[` immediately preceded by an
/// identifier character or a closing bracket. Attributes (`#[...]`),
/// array types (`[u8; 4]`), and slice patterns are not matched.
fn has_index_expr(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' || i == 0 {
            continue;
        }
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' || prev == ')' || prev == ']' {
            return true;
        }
    }
    false
}

/// seq-hygiene: sequence-space arithmetic must use the wrapping helpers.
fn check_seq_hygiene(rel: &str, lines: &[LexedLine], out: &mut Vec<Violation>) {
    // Library code only: test files deliberately poke raw boundary values
    // to pin the wrapping helpers down.
    if !(rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"))) {
        return;
    }
    let seq_files = rel == "crates/tcp/src/seq.rs" || rel == "crates/core/src/isn.rs";
    let uses_seqnum = seq_files || lines.iter().any(|l| l.code.contains("SeqNum"));
    if !uses_seqnum {
        return;
    }
    for l in lines {
        if l.code.contains("wrapping_") {
            continue;
        }
        let arith = has_raw_arith(&l.code);
        // `.raw()` back into arithmetic bypasses SeqNum's wrapping ops.
        if l.code.contains(".raw()") && arith {
            push(out, "seq-hygiene", rel, l);
        }
        // Casting into sequence space outside the helpers. Length casts
        // (`payload.len() as u32`) are exempt: adding a length to a
        // `SeqNum` goes through its wrapping `Add` impl by construction.
        if l.code.contains("as u32") && mentions_seq(&l.code) && !l.code.contains(".len()") {
            push(out, "seq-hygiene", rel, l);
        }
    }
}

/// True when the line contains a `+`/`-` that looks like arithmetic
/// (ignores `->`, `+=`-style is still arithmetic and matches).
fn has_raw_arith(code: &str) -> bool {
    let cleaned = code.replace("->", "  ");
    cleaned.contains('+') || cleaned.contains('-')
}

/// True when the line plausibly talks about sequence numbers.
fn mentions_seq(code: &str) -> bool {
    let lower = code.to_lowercase();
    lower.contains("seq") || lower.contains("isn")
}

/// no-debug-print: library code must not print; use the trace sink.
fn check_debug_prints(rel: &str, lines: &[LexedLine], out: &mut Vec<Violation>) {
    let is_lib_code = rel.starts_with("crates/") && rel.contains("/src/")
        || rel.starts_with("src/");
    let exempt = rel.starts_with(HARNESS_PREFIX)
        || rel.starts_with("crates/tidy/")
        || rel.contains("/bin/")
        || rel.ends_with("/main.rs");
    if !is_lib_code || exempt {
        return;
    }
    for l in lines {
        if l.in_test {
            continue;
        }
        for pat in ["println!", "eprintln!", "print!(", "eprint!(", "dbg!("] {
            if l.code.contains(pat) {
                push(out, "no-debug-print", rel, l);
            }
        }
    }
}

/// todo-tags: TODO/FIXME/XXX/HACK must reference an issue, e.g.
/// `TODO(#42): ...`. Scans raw lines because TODOs live in comments.
/// The tidy crate itself is exempt — it must spell the tags to find them.
fn check_todo_tags(rel: &str, lines: &[LexedLine], out: &mut Vec<Violation>) {
    if rel.starts_with("crates/tidy/") {
        return;
    }
    for l in lines {
        for tag in ["TODO", "FIXME", "XXX", "HACK"] {
            if let Some(pos) = l.raw.find(tag) {
                // Require a word boundary before the tag (avoid e.g. a hex
                // constant or an identifier containing the letters).
                let boundary_ok = l
                    .raw[..pos]
                    .chars()
                    .next_back()
                    .map(|c| !c.is_alphanumeric() && c != '_')
                    .unwrap_or(true);
                let tagged = l.raw[pos + tag.len()..].starts_with("(#");
                if boundary_ok && !tagged {
                    push(out, "todo-needs-issue", rel, l);
                }
            }
        }
    }
}

/// deny-warnings: every crate root opts into `#![deny(warnings)]`.
fn check_deny_warnings(rel: &str, lines: &[LexedLine], out: &mut Vec<Violation>) {
    let is_crate_root = rel == "src/lib.rs"
        || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"));
    if !is_crate_root {
        return;
    }
    if !lines.iter().any(|l| l.code.contains("#![deny(warnings)]")) {
        out.push(Violation {
            rule: "deny-warnings-missing",
            path: rel.to_string(),
            line: 1,
            content: "crate root lacks #![deny(warnings)]".to_string(),
            taint: None,
        });
    }
}

/// hermetic-manifest: all dependencies are in-tree path dependencies.
fn check_hermetic_manifest(rel: &str, source: &str, out: &mut Vec<Violation>) {
    let mut in_dep_section = false;
    for (idx, raw) in source.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_dep_section = line.contains("dependencies");
            continue;
        }
        if !in_dep_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let registryish = line.contains("version =")
            || line.contains("git =")
            || (line.contains("= \"") && !line.contains("path"));
        if registryish {
            out.push(Violation {
                rule: "hermetic-manifest",
                path: rel.to_string(),
                line: idx + 1,
                content: line.to_string(),
                taint: None,
            });
        }
    }
}

fn push(out: &mut Vec<Violation>, rule: &'static str, rel: &str, l: &LexedLine) {
    out.push(Violation {
        rule,
        path: rel.to_string(),
        line: l.number,
        content: l.raw.trim().to_string(),
        taint: None,
    });
}

fn push_taint(
    out: &mut Vec<Violation>,
    rule: &'static str,
    rel: &str,
    l: &LexedLine,
    taint: &Taint,
) {
    out.push(Violation {
        rule,
        path: rel.to_string(),
        line: l.number,
        content: l.raw.trim().to_string(),
        taint: Some(taint.clone()),
    });
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

/// Serializes a report as JSON (hand-rolled: the build is hermetic, no
/// serde). One violation object per line so shell tooling can count with
/// `grep -c '"rule"'`.
pub fn to_json(report: &Report) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"summary\": {{\"violations\": {}, \"allowlist_errors\": {}, \"files\": {}, \"functions\": {}, \"hot_functions\": {}, \"sim_functions\": {}}},\n",
        report.violations.len(),
        report.allowlist_errors.len(),
        report.stats.files,
        report.stats.functions,
        report.stats.hot_functions,
        report.stats.sim_functions,
    ));
    s.push_str("  \"violations\": [\n");
    for (i, v) in report.violations.iter().enumerate() {
        let taint = match &v.taint {
            Some(t) => {
                let path: Vec<String> = t.path.iter().map(|p| json_str(p)).collect();
                format!(
                    ", \"taint\": {{\"kind\": {}, \"path\": [{}]}}",
                    json_str(t.kind),
                    path.join(", ")
                )
            }
            None => String::new(),
        };
        s.push_str(&format!(
            "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"content\": {}{}}}{}\n",
            json_str(v.rule),
            json_str(&v.path),
            v.line,
            json_str(&v.content),
            taint,
            if i + 1 < report.violations.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n  \"allowlist_errors\": [\n");
    for (i, e) in report.allowlist_errors.iter().enumerate() {
        s.push_str(&format!(
            "    {}{}\n",
            json_str(e),
            if i + 1 < report.allowlist_errors.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

pub(crate) fn json_str(raw: &str) -> String {
    let mut s = String::with_capacity(raw.len() + 2);
    s.push('"');
    for c in raw.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

struct AllowEntry {
    line_no: usize,
    rule: String,
    path: String,
    needle: String,
}

fn load_allowlist(root: &Path) -> (Vec<AllowEntry>, Vec<String>) {
    let mut entries = Vec::new();
    let mut errors = Vec::new();
    let Ok(text) = fs::read_to_string(root.join("tidy.allow")) else {
        return (entries, errors);
    };
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.splitn(4, '|').map(str::trim).collect();
        if parts.len() != 4 {
            errors.push(format!(
                "tidy.allow:{}: expected `rule | path | needle | justification`",
                idx + 1
            ));
            continue;
        }
        if parts[3].is_empty() {
            errors.push(format!(
                "tidy.allow:{}: entry has no justification",
                idx + 1
            ));
            continue;
        }
        entries.push(AllowEntry {
            line_no: idx + 1,
            rule: parts[0].to_string(),
            path: parts[1].to_string(),
            needle: parts[2].to_string(),
        });
    }
    (entries, errors)
}

// ---------------------------------------------------------------------------
// File walking
// ---------------------------------------------------------------------------

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// All `.rs` files under the workspace, sorted, skipping build output and
/// VCS internals.
fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    walk(root, &mut files, "rs");
    files.sort();
    files
}

fn manifest_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    walk(root, &mut files, "toml");
    files.retain(|p| p.file_name().is_some_and(|n| n == "Cargo.toml"));
    files.sort();
    files
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>, ext: &str) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | ".claude" | "results") {
                continue;
            }
            walk(&path, out, ext);
        } else if path.extension().is_some_and(|e| e == ext) {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines_of(src: &str) -> Vec<LexedLine> {
        lex(src)
    }

    /// Runs the full analyzer over an in-memory fixture workspace.
    fn analyze_fixture(files: &[(&str, &str)]) -> Vec<Violation> {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), src.to_string()))
            .collect();
        let (mut v, _) = analyze(&sources);
        v.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        v
    }

    #[test]
    fn hashmap_flagged_only_in_sim_crates() {
        let src = "use std::collections::HashMap;\n";
        let mut v = Vec::new();
        check_determinism("crates/netsim/src/engine.rs", &lines_of(src), &mut v);
        assert_eq!(v.len(), 1, "sim crate flagged");
        let mut v = Vec::new();
        check_determinism("crates/http/src/server.rs", &lines_of(src), &mut v);
        assert!(v.is_empty(), "non-sim crate not flagged");
    }

    #[test]
    fn wall_clock_exempt_in_harness_only() {
        let src = "let t = Instant::now();\n";
        let mut v = Vec::new();
        check_determinism("crates/bench/src/lib.rs", &lines_of(src), &mut v);
        assert!(v.is_empty());
        let mut v = Vec::new();
        check_determinism("crates/tcp/src/socket.rs", &lines_of(src), &mut v);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn indexing_detected_but_attrs_are_not() {
        assert!(has_index_expr("let x = buf[0];"));
        assert!(has_index_expr("self.meta[node.0].zone"));
        assert!(!has_index_expr("#[derive(Debug)]"));
        assert!(!has_index_expr("let x: [u8; 4] = y;"));
        assert!(!has_index_expr("fn f(xs: &[u8]) {}"));
    }

    #[test]
    fn seq_hygiene_catches_raw_math() {
        let src = "let s = x.raw() + 1;\nlet ok = a.wrapping_add(b.raw());\n";
        let mut v = Vec::new();
        check_seq_hygiene("crates/tcp/src/seq.rs", &lines_of(src), &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn seq_hygiene_catches_cast_into_seq_space() {
        let src = "let isn = SeqNum::new(h as u32);\n";
        let mut v = Vec::new();
        check_seq_hygiene("crates/core/src/isn.rs", &lines_of(src), &mut v);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn todo_requires_issue_tag() {
        let src = "// TODO: later\n// TODO(#12): tracked\n";
        let mut v = Vec::new();
        check_todo_tags("src/lib.rs", &lines_of(src), &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn manifest_rule_rejects_registry_deps() {
        let toml = "[dependencies]\nfoo = \"1\"\nbar = { path = \"../bar\" }\nbaz = { version = \"2\" }\n\n[package]\nversion = \"0.1.0\"\n";
        let mut v = Vec::new();
        check_hermetic_manifest("Cargo.toml", toml, &mut v);
        let lines: Vec<usize> = v.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![2, 4], "{v:?}");
    }

    #[test]
    fn debug_prints_flagged_in_lib_code_only() {
        let src = "fn f() { println!(\"x\"); }\n";
        let mut v = Vec::new();
        check_debug_prints("crates/http/src/server.rs", &lines_of(src), &mut v);
        assert_eq!(v.len(), 1);
        let mut v = Vec::new();
        check_debug_prints("crates/bench/src/report.rs", &lines_of(src), &mut v);
        assert!(v.is_empty());
        let mut v = Vec::new();
        check_debug_prints("examples/quickstart.rs", &lines_of(src), &mut v);
        assert!(v.is_empty());
    }

    // -- call-graph taint analysis over fixture mini-workspaces --------

    #[test]
    fn unwrap_reached_from_on_packet_is_flagged_with_path() {
        let v = analyze_fixture(&[(
            "crates/x/src/lib.rs",
            "impl Node for X {\n    fn on_packet(&mut self) { helper(); }\n}\nfn helper() { deep(); }\nfn deep() { y.unwrap(); }\n",
        )]);
        let hit: Vec<&Violation> = v.iter().filter(|v| v.rule == "panic-hotpath").collect();
        assert_eq!(hit.len(), 1, "{v:?}");
        assert_eq!(hit[0].line, 5);
        let taint = hit[0].taint.as_ref().expect("taint path attached");
        assert_eq!(taint.kind, "hot");
        assert_eq!(
            taint.path,
            vec![
                "crates/x/src/lib.rs::X::on_packet",
                "crates/x/src/lib.rs::helper",
                "crates/x/src/lib.rs::deep",
            ]
        );
    }

    #[test]
    fn unreached_unwrap_is_not_flagged() {
        let v = analyze_fixture(&[(
            "crates/x/src/lib.rs",
            "impl Node for X {\n    fn on_packet(&mut self) {}\n}\nfn cold_path() { y.unwrap(); }\n",
        )]);
        assert!(
            v.iter().all(|v| v.rule != "panic-hotpath"),
            "un-tainted fn keeps its unwrap: {v:?}"
        );
    }

    #[test]
    fn taint_crosses_crates_and_trait_impl_edges() {
        let v = analyze_fixture(&[
            (
                "crates/a/src/lib.rs",
                "impl Node for A {\n    fn on_packet(&mut self) { self.route(); }\n    fn route(&mut self) { yoda_b::shared_helper(); }\n}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn shared_helper() { table[idx].touch(); }\n",
            ),
        ]);
        let hit: Vec<&Violation> = v
            .iter()
            .filter(|v| v.rule == "panic-hotpath-index")
            .collect();
        assert_eq!(hit.len(), 1, "{v:?}");
        assert_eq!(hit[0].path, "crates/b/src/lib.rs");
        let path = &hit[0].taint.as_ref().expect("taint").path;
        assert_eq!(path.len(), 3, "root -> route -> helper: {path:?}");
    }

    #[test]
    fn masked_index_files_skip_the_index_rule_only() {
        // Hot-reachable indexing inside a carve-out file is tolerated
        // (every index there is masked to a power-of-two bound) ...
        let wheel = "impl Engine {\n    pub fn step(&mut self) { self.advance(); }\n    fn advance(&mut self) { let h = self.l0_head[idx & 255]; let _ = h; }\n}\n";
        let v = analyze_fixture(&[("crates/netsim/src/wheel.rs", wheel)]);
        assert!(
            v.iter().all(|v| v.rule != "panic-hotpath-index"),
            "masked-index file is exempt from the index rule: {v:?}"
        );

        // ... but the identical code anywhere else is still flagged ...
        let v = analyze_fixture(&[("crates/netsim/src/other.rs", wheel)]);
        assert!(
            v.iter().any(|v| v.rule == "panic-hotpath-index"),
            "non-exempt file keeps the index rule: {v:?}"
        );

        // ... and the carve-out does not weaken the panic rules in the
        // exempt file itself.
        let v = analyze_fixture(&[(
            "crates/netsim/src/wheel.rs",
            "impl Engine {\n    pub fn step(&mut self) { self.slab[0].take().unwrap(); }\n}\n",
        )]);
        assert!(
            v.iter().any(|v| v.rule == "panic-hotpath"),
            "unwrap in exempt file still flagged: {v:?}"
        );
    }

    #[test]
    fn masked_index_files_keep_the_determinism_rules() {
        let v = analyze_fixture(&[(
            "crates/netsim/src/wheel.rs",
            "fn build() { let m = std::collections::HashMap::new(); let _ = m; }\n",
        )]);
        assert!(
            v.iter().any(|v| v.rule == "determinism-hash-collections"),
            "HashMap in an index-exempt sim file is still rejected: {v:?}"
        );
    }

    #[test]
    fn dispatch_loop_is_a_hot_root() {
        let v = analyze_fixture(&[(
            "crates/netsim/src/engine.rs",
            "impl Engine {\n    pub fn step(&mut self) -> bool { self.queue.pop().expect(\"event\"); true }\n}\n",
        )]);
        assert!(
            v.iter().any(|v| v.rule == "panic-hotpath" && v.line == 2),
            "{v:?}"
        );
    }

    #[test]
    fn harness_node_impls_are_exempt() {
        let v = analyze_fixture(&[(
            "crates/bench/src/bin/fig.rs",
            "impl Node for Probe {\n    fn on_packet(&mut self) { x.unwrap(); }\n}\n",
        )]);
        assert!(v.iter().all(|v| v.rule != "panic-hotpath"), "{v:?}");
    }

    #[test]
    fn sim_taint_upgrades_reachable_determinism_violation() {
        let v = analyze_fixture(&[(
            "crates/tcp/src/stack.rs",
            "impl Engine {\n    fn step(&mut self) { tick(); }\n}\nfn tick() { let m = HashMap::new(); }\nfn cold() { let m = HashSet::new(); }\n",
        )]);
        let tainted: Vec<&Violation> = v
            .iter()
            .filter(|v| v.rule == "sim-taint-hash-collections")
            .collect();
        let lexical: Vec<&Violation> = v
            .iter()
            .filter(|v| v.rule == "determinism-hash-collections")
            .collect();
        assert_eq!(tainted.len(), 1, "{v:?}");
        assert_eq!(tainted[0].line, 4);
        assert!(tainted[0].taint.is_some());
        assert_eq!(lexical.len(), 1, "cold fn keeps lexical rule: {v:?}");
        assert_eq!(lexical[0].line, 5);
    }

    #[test]
    fn test_code_inside_hot_file_is_skipped() {
        let v = analyze_fixture(&[(
            "crates/x/src/lib.rs",
            "impl Node for X {\n    fn on_packet(&mut self) { self.go(); }\n    fn go(&mut self) {}\n}\n#[cfg(test)]\nmod tests {\n    fn t() { z.unwrap(); }\n}\n",
        )]);
        assert!(v.iter().all(|v| v.rule != "panic-hotpath"), "{v:?}");
    }

    // -- shard-safety rules --------------------------------------------

    #[test]
    fn rc_in_cold_lib_code_keeps_lexical_rule() {
        let v = analyze_fixture(&[(
            "crates/x/src/lib.rs",
            "fn build_only() { let r = std::rc::Rc::new(1); let _ = r; }\n",
        )]);
        let hit: Vec<&Violation> = v.iter().filter(|v| v.rule == "shard-nonsend-rc").collect();
        assert_eq!(hit.len(), 1, "{v:?}");
        assert!(hit[0].taint.is_none(), "cold code carries no taint path");
        assert!(v.iter().all(|v| v.rule != "shard-taint-rc"), "{v:?}");
    }

    #[test]
    fn rc_in_hot_closure_upgrades_with_path() {
        let v = analyze_fixture(&[(
            "crates/x/src/lib.rs",
            "impl Node for X {\n    fn on_packet(&mut self) { helper(); }\n}\nfn helper() { let r = Rc::clone(&self.shared); let _ = r; }\n",
        )]);
        let hit: Vec<&Violation> = v.iter().filter(|v| v.rule == "shard-taint-rc").collect();
        assert_eq!(hit.len(), 1, "{v:?}");
        assert_eq!(hit[0].line, 4);
        let taint = hit[0].taint.as_ref().expect("taint path attached");
        assert_eq!(taint.kind, "hot");
        assert_eq!(
            taint.path,
            vec!["crates/x/src/lib.rs::X::on_packet", "crates/x/src/lib.rs::helper"]
        );
    }

    #[test]
    fn bench_harness_is_not_exempt_from_shard_rules() {
        // The determinism rules exempt the harness (it measures the
        // host); the shard rules must not — its closures ride the
        // engine's event queue.
        let v = analyze_fixture(&[(
            "crates/bench/src/sampler.rs",
            "struct T { rows: Rc<RefCell<Vec<u32>>> }\n",
        )]);
        assert!(v.iter().any(|v| v.rule == "shard-nonsend-rc"), "{v:?}");
        assert!(v.iter().any(|v| v.rule == "shard-nonsend-cell"), "{v:?}");
    }

    #[test]
    fn arc_and_mutex_are_not_rc_or_cell() {
        let v = analyze_fixture(&[(
            "crates/x/src/lib.rs",
            "fn f() { let rows: Arc<Mutex<Vec<u32>>> = Default::default(); let _ = rows; }\n",
        )]);
        assert!(
            v.iter().all(|v| !v.rule.starts_with("shard-")),
            "Arc<Mutex<…>> is the sanctioned Send-safe idiom: {v:?}"
        );
    }

    #[test]
    fn turbofish_and_type_alias_cannot_dodge_detection() {
        let v = analyze_fixture(&[(
            "crates/x/src/lib.rs",
            "type Shared<T> = Rc<RefCell<T>>;\nfn f() { let s = Rc::<str>::from(\"x\"); let _ = s; }\n",
        )]);
        let rc_lines: Vec<usize> = v
            .iter()
            .filter(|v| v.rule == "shard-nonsend-rc")
            .map(|v| v.line)
            .collect();
        assert_eq!(rc_lines, vec![1, 2], "alias definition and turbofish both hit: {v:?}");
        assert!(
            v.iter().any(|v| v.rule == "shard-nonsend-cell" && v.line == 1),
            "RefCell inside the alias also hits: {v:?}"
        );
    }

    #[test]
    fn static_mut_thread_local_and_raw_ptr_flagged() {
        let v = analyze_fixture(&[(
            "crates/x/src/lib.rs",
            "static mut COUNTER: u32 = 0;\nthread_local! { static TLS: u32 = 0; }\nfn f(p: *mut u8, q: *const u8) {}\n",
        )]);
        assert!(v.iter().any(|v| v.rule == "shard-nonsend-static-mut" && v.line == 1), "{v:?}");
        assert!(v.iter().any(|v| v.rule == "shard-nonsend-thread-local" && v.line == 2), "{v:?}");
        assert!(v.iter().any(|v| v.rule == "shard-nonsend-raw-ptr" && v.line == 3), "{v:?}");
    }

    #[test]
    fn test_code_and_comments_are_exempt_from_shard_rules() {
        let v = analyze_fixture(&[(
            "crates/x/src/lib.rs",
            "// the old Rc<RefCell<T>> design\nfn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let r = std::rc::Rc::new(1); let _ = r; }\n}\n",
        )]);
        assert!(
            v.iter().all(|v| !v.rule.starts_with("shard-")),
            "comments and #[cfg(test)] code are not library state: {v:?}"
        );
    }

    #[test]
    fn escape_rule_flags_aliasing_node_fields_only() {
        let v = analyze_fixture(&[(
            "crates/x/src/lib.rs",
            "struct X {\n    shared: Rc<Table>,\n    own: Vec<u32>,\n}\nstruct NotANode {\n    shared: Rc<Table>,\n}\nimpl Node for X {\n    fn on_packet(&mut self) {}\n}\n",
        )]);
        let hit: Vec<&Violation> = v
            .iter()
            .filter(|v| v.rule == "shard-shared-mutable-escape")
            .collect();
        assert_eq!(hit.len(), 1, "only the Node struct's field: {v:?}");
        assert_eq!(hit[0].line, 2);
        assert!(hit[0].content.contains("shared"), "{:?}", hit[0]);
    }

    #[test]
    fn escape_rule_permits_immutable_arc_but_not_arc_mutex() {
        let v = analyze_fixture(&[(
            "crates/x/src/lib.rs",
            "struct X {\n    catalog: Arc<SiteCatalog>,\n    stats: Arc<Mutex<Stats>>,\n}\nimpl Node for X {\n    fn on_packet(&mut self) {}\n}\n",
        )]);
        let lines: Vec<usize> = v
            .iter()
            .filter(|v| v.rule == "shard-shared-mutable-escape")
            .map(|v| v.line)
            .collect();
        assert_eq!(
            lines,
            vec![3],
            "shared reads merge deterministically, shared locks do not: {v:?}"
        );
    }

    #[test]
    fn json_output_shape() {
        let report = Report {
            violations: vec![Violation {
                rule: "panic-hotpath",
                path: "crates/x/src/lib.rs".into(),
                line: 3,
                content: "y.unwrap() // \"quoted\"".into(),
                taint: Some(Taint {
                    kind: "hot",
                    path: vec!["a::b".into(), "c::d".into()],
                }),
            }],
            allowlist_errors: vec!["stale".into()],
            stats: Stats {
                files: 1,
                functions: 2,
                hot_functions: 1,
                sim_functions: 0,
            },
        };
        let j = to_json(&report);
        assert!(j.contains("\"violations\": 1"), "{j}");
        assert!(j.contains("\\\"quoted\\\""), "escaped quotes: {j}");
        assert!(j.contains("\"taint\": {\"kind\": \"hot\", \"path\": [\"a::b\", \"c::d\"]}"), "{j}");
        assert!(j.contains("\"allowlist_errors\": ["), "{j}");
        // Countable shape for scripts/check.sh.
        assert_eq!(j.matches("\"rule\":").count(), 1, "{j}");
    }
}
