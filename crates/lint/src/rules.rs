//! The per-file HYPPO-specific rules, rule-id registry, and rule families.
//!
//! Every rule is a textual heuristic over the blanked [`Line`] model — no
//! type information, no macro expansion. That is deliberate: the rules
//! protect *repo-specific* invariants (bit-identical plans under any thread
//! count, justified memory orderings, audited lock nesting) that `clippy`
//! cannot know about, and a heuristic that errs toward flagging is fine
//! because every site can carry an `allow(...)` annotation with a mandatory
//! reason — which is exactly the audit trail the rules exist to create.

use crate::annot::Suppressions;
use crate::scan::{is_word_char, word_occurrences, Line};
use crate::Finding;

/// Rule: iteration over `HashMap`/`HashSet` in determinism-critical crates.
pub const NONDET_ITERATION: &str = "nondeterministic-iteration";
/// Rule: wall-clock reads in plan-decision code.
pub const WALL_CLOCK: &str = "wall-clock-in-planner";
/// Rule: `Ordering::Relaxed` (and `fetch_min`/`fetch_max`/
/// `compare_exchange`) without a written justification.
pub const RELAXED_ORDERING: &str = "relaxed-ordering-justified";
/// Rule: `unsafe` without an adjacent `// SAFETY:` comment.
pub const UNSAFE_COMMENT: &str = "unsafe-needs-safety-comment";
/// Rule: lock acquired while another guard is plausibly live.
pub const NESTED_LOCK: &str = "nested-lock-acquire";
/// Rule: the removed pre-`Planner` API must not come back.
pub const DEPRECATED_API: &str = "no-deprecated-planner-api";
/// Rule: raw filesystem mutation in durability-critical crates.
pub const DIRECT_FS_WRITE: &str = "direct-fs-write-outside-persist";
/// Rule (interprocedural): a cycle in the static lock-acquisition graph.
pub const LOCK_ORDER_CYCLE: &str = "lock-order-cycle";
/// Rule (interprocedural): a blocking operation reachable under a guard.
pub const BLOCKING_CRITICAL: &str = "blocking-in-critical-section";
/// Rule: raw OS-thread creation outside the scheduler crate.
pub const THREAD_SPAWN: &str = "thread-spawn-outside-sched";
/// Meta rule: a well-formed suppression that matched no finding. Not in
/// [`RULE_IDS`]: stale suppressions are deleted, never themselves allowed.
pub const UNUSED_SUPPRESSION: &str = "unused-suppression";

/// All suppressible rule ids (the meta rules `malformed-allow` and
/// `unused-suppression` are deliberately absent).
pub const RULE_IDS: &[&str] = &[
    NONDET_ITERATION,
    WALL_CLOCK,
    RELAXED_ORDERING,
    UNSAFE_COMMENT,
    NESTED_LOCK,
    DEPRECATED_API,
    DIRECT_FS_WRITE,
    LOCK_ORDER_CYCLE,
    BLOCKING_CRITICAL,
    THREAD_SPAWN,
];

/// The family a rule belongs to (grouping for `--json` consumers).
pub fn rule_family(rule: &str) -> &'static str {
    match rule {
        NONDET_ITERATION | WALL_CLOCK => "determinism",
        RELAXED_ORDERING | NESTED_LOCK | LOCK_ORDER_CYCLE | BLOCKING_CRITICAL | THREAD_SPAWN => {
            "concurrency"
        }
        UNSAFE_COMMENT => "safety",
        DIRECT_FS_WRITE => "durability",
        DEPRECATED_API => "api",
        _ => "suppression", // malformed-allow, unused-suppression
    }
}

/// Code that must produce bit-identical results under any thread count and
/// in every process: the planner, the augmenter (its edge order becomes the
/// edge ids plan tie-breaks read), the submission engine and the catalog
/// state it commits (history, materializer — their iteration order reaches
/// the WAL), the serving layer with its shared backend, and the hypergraph
/// kernels.
const DETERMINISM_SCOPE: &[&str] = &[
    "crates/core/src/optimizer/",
    "crates/core/src/augment.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/system.rs",
    "crates/core/src/history.rs",
    "crates/core/src/materialize.rs",
    "crates/serve/src/",
    "crates/hypergraph/src/",
];

/// Plan-decision code: costs and tie-breaks may never depend on the clock.
/// (`monitor.rs`, benches, and `RunReport` timing are outside this scope.)
const PLANNER_SCOPE: &[&str] = &["crates/core/src/optimizer/", "crates/hypergraph/src/"];

/// Concurrency-audited code: atomics and lock nesting carry justifications.
/// `crates/persist` joined the scope with `GroupCommitWal` — the WAL mutexes
/// and fsync-absorption counters are as concurrency-critical as the serving
/// layer.
const CONCURRENCY_SCOPE: &[&str] = &[
    "crates/core/src/optimizer/",
    "crates/serve/src/",
    "crates/persist/src/",
    "crates/sched/src/",
];

/// The one crate allowed to create OS threads: the work-stealing scheduler
/// owns parking, stealing, and shutdown, so every pool in the workspace must
/// be built from its `run_with_driver`/`spawn_pool` primitives.
/// Benches and tests that truly need a raw thread annotate why.
const SCHED_CRATE: &str = "crates/sched/";

/// Durability-audited code: the core system and the serving layer hold state the
/// WAL and snapshot recovery must be able to rebuild, so raw filesystem
/// mutation there either goes through `core::persist::atomic_write` /
/// `hyppo-persist` or carries a written justification. The persist crate
/// itself is where such writes belong and is deliberately out of scope.
const DURABILITY_SCOPE: &[&str] = &["crates/core/src/", "crates/serve/src/"];

fn in_scope(rel_path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| rel_path.starts_with(p))
}

/// Run every per-file rule applicable to `rel_path` over `lines`. (The
/// interprocedural rules run afterwards over the whole-workspace model.)
pub fn check_file(rel_path: &str, lines: &[Line], sup: &Suppressions) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut emit = |rule: &'static str, line: usize, column: usize, message: String| {
        if !sup.allows(rule, line) {
            out.push(Finding { rule, file: rel_path.to_string(), line, column, message });
        }
    };
    if in_scope(rel_path, DETERMINISM_SCOPE) {
        nondet_iteration(lines, &mut emit);
    }
    if in_scope(rel_path, PLANNER_SCOPE) {
        wall_clock(lines, &mut emit);
    }
    if in_scope(rel_path, CONCURRENCY_SCOPE) {
        relaxed_ordering(lines, &mut emit);
        nested_lock(lines, &mut emit);
    }
    if in_scope(rel_path, DURABILITY_SCOPE) {
        direct_fs_write(lines, &mut emit);
    }
    if !rel_path.starts_with(SCHED_CRATE) {
        thread_spawn(lines, &mut emit);
    }
    unsafe_comment(lines, &mut emit);
    deprecated_api(lines, &mut emit);
    out
}

// ---------------------------------------------------------------------------
// nondeterministic-iteration
// ---------------------------------------------------------------------------

/// Track identifiers declared with a `HashMap`/`HashSet` top-level type
/// (`name: HashMap<...>` fields/bindings, `let name = HashMap::new()`),
/// then flag any iteration over them (`for .. in`, `.iter()`, `.keys()`,
/// `.values()`, `.drain()`, `.into_iter()`) whose statement does not
/// immediately impose an order (`sort`/`BTree*`) or fold order-independently
/// (`count`/`len`/`all`/`any`/`min`/`max`).
fn nondet_iteration(lines: &[Line], emit: &mut impl FnMut(&'static str, usize, usize, String)) {
    let vars = hash_typed_idents(lines);
    if vars.is_empty() {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        for var in &vars {
            let mut hit: Option<(&str, usize)> = None;
            'occ: for pos in word_occurrences(code, var) {
                let after = &code[pos + var.len()..];
                for method in [".iter()", ".keys()", ".values()", ".into_iter()", ".drain("] {
                    if after.starts_with(method) {
                        hit = Some((method, pos + 1));
                        break 'occ;
                    }
                }
            }
            if hit.is_none() {
                if let Some(expr) = for_loop_expr(code) {
                    if receiver_is(&expr, var) {
                        hit = Some(("for .. in", 1));
                    }
                }
            }
            let Some((how, col)) = hit else { continue };
            if how != "for .. in" && statement_imposes_order(lines, idx) {
                continue;
            }
            emit(
                NONDET_ITERATION,
                idx + 1,
                col,
                format!(
                    "iteration over hash-ordered `{var}` ({how}) — hash iteration order is \
                     nondeterministic and breaks parallel-vs-serial bit-identity; sort the \
                     result, use a BTree collection, or annotate why order cannot matter"
                ),
            );
        }
    }
}

/// Identifiers whose declared type starts with `HashMap`/`HashSet`.
fn hash_typed_idents(lines: &[Line]) -> Vec<String> {
    let mut vars: Vec<String> = Vec::new();
    for line in lines {
        let code = &line.code;
        for ty in ["HashMap", "HashSet"] {
            for pos in word_occurrences(code, ty) {
                let before = strip_type_prefix(&code[..pos]);
                let name = if before.ends_with(':') && !before.ends_with("::") {
                    trailing_ident(before[..before.len() - 1].trim_end())
                } else if before.ends_with('=') {
                    // `let name = HashMap::new()` / `= HashMap::from(...)`
                    let_binding_name(code)
                } else {
                    None
                };
                if let Some(name) = name {
                    if !vars.contains(&name) {
                        vars.push(name);
                    }
                }
            }
        }
    }
    vars
}

/// Peel `&`, `mut`, and path qualifiers off the text before a type name so
/// `x: &mut std::collections::HashMap<..>` still resolves to `x`, while
/// `Vec<Mutex<HashMap<..>>>` (preceding `<`) resolves to nothing.
fn strip_type_prefix(text: &str) -> &str {
    let mut t = text.trim_end();
    loop {
        if let Some(stripped) = t.strip_suffix("::") {
            // Strip a full trailing path segment: `std::collections::`.
            let stripped = stripped.trim_end_matches(is_word_char);
            t = stripped.trim_end();
        } else if let Some(stripped) = t.strip_suffix("mut") {
            if stripped.ends_with([' ', '&']) || stripped.is_empty() {
                t = stripped.trim_end();
            } else {
                break;
            }
        } else if let Some(stripped) = t.strip_suffix('&') {
            t = stripped.trim_end();
        } else {
            break;
        }
    }
    t
}

fn trailing_ident(text: &str) -> Option<String> {
    let name: String = text
        .chars()
        .rev()
        .take_while(|&c| is_word_char(c))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    (!name.is_empty() && !name.chars().next().unwrap().is_ascii_digit()).then_some(name)
}

/// The bound name of a `let [mut] name` on this line.
fn let_binding_name(code: &str) -> Option<String> {
    let pos = word_occurrences(code, "let").first().copied()?;
    let rest = code[pos + 3..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest.chars().take_while(|&c| is_word_char(c)).collect();
    (!name.is_empty()).then_some(name)
}

/// The iterated expression of a `for <pat> in <expr> {` line, if any.
fn for_loop_expr(code: &str) -> Option<String> {
    let f = word_occurrences(code, "for").first().copied()?;
    let in_rel = word_occurrences(&code[f..], "in").first().copied()?;
    let expr = &code[f + in_rel + 2..];
    let expr = match expr.find('{') {
        Some(b) => &expr[..b],
        None => expr,
    };
    Some(expr.trim().to_string())
}

/// Whether `expr`'s base receiver is `var` (through `&`, `mut`, parens, and
/// a leading `self.`).
fn receiver_is(expr: &str, var: &str) -> bool {
    let mut e = expr.trim();
    loop {
        let before = e;
        e = e.trim_start_matches(['&', '(']).trim_start();
        e = e.strip_prefix("mut ").unwrap_or(e).trim_start();
        e = e.strip_prefix("self.").unwrap_or(e);
        if e == before {
            break;
        }
    }
    let base: String = e.chars().take_while(|&c| is_word_char(c)).collect();
    base == var && {
        let after = e[base.len()..].chars().next().unwrap_or(' ');
        !is_word_char(after) && after != ':'
    }
}

/// Whether the statement containing line `idx` sorts its result or folds it
/// order-independently (joined with up to 4 continuation lines).
fn statement_imposes_order(lines: &[Line], idx: usize) -> bool {
    let mut stmt = String::new();
    for line in lines.iter().skip(idx).take(5) {
        stmt.push_str(&line.code);
        stmt.push(' ');
        if line.code.contains(';') {
            break;
        }
    }
    [".sort", "sorted", "BTree", ".count(", ".len(", ".all(", ".any(", ".min(", ".max("]
        .iter()
        .any(|p| stmt.contains(p))
}

// ---------------------------------------------------------------------------
// wall-clock-in-planner
// ---------------------------------------------------------------------------

fn wall_clock(lines: &[Line], emit: &mut impl FnMut(&'static str, usize, usize, String)) {
    for (idx, line) in lines.iter().enumerate() {
        for pat in ["Instant::now", "SystemTime::now"] {
            if let Some(pos) = line.code.find(pat) {
                emit(
                    WALL_CLOCK,
                    idx + 1,
                    pos + 1,
                    format!(
                        "`{pat}` in plan-decision code — costs and tie-breaks must never \
                         depend on the clock (timing belongs in monitor.rs, benches, or \
                         RunReport fields)"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// relaxed-ordering-justified
// ---------------------------------------------------------------------------

fn relaxed_ordering(lines: &[Line], emit: &mut impl FnMut(&'static str, usize, usize, String)) {
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        let relaxed = word_occurrences(code, "Relaxed").first().copied();
        let rmw =
            [".fetch_min(", ".fetch_max(", ".compare_exchange"].iter().find_map(|p| code.find(p));
        if let Some(pos) = relaxed.or(rmw) {
            emit(
                RELAXED_ORDERING,
                idx + 1,
                pos + 1,
                "atomic with a weak/RMW ordering must carry an \
                 `allow(relaxed-ordering-justified)` annotation explaining why the \
                 ordering is safe"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// thread-spawn-outside-sched
// ---------------------------------------------------------------------------

/// Flag raw OS-thread creation (`thread::spawn` / `thread::Builder`)
/// anywhere outside `crates/sched/`. Scoped `scope.spawn(..)` closures are
/// deliberately not matched: `std::thread::scope` blocks until its threads
/// finish, so a scoped spawn cannot leak a thread past its caller — the
/// hazard this rule exists for is detached pools with ad-hoc parking and
/// shutdown, which belong in the scheduler.
fn thread_spawn(lines: &[Line], emit: &mut impl FnMut(&'static str, usize, usize, String)) {
    for (idx, line) in lines.iter().enumerate() {
        for pat in ["thread::spawn(", "thread::Builder"] {
            if let Some(pos) = line.code.find(pat) {
                emit(
                    THREAD_SPAWN,
                    idx + 1,
                    pos + 1,
                    format!(
                        "`{pat}..` creates a raw OS thread outside `crates/sched` — worker \
                         pools go through `hyppo-sched` (`run_with_driver`, `spawn_pool`) \
                         so parking, stealing, and shutdown stay centralized; \
                         annotate benches/tests that truly need a bare thread"
                    ),
                );
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// unsafe-needs-safety-comment
// ---------------------------------------------------------------------------

fn unsafe_comment(lines: &[Line], emit: &mut impl FnMut(&'static str, usize, usize, String)) {
    for (idx, line) in lines.iter().enumerate() {
        let Some(pos) = word_occurrences(&line.code, "unsafe").first().copied() else { continue };
        let documented = (idx.saturating_sub(3)..=idx)
            .any(|j| lines.get(j).is_some_and(|l| l.comment.contains("SAFETY:")));
        if !documented {
            emit(
                UNSAFE_COMMENT,
                idx + 1,
                pos + 1,
                "`unsafe` without an adjacent `// SAFETY:` comment — state the invariant \
                 that makes this sound"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// nested-lock-acquire
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Guard {
    /// Binding name (`None` for `if let`/`while let`/`match` scrutinee
    /// temporaries, which live for the following block).
    name: Option<String>,
    depth: i32,
    line: usize,
}

/// Textual scope heuristic: walk statements (split on `;`, `{`, `}`) while
/// tracking brace depth; a `let g = ...lock()/.read()/.write()...` keeps a
/// guard live until its block closes (or an explicit `drop(g)`), and any
/// further acquisition while a guard is live — or two acquisitions in one
/// statement — is flagged. Annotate with the lock-order rationale.
///
/// Guard liveness resets at every `fn` item boundary: a guard can never
/// outlive the function that bound it, so even if brace tracking was thrown
/// off (strings are blanked, but macros can still unbalance the model), a
/// stale guard cannot leak into the *next* function and flag its first
/// acquisition.
fn nested_lock(lines: &[Line], emit: &mut impl FnMut(&'static str, usize, usize, String)) {
    // Empty-argument forms only: `Mutex::lock`/`RwLock::read`/`RwLock::write`
    // take no arguments, while `io::Read::read(&mut buf)` and the
    // `OpenOptions` builder's `.read(true)`/`.write(true)` do.
    const ACQUIRE: &[&str] = &[".lock()", ".read()", ".write()"];
    let mut depth: i32 = 0;
    let mut guards: Vec<Guard> = Vec::new();
    let mut stmt = String::new();
    let mut stmt_start = 0usize;

    for (idx, line) in lines.iter().enumerate() {
        for c in line.code.chars() {
            if stmt.trim().is_empty() {
                stmt_start = idx;
            }
            match c {
                '{' | '}' | ';' => {
                    if c == '{' && !word_occurrences(&stmt, "fn").is_empty() {
                        // Entering a new `fn` item: no guard crosses a
                        // function boundary.
                        guards.clear();
                        stmt.clear();
                        depth += 1;
                        continue;
                    }
                    let acqs: usize = ACQUIRE.iter().map(|p| stmt.matches(p).count()).sum();
                    if acqs > 0 {
                        let live: Vec<usize> = guards.iter().map(|g| g.line + 1).collect();
                        if !live.is_empty() || acqs > 1 {
                            let col = ACQUIRE
                                .iter()
                                .filter_map(|p| stmt.find(p))
                                .min()
                                .map_or(1, |p| p + 1);
                            emit(
                                NESTED_LOCK,
                                stmt_start + 1,
                                col,
                                format!(
                                    "lock acquired while {} plausibly live (guard(s) from \
                                     line(s) {:?}) — annotate with the acquisition-order \
                                     rationale or narrow the guard's scope",
                                    if acqs > 1 && live.is_empty() {
                                        "another acquisition in the same statement is"
                                    } else {
                                        "an earlier guard is"
                                    },
                                    if live.is_empty() { vec![stmt_start + 1] } else { live }
                                ),
                            );
                        }
                        let trimmed = stmt.trim_start();
                        if let Some(name) =
                            trimmed.starts_with("let ").then(|| let_binding_name(&stmt)).flatten()
                        {
                            let d = if c == '{' { depth + 1 } else { depth };
                            guards.push(Guard { name: Some(name), depth: d, line: stmt_start });
                        } else if c == '{' {
                            // `if let` / `while let` / `match` scrutinee
                            // temporary: lives for the following block.
                            guards.push(Guard { name: None, depth: depth + 1, line: stmt_start });
                        }
                    }
                    if let Some(dropped) = drop_target(&stmt) {
                        guards.retain(|g| g.name.as_deref() != Some(dropped.as_str()));
                    }
                    stmt.clear();
                    match c {
                        '{' => depth += 1,
                        '}' => {
                            depth -= 1;
                            guards.retain(|g| g.depth <= depth);
                        }
                        _ => {}
                    }
                }
                _ => stmt.push(c),
            }
        }
        stmt.push(' ');
    }
}

/// The identifier inside a `drop(<ident>)` call, if the statement has one.
fn drop_target(stmt: &str) -> Option<String> {
    let pos = word_occurrences(stmt, "drop").first().copied()?;
    let rest = stmt[pos + 4..].trim_start().strip_prefix('(')?;
    let name: String = rest.trim_start().chars().take_while(|&c| is_word_char(c)).collect();
    (!name.is_empty()).then_some(name)
}

// ---------------------------------------------------------------------------
// direct-fs-write-outside-persist
// ---------------------------------------------------------------------------

/// Filesystem-mutation call patterns. Reads (`fs::read*`, `File::open`) are
/// fine — only mutations can desynchronize disk state from the WAL.
const FS_WRITE_PATTERNS: &[&str] = &[
    "fs::write(",
    "File::create(",
    "OpenOptions::new",
    "fs::rename(",
    "fs::copy(",
    "fs::create_dir",
    "fs::remove_file(",
    "fs::remove_dir",
];

/// Flag raw filesystem mutations in durability-critical code. Scanning
/// stops at the first `#[cfg(test)]` line: tests scribble in temp dirs by
/// design and hold no recoverable state.
fn direct_fs_write(lines: &[Line], emit: &mut impl FnMut(&'static str, usize, usize, String)) {
    for (idx, line) in lines.iter().enumerate() {
        if line.code.contains("#[cfg(test)]") {
            break;
        }
        for pat in FS_WRITE_PATTERNS {
            if let Some(pos) = line.code.find(pat) {
                emit(
                    DIRECT_FS_WRITE,
                    idx + 1,
                    pos + 1,
                    format!(
                        "`{pat}..)` mutates the filesystem in durability-critical code — \
                         recoverable state must reach disk through `core::persist::atomic_write` \
                         or the `hyppo-persist` WAL/store so crash recovery stays sound; route \
                         the write through those, or annotate why it cannot desynchronize \
                         recoverable state"
                    ),
                );
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// no-deprecated-planner-api
// ---------------------------------------------------------------------------

fn deprecated_api(lines: &[Line], emit: &mut impl FnMut(&'static str, usize, usize, String)) {
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        let mut flag = |what: &str, pos: usize| {
            emit(
                DEPRECATED_API,
                idx + 1,
                pos + 1,
                format!(
                    "`{what}` is the removed pre-Planner API — use \
                     `Planner::exact()/greedy()` with `PlanRequest` instead"
                ),
            )
        };
        if let Some(pos) = word_occurrences(code, "SearchOptions").first().copied() {
            flag("SearchOptions", pos);
        }
        for pos in word_occurrences(code, "optimize") {
            if code[pos + "optimize".len()..].starts_with('(') && !code[..pos].ends_with('.') {
                flag("optimize(", pos);
                break;
            }
        }
    }
}
