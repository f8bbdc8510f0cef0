//! The rule set.
//!
//! Each rule enforces one invariant the workspace's bit-identity and safety
//! guarantees rest on (see DESIGN.md, "Determinism & safety invariants"):
//!
//! | id                       | invariant |
//! |--------------------------|-----------|
//! | `hash-order` (R1)        | no `HashMap`/`HashSet` in library code — iteration order is nondeterministic and breaks bit-identical accumulation; use `BTreeMap`/`BTreeSet` or sorted keys |
//! | `thread-discipline` (R2) | no `thread::spawn`, `Mutex`/`RwLock`, or `Ordering::Relaxed` outside `crates/runtime` — all parallelism goes through the pool's fixed-order `par_for`/`par_map` |
//! | `safety-comment` (R3)    | every `unsafe` is immediately preceded by a `// SAFETY:` comment stating the aliasing/lifetime argument |
//! | `no-unwrap` (R4)         | no `.unwrap()`, empty `.expect("")`, or message-less `panic!()` in non-test library code — propagate `Result` or name the violated invariant |
//! | `float-eq` (R5a)         | no `==`/`!=` against float literals in numeric code — exact float compares are almost always a tolerance bug |
//! | `wall-clock` (R5b)       | no `Instant::now`/`SystemTime::now` in numeric kernels — wall-clock reads make kernel behaviour timing-dependent |
//! | `tensor-clone` (R6)      | no `.clone()` in the inference crates (`core`, `detectors`, `eval`) — the serving path is allocation-free (`InferencePlan` + workspace); a clone is a per-image heap hit unless proven cold with a reasoned allow |
//! | `unbounded-channel` (R7) | no `mpsc::channel` or `thread::Builder` outside `crates/runtime` — unbounded channels hide backlog (backpressure must be a typed rejection, `BoundedQueue`), and `thread::Builder` is the spawn loophole R2's `thread::spawn` check misses; long-lived threads go through `Crew` |
//! | `raw-timing` (R8)        | no `std::time::Instant`/`SystemTime` mention outside `crates/trace` — ad-hoc timing drifts from the shared trace epoch and bypasses the registry; measure with `dv_trace::Stopwatch`/`span!`, or allow with the reason raw timing is required |
//! | `env-read` (R9)          | no `std::env::var`/`var_os`/`vars` outside `crates/runtime/src/config.rs` — scattered env reads let two call sites disagree about the same knob (one cached, one fresh); every knob goes through `dv_runtime::config`, or an allow naming why the read is a driver-local flag |
//! | `layer-match-wildcard` (R10) | no `_ =>` arms in a `match` over the `LayerSpec` layer enum — the abstract interpreter's soundness rests on every analyzer handling every layer variant, and a wildcard silently (and unsoundly) absorbs variants added later; enumerate all variants so new layers fail to compile, or allow with the reason the default is variant-independent |
//! | `span-name` (R11)        | the name at a `span!`/`record_raw`/`record_event` call site must be a literal dotted-lowercase `crate.stage[.detail]` string — the trace stitcher and the metrics/export pipelines match lifecycle events *by name*, so a computed or free-form name silently falls out of every timeline; allow with the reason the name must be computed |
//!
//! Rules see only the lexed token stream (comments and string literals are
//! already stripped), and skip `#[cfg(test)]` regions, so test code may use
//! the full std vocabulary.

use crate::diag::Diagnostic;
use crate::lexer::{Comment, Lexed, Tok, TokKind};

pub const HASH_ORDER: &str = "hash-order";
pub const THREAD_DISCIPLINE: &str = "thread-discipline";
pub const SAFETY_COMMENT: &str = "safety-comment";
pub const NO_UNWRAP: &str = "no-unwrap";
pub const FLOAT_EQ: &str = "float-eq";
pub const WALL_CLOCK: &str = "wall-clock";
pub const TENSOR_CLONE: &str = "tensor-clone";
pub const UNBOUNDED_CHANNEL: &str = "unbounded-channel";
pub const RAW_TIMING: &str = "raw-timing";
pub const ENV_READ: &str = "env-read";
pub const LAYER_MATCH_WILDCARD: &str = "layer-match-wildcard";
pub const SPAN_NAME: &str = "span-name";
pub const BAD_DIRECTIVE: &str = "bad-directive";

/// All suppressible rule ids, in report order.
pub const ALL_RULES: &[&str] = &[
    HASH_ORDER,
    THREAD_DISCIPLINE,
    SAFETY_COMMENT,
    NO_UNWRAP,
    FLOAT_EQ,
    WALL_CLOCK,
    TENSOR_CLONE,
    UNBOUNDED_CHANNEL,
    RAW_TIMING,
    ENV_READ,
    LAYER_MATCH_WILDCARD,
    SPAN_NAME,
];

/// The one file allowed to read the process environment: the runtime
/// crate's config module, where every knob is parsed (and, where
/// needed, cached) exactly once.
const ENV_READ_HOME: &str = "crates/runtime/src/config.rs";

/// Per-file context handed to each rule.
pub struct FileCtx<'a> {
    /// Workspace-relative display path.
    pub rel_path: &'a str,
    /// Directory name under `crates/` ("tensor", "runtime", …) or "root"
    /// for the top-level `src/` and `examples/`.
    pub crate_dir: &'a str,
    pub lexed: &'a Lexed<'a>,
    /// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: &'a [(u32, u32)],
}

impl FileCtx<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    fn diag(&self, rule: &'static str, line: u32, msg: String) -> Diagnostic {
        Diagnostic {
            rule,
            path: self.rel_path.to_string(),
            line,
            msg,
        }
    }
}

/// Does `rule` apply to files of `crate_dir`? The runtime crate owns the
/// threading primitives the rest of the workspace must not touch, and the
/// bench crate's whole job is timing, so each is carved out of exactly the
/// rules it exists to implement.
pub fn rule_applies(rule: &str, crate_dir: &str) -> bool {
    match rule {
        THREAD_DISCIPLINE => crate_dir != "runtime",
        UNBOUNDED_CHANNEL => crate_dir != "runtime",
        // Bench and runtime time things for a living; trace owns the
        // shared clock epoch itself. The server keeps its deadlines on
        // that epoch (`dv_trace::now_ns`), so it needs no carve-out.
        WALL_CLOCK => !matches!(crate_dir, "runtime" | "bench" | "trace"),
        // Stricter than R5b: any *mention* of the raw clock types, so
        // even storing an Instant needs a reason. Only the crate that
        // defines the trace epoch is carved out; bench and runtime
        // justify each site with an allow.
        RAW_TIMING => crate_dir != "trace",
        // The inference crates promise an allocation-free serving path;
        // everywhere else (tensor kernels, training, experiment drivers)
        // owned copies are part of the job.
        TENSOR_CLONE => matches!(crate_dir, "core" | "detectors" | "eval"),
        _ => true,
    }
}

/// Run every applicable rule over one file.
pub fn check_file(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if rule_applies(HASH_ORDER, ctx.crate_dir) {
        check_hash_order(ctx, out);
    }
    if rule_applies(THREAD_DISCIPLINE, ctx.crate_dir) {
        check_thread_discipline(ctx, out);
    }
    if rule_applies(SAFETY_COMMENT, ctx.crate_dir) {
        check_safety_comment(ctx, out);
    }
    if rule_applies(NO_UNWRAP, ctx.crate_dir) {
        check_no_unwrap(ctx, out);
    }
    if rule_applies(FLOAT_EQ, ctx.crate_dir) {
        check_float_eq(ctx, out);
    }
    if rule_applies(WALL_CLOCK, ctx.crate_dir) {
        check_wall_clock(ctx, out);
    }
    if rule_applies(TENSOR_CLONE, ctx.crate_dir) {
        check_tensor_clone(ctx, out);
    }
    if rule_applies(UNBOUNDED_CHANNEL, ctx.crate_dir) {
        check_unbounded_channel(ctx, out);
    }
    if rule_applies(RAW_TIMING, ctx.crate_dir) {
        check_raw_timing(ctx, out);
    }
    if rule_applies(ENV_READ, ctx.crate_dir) {
        check_env_read(ctx, out);
    }
    if rule_applies(LAYER_MATCH_WILDCARD, ctx.crate_dir) {
        check_layer_match_wildcard(ctx, out);
    }
    if rule_applies(SPAN_NAME, ctx.crate_dir) {
        check_span_name(ctx, out);
    }
}

fn is_ident(t: &Tok<'_>, text: &str) -> bool {
    t.kind == TokKind::Ident && t.text == text
}

fn is_punct(t: &Tok<'_>, text: &str) -> bool {
    t.kind == TokKind::Punct && t.text == text
}

/// R1: any `HashMap`/`HashSet` mention in non-test library code.
fn check_hash_order(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for t in ctx.lexed.toks.iter() {
        if t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !ctx.in_test(t.line)
        {
            out.push(ctx.diag(
                HASH_ORDER,
                t.line,
                format!(
                    "{} has nondeterministic iteration order, which breaks bit-identical \
                     accumulation; use BTreeMap/BTreeSet or iterate over sorted keys",
                    t.text
                ),
            ));
        }
    }
}

/// R2: ad-hoc parallelism primitives outside `crates/runtime`.
fn check_thread_discipline(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test(t.line) {
            continue;
        }
        let offence = if is_ident(t, "spawn")
            && i >= 2
            && is_punct(&toks[i - 1], "::")
            && is_ident(&toks[i - 2], "thread")
        {
            Some("thread::spawn bypasses the deterministic pool")
        } else if t.kind == TokKind::Ident && (t.text == "Mutex" || t.text == "RwLock") {
            Some("lock-guarded accumulation is order-dependent")
        } else if is_ident(t, "Relaxed")
            && i >= 2
            && is_punct(&toks[i - 1], "::")
            && is_ident(&toks[i - 2], "Ordering")
        {
            Some("Ordering::Relaxed permits unsynchronised reordering")
        } else {
            None
        };
        if let Some(why) = offence {
            out.push(ctx.diag(
                THREAD_DISCIPLINE,
                t.line,
                format!(
                    "{why}; all parallelism outside crates/runtime must go through the pool's \
                     fixed-order par_for/par_map"
                ),
            ));
        }
    }
}

/// R3: `unsafe` without an immediately preceding `// SAFETY:` comment.
///
/// "Immediately preceding" means: the line above the `unsafe` token is part
/// of a contiguous run of comment-only lines, and at least one line of that
/// run starts with `SAFETY:`. This accepts multi-line SAFETY arguments and
/// rejects a SAFETY comment separated from its block by code.
fn check_safety_comment(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for t in ctx.lexed.toks.iter() {
        if !is_ident(t, "unsafe") || ctx.in_test(t.line) {
            continue;
        }
        if !has_safety_comment_above(ctx.lexed, t.line) {
            out.push(
                ctx.diag(
                    SAFETY_COMMENT,
                    t.line,
                    "unsafe block/impl must be immediately preceded by a `// SAFETY:` comment \
                 stating the aliasing/lifetime argument"
                        .to_string(),
                ),
            );
        }
    }
}

fn has_safety_comment_above(lexed: &Lexed<'_>, unsafe_line: u32) -> bool {
    // Walk upward through comment-only lines.
    let mut line = unsafe_line.saturating_sub(1);
    while line >= 1 {
        let comments_here: Vec<&Comment<'_>> = lexed
            .comments
            .iter()
            .filter(|c| (c.line..=c.end_line).contains(&line))
            .collect();
        if comments_here.is_empty() || lexed.has_code(line) {
            return false;
        }
        if comments_here
            .iter()
            .any(|c| c.text.trim_start().starts_with("SAFETY:"))
        {
            return true;
        }
        line -= 1;
    }
    false
}

/// R4: `.unwrap()`, empty `.expect("")`, or message-less `panic!()`.
fn check_no_unwrap(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        match t.text {
            "unwrap" => {
                let dotted = i >= 1 && is_punct(&toks[i - 1], ".");
                let called = matches!((toks.get(i + 1), toks.get(i + 2)), (Some(a), Some(b)) if is_punct(a, "(") && is_punct(b, ")"));
                if dotted && called {
                    out.push(
                        ctx.diag(
                            NO_UNWRAP,
                            t.line,
                            "unwrap() hides which invariant failed; propagate Result or use \
                         expect(\"...\") naming the violated invariant"
                                .to_string(),
                        ),
                    );
                }
            }
            "expect" => {
                let dotted = i >= 1 && is_punct(&toks[i - 1], ".");
                let empty_msg = matches!(
                    (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3)),
                    (Some(a), Some(s), Some(b))
                        if is_punct(a, "(")
                            && s.kind == TokKind::Str
                            && str_is_blank(s.text)
                            && is_punct(b, ")")
                );
                if dotted && empty_msg {
                    out.push(
                        ctx.diag(
                            NO_UNWRAP,
                            t.line,
                            "expect(\"\") is unwrap() in disguise; name the violated invariant in \
                         the message"
                                .to_string(),
                        ),
                    );
                }
            }
            "panic" => {
                let bang = matches!(toks.get(i + 1), Some(b) if is_punct(b, "!"));
                if !bang {
                    continue;
                }
                let bare = matches!((toks.get(i + 2), toks.get(i + 3)), (Some(a), Some(b)) if is_punct(a, "(") && is_punct(b, ")"));
                let empty = matches!(
                    (toks.get(i + 2), toks.get(i + 3), toks.get(i + 4)),
                    (Some(a), Some(s), Some(b))
                        if is_punct(a, "(")
                            && s.kind == TokKind::Str
                            && str_is_blank(s.text)
                            && is_punct(b, ")")
                );
                if bare || empty {
                    out.push(
                        ctx.diag(
                            NO_UNWRAP,
                            t.line,
                            "message-less panic!() gives no diagnostic; state which invariant \
                         failed, or propagate Result"
                                .to_string(),
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Is a string literal (quotes included) empty or whitespace-only?
fn str_is_blank(text: &str) -> bool {
    text.trim_matches('"').trim().is_empty()
}

/// R5a: `==`/`!=` with a float literal operand.
fn check_float_eq(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") || ctx.in_test(t.line) {
            continue;
        }
        // The literal may sit behind a unary minus: `x == -1.0`.
        let next_is_float = match toks.get(i + 1) {
            Some(n) if n.kind == TokKind::Float => true,
            Some(n) if is_punct(n, "-") => {
                matches!(toks.get(i + 2), Some(m) if m.kind == TokKind::Float)
            }
            _ => false,
        };
        let prev_is_float = i >= 1 && toks[i - 1].kind == TokKind::Float;
        if prev_is_float || next_is_float {
            out.push(ctx.diag(
                FLOAT_EQ,
                t.line,
                format!(
                    "exact float `{}` comparison is almost always a tolerance bug; compare \
                     with an epsilon, match on bit patterns, or allow with the reason the \
                     exact value is structural",
                    t.text
                ),
            ));
        }
    }
}

/// R5b: wall-clock reads in numeric kernels.
fn check_wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || (t.text != "Instant" && t.text != "SystemTime")
            || ctx.in_test(t.line)
        {
            continue;
        }
        let now_follows = matches!(
            (toks.get(i + 1), toks.get(i + 2)),
            (Some(a), Some(b)) if is_punct(a, "::") && is_ident(b, "now")
        );
        if now_follows {
            out.push(ctx.diag(
                WALL_CLOCK,
                t.line,
                format!(
                    "{}::now() makes kernel behaviour timing-dependent; timing belongs in \
                     crates/bench or crates/runtime",
                    t.text
                ),
            ));
        }
    }
}

/// R6: `.clone()` calls in the inference crates.
///
/// The serving path runs through a shared `&InferencePlan` and reusable
/// workspaces precisely so nothing is copied per image; a `.clone()` in
/// `core`/`detectors`/`eval` library code is either a per-image heap
/// allocation (a regression) or a cold fit/setup-time copy (fine, but it
/// must say so in a reasoned allow). Lexically this cannot see types, so
/// every clone — tensor or not — needs the justification.
fn check_tensor_clone(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if !is_ident(t, "clone") || ctx.in_test(t.line) {
            continue;
        }
        let dotted = i >= 1 && is_punct(&toks[i - 1], ".");
        let called = matches!(
            (toks.get(i + 1), toks.get(i + 2)),
            (Some(a), Some(b)) if is_punct(a, "(") && is_punct(b, ")")
        );
        if dotted && called {
            out.push(
                ctx.diag(
                    TENSOR_CLONE,
                    t.line,
                    "clone() on the inference path is a per-image heap allocation; score \
                 through a shared InferencePlan + workspace, hoist the copy to fit/setup \
                 time, or allow with the reason the clone is cold"
                        .to_string(),
                ),
            );
        }
    }
}

/// R7: unbounded channels and bare thread construction outside
/// `crates/runtime`.
///
/// `mpsc::channel` is the unbounded queue std hands out by default: under
/// overload it converts backpressure into an invisible, growing backlog.
/// Serving code must use `dv_runtime::BoundedQueue`, whose `try_push`
/// surfaces overload as a typed rejection. `thread::Builder` is flagged
/// for the same reason R2 flags `thread::spawn` — it is the loophole that
/// check cannot see (`Builder::new().spawn(..)` never lexes as
/// `thread::spawn`); long-lived threads go through `dv_runtime::Crew`,
/// which supervises and respawns them.
fn check_unbounded_channel(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test(t.line) {
            continue;
        }
        let offence = if is_ident(t, "channel")
            && i >= 2
            && is_punct(&toks[i - 1], "::")
            && is_ident(&toks[i - 2], "mpsc")
        {
            Some(
                "mpsc::channel is unbounded — overload becomes an invisible backlog; use \
                 dv_runtime::BoundedQueue, whose try_push rejects with typed backpressure",
            )
        } else if is_ident(t, "Builder")
            && i >= 2
            && is_punct(&toks[i - 1], "::")
            && is_ident(&toks[i - 2], "thread")
        {
            Some(
                "thread::Builder bypasses supervision; long-lived threads go through \
                 dv_runtime::Crew so crashes are reaped and respawned",
            )
        } else {
            None
        };
        if let Some(why) = offence {
            out.push(ctx.diag(UNBOUNDED_CHANNEL, t.line, why.to_string()));
        }
    }
}

/// R8: any mention of the raw clock types outside `crates/trace`.
///
/// R5b only catches the `::now()` call; this rule also catches imports
/// and stored `Instant` fields, because a raw timestamp anywhere else
/// lives on a different epoch than the trace timeline and its readings
/// cannot land in the metrics registry or the chrome trace. Time with
/// `dv_trace::Stopwatch` or a `span!` instead, or allow the site with
/// the reason raw timing is required (condvar timeouts, OS deadline
/// arithmetic).
fn check_raw_timing(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for t in ctx.lexed.toks.iter() {
        if t.kind == TokKind::Ident
            && (t.text == "Instant" || t.text == "SystemTime")
            && !ctx.in_test(t.line)
        {
            out.push(ctx.diag(
                RAW_TIMING,
                t.line,
                format!(
                    "{} lives on its own epoch, invisible to the trace timeline and the \
                     metrics registry; time with dv_trace::Stopwatch or span!, or allow \
                     with the reason raw timing is required",
                    t.text
                ),
            ));
        }
    }
}

/// R9: `env::var`/`var_os`/`vars` reads anywhere but the runtime
/// crate's config module.
///
/// Environment variables are ambient mutable state: one site reading
/// `DV_THREADS` fresh while another cached it at startup silently
/// disagree about the same knob, and a new variable added in a leaf
/// crate is invisible to the documented knob table. All reads are
/// centralized in `crates/runtime/src/config.rs` (the only exempt
/// file); experiment drivers that genuinely own a bench-local flag
/// carry an allow naming why.
fn check_env_read(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.rel_path == ENV_READ_HOME {
        return;
    }
    let toks = &ctx.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || !matches!(t.text, "var" | "var_os" | "vars")
            || ctx.in_test(t.line)
        {
            continue;
        }
        let env_path = i >= 2 && is_punct(&toks[i - 1], "::") && is_ident(&toks[i - 2], "env");
        if env_path {
            out.push(ctx.diag(
                ENV_READ,
                t.line,
                format!(
                    "env::{} reads ambient process state; route the knob through \
                     dv_runtime::config so it is parsed once and documented, or allow with \
                     the reason the read is a driver-local flag",
                    t.text
                ),
            ));
        }
    }
}

/// R10: `_ =>` arms in a `match` over the `LayerSpec` layer enum.
///
/// `dv-nn` deliberately leaves `LayerSpec` exhaustive (no
/// `#[non_exhaustive]`) so that adding a layer variant breaks every
/// analyzer at compile time — the abstract interpreter's soundness
/// depends on a transfer function existing for *every* layer, and a
/// wildcard arm would turn that compile error into a silent (unsound)
/// fallback. Lexically: for each `match` expression whose span mentions
/// the `LayerSpec` identifier, flag every top-level `_` arm pattern
/// (plain `_ =>` or guarded `_ if … =>`). Underscores nested inside
/// variant patterns (`Dense(_)`) sit at deeper bracket depth and pass.
fn check_layer_match_wildcard(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if !is_ident(t, "match") {
            continue;
        }
        // The arm block is the first `{` outside parens/brackets after the
        // scrutinee (struct literals are illegal in scrutinee position).
        let mut nest = 0i32;
        let mut open = None;
        for (j, s) in toks.iter().enumerate().skip(i + 1) {
            if s.kind != TokKind::Punct {
                continue;
            }
            match s.text {
                "(" | "[" => nest += 1,
                ")" | "]" => nest -= 1,
                "{" if nest == 0 => {
                    open = Some(j);
                    break;
                }
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        // Walk the arm block. Depth 1 is arm-pattern level; nested
        // matches re-run this scan from their own `match` keyword.
        let mut mentions = toks[i..=open].iter().any(|s| is_ident(s, "LayerSpec"));
        let mut wildcards: Vec<u32> = Vec::new();
        let mut depth = 1i32;
        for k in open + 1..toks.len() {
            if depth == 0 {
                break;
            }
            let s = &toks[k];
            if s.kind == TokKind::Punct {
                match s.text {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => depth -= 1,
                    _ => {}
                }
            } else if is_ident(s, "LayerSpec") {
                mentions = true;
            } else if depth == 1 && is_ident(s, "_") && !ctx.in_test(s.line) {
                let arm_follows = matches!(
                    toks.get(k + 1),
                    Some(n) if is_punct(n, "=>") || is_ident(n, "if")
                );
                if arm_follows {
                    wildcards.push(s.line);
                }
            }
        }
        if !mentions {
            continue;
        }
        for line in wildcards {
            out.push(
                ctx.diag(
                    LAYER_MATCH_WILDCARD,
                    line,
                    "wildcard arm in a match over LayerSpec silently absorbs layer variants \
                 added later, turning a compile error into an unsound fallback; enumerate \
                 every variant, or allow with the reason the default is variant-independent"
                        .to_string(),
                ),
            );
        }
    }
}

/// R11: span/event names at `span!` / `record_raw` / `record_event`
/// call sites must be literal dotted-lowercase `crate.stage[.detail]`.
///
/// The whole observability pipeline matches on these names as data: the
/// stitcher resolves lifecycle stages by exact string (`"serve.enqueued"`
/// et al.), the exporter groups stage totals by name, and dashboards grep
/// the chrome trace for them. A computed name (`span!(op.name())`) is
/// invisible to all of that — it produces spans nothing downstream can
/// claim — and a free-form literal (`"Forward pass"`) fragments the
/// vocabulary. Lexically: the first token inside the macro/call
/// delimiter must be a string literal whose quote-trimmed text is 2–3
/// non-empty dot-separated segments of `[a-z0-9_]`. dv-trace's own
/// `fn record_raw`/`fn record_event` definitions (ident preceded by
/// `fn`) and `use` mentions (no delimiter follows) never match.
fn check_span_name(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        // Token index of the name argument, when this is a call site.
        let name_idx = match t.text {
            // `span!` + any open delimiter. `macro_rules! span { … }`
            // puts the `!` *before* the ident and never matches.
            "span" => match (toks.get(i + 1), toks.get(i + 2)) {
                (Some(b), Some(d))
                    if is_punct(b, "!")
                        && (is_punct(d, "(") || is_punct(d, "[") || is_punct(d, "{")) =>
                {
                    Some(i + 3)
                }
                _ => None,
            },
            // A call, not dv-trace's own `fn record_*(…)` definition.
            "record_raw" | "record_event" => match toks.get(i + 1) {
                Some(p) if is_punct(p, "(") && !(i >= 1 && is_ident(&toks[i - 1], "fn")) => {
                    Some(i + 2)
                }
                _ => None,
            },
            _ => None,
        };
        let Some(name_idx) = name_idx else { continue };
        match toks.get(name_idx) {
            Some(s) if s.kind == TokKind::Str => {
                if !span_name_ok(s.text) {
                    out.push(ctx.diag(
                        SPAN_NAME,
                        t.line,
                        format!(
                            "span/event name {} is not dotted-lowercase \
                             `crate.stage[.detail]`; a free-form name fragments the trace \
                             vocabulary the stitcher and stage totals match on",
                            s.text
                        ),
                    ));
                }
            }
            _ => {
                out.push(
                    ctx.diag(
                        SPAN_NAME,
                        t.line,
                        "span/event name must be a string literal — the stitcher and stage \
                     totals match lifecycle events by exact name, and a computed name is \
                     invisible to both; pass a `\"crate.stage[.detail]\"` literal, or allow \
                     with the reason the name must be computed"
                            .to_string(),
                    ),
                );
            }
        }
    }
}

/// Is a string literal (quotes included) a valid span name: 2–3
/// non-empty dot-separated segments of `[a-z0-9_]`?
fn span_name_ok(text: &str) -> bool {
    let segments: Vec<&str> = text.trim_matches('"').split('.').collect();
    (2..=3).contains(&segments.len())
        && segments.iter().all(|seg| {
            !seg.is_empty()
                && seg
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::test_regions::test_line_ranges;

    fn run(src: &str, crate_dir: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let ranges = test_line_ranges(&lexed.toks);
        let ctx = FileCtx {
            rel_path: "mem.rs",
            crate_dir,
            lexed: &lexed,
            test_ranges: &ranges,
        };
        let mut out = Vec::new();
        check_file(&ctx, &mut out);
        out
    }

    #[test]
    fn unwrap_flagged_only_outside_tests() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests {\n    fn g(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        let diags = run(src, "tensor");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 1);
        assert_eq!(diags[0].rule, NO_UNWRAP);
    }

    #[test]
    fn message_bearing_panic_is_fine_but_bare_is_not() {
        let diags = run(
            "fn f() { panic!(\"bad shape {0}\", 1); }\nfn g() { panic!(); }\n",
            "nn",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn runtime_is_exempt_from_thread_discipline() {
        let src = "fn f() { let m = std::sync::Mutex::new(0); let _ = m; }\n";
        assert!(run(src, "runtime").is_empty());
        assert_eq!(run(src, "core").len(), 1);
    }

    #[test]
    fn float_eq_catches_negated_literals_not_int_compares() {
        let diags = run(
            "fn f(x: f32) -> bool { x == -1.0 }\nfn g(n: usize) -> bool { n == 0 }\n",
            "eval",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, FLOAT_EQ);
    }

    #[test]
    fn safety_comment_multiline_block_accepted() {
        let good = "// SAFETY: the two halves are disjoint,\n// so no aliasing occurs.\nfn f() { let _ = unsafe { 1 + 1 }; }\n";
        assert!(run(good, "tensor").is_empty());
        let bad = "// not a safety argument\nfn f() { let _ = unsafe { 1 + 1 }; }\n";
        assert_eq!(run(bad, "tensor").len(), 1);
        let separated =
            "// SAFETY: stale argument\nfn g() {}\nfn f() { let _ = unsafe { 1 + 1 }; }\n";
        assert_eq!(run(separated, "tensor").len(), 1);
    }

    #[test]
    fn tensor_clone_fires_only_in_inference_crates() {
        let src = "fn f(x: &Tensor) -> Tensor { x.clone() }\n";
        for dir in ["core", "detectors", "eval"] {
            let diags = run(src, dir);
            assert_eq!(diags.len(), 1, "{dir}: {diags:?}");
            assert_eq!(diags[0].rule, TENSOR_CLONE);
        }
        for dir in ["tensor", "nn", "attacks", "bench", "root"] {
            assert!(run(src, dir).is_empty(), "{dir} should be exempt");
        }
    }

    #[test]
    fn tensor_clone_skips_tests_derives_and_non_call_mentions() {
        let src = "#[derive(Debug, Clone)]\nstruct S;\n\
                   #[cfg(test)]\nmod tests {\n    fn g(x: &Tensor) -> Tensor { x.clone() }\n}\n";
        assert!(run(src, "core").is_empty());
    }

    #[test]
    fn wall_clock_exempts_bench_runtime_and_trace() {
        let src = "fn f() { let _ = std::time::Instant::now(); }\n";
        // bench and runtime are exempt from R5b but still hit R8.
        let bench = run(src, "bench");
        assert_eq!(bench.len(), 1, "{bench:?}");
        assert_eq!(bench[0].rule, RAW_TIMING);
        let runtime = run(src, "runtime");
        assert_eq!(runtime.len(), 1, "{runtime:?}");
        assert_eq!(runtime[0].rule, RAW_TIMING);
        assert!(run(src, "trace").is_empty());
        // Non-exempt crates, the server among them, hit both the ::now()
        // call and the mention.
        for dir in ["detectors", "serve"] {
            let both = run(src, dir);
            assert_eq!(both.len(), 2, "{dir}: {both:?}");
            assert!(both.iter().any(|d| d.rule == WALL_CLOCK));
            assert!(both.iter().any(|d| d.rule == RAW_TIMING));
        }
    }

    #[test]
    fn raw_timing_flags_bare_mentions_everywhere_but_trace() {
        // No ::now() call — R5b stays silent, R8 still fires on the
        // import and on the stored field type.
        let src = "use std::time::Instant;\nstruct S { t: Instant }\n";
        let diags = run(src, "core");
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == RAW_TIMING));
        assert_eq!(diags[0].line, 1);
        assert_eq!(diags[1].line, 2);
        assert!(run(src, "trace").is_empty());
        // The server's deadlines live on the trace clock, so a raw clock
        // type there is flagged like anywhere else.
        let serve = run(src, "serve");
        assert_eq!(serve.len(), 2, "{serve:?}");
        assert!(serve.iter().all(|d| d.rule == RAW_TIMING));
        let sys = run(
            "fn f() { let _ = std::time::SystemTime::UNIX_EPOCH; }\n",
            "nn",
        );
        assert_eq!(sys.len(), 1, "{sys:?}");
        assert_eq!(sys[0].rule, RAW_TIMING);
    }

    #[test]
    fn raw_timing_skips_test_regions() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n    fn g() { let _ = Instant::now(); }\n}\n";
        assert!(run(src, "core").is_empty());
    }

    #[test]
    fn env_read_flags_all_read_forms_everywhere_but_the_config_module() {
        let src = "fn a() -> Option<String> { std::env::var(\"DV_THREADS\").ok() }\n\
                   fn b() -> bool { std::env::var_os(\"DV_FAST\").is_some() }\n\
                   fn c() -> usize { std::env::vars().count() }\n";
        for dir in ["runtime", "core", "bench", "root"] {
            let diags = run(src, dir);
            assert_eq!(diags.len(), 3, "{dir}: {diags:?}");
            assert!(diags.iter().all(|d| d.rule == ENV_READ), "{diags:?}");
        }
        // `env::args()` is process arguments, not ambient env state.
        assert!(run("fn f() -> usize { std::env::args().count() }\n", "bench").is_empty());
        // An unqualified `var` identifier (e.g. a local named `var`) passes.
        assert!(run("fn f(var: u8) -> u8 { var }\n", "core").is_empty());
    }

    #[test]
    fn env_read_exempts_exactly_the_runtime_config_module() {
        let src = "pub fn threads() -> Option<String> { std::env::var(\"DV_THREADS\").ok() }\n";
        let lexed = lex(src);
        let ranges = test_line_ranges(&lexed.toks);
        let check = |rel_path: &str| {
            let ctx = FileCtx {
                rel_path,
                crate_dir: "runtime",
                lexed: &lexed,
                test_ranges: &ranges,
            };
            let mut out = Vec::new();
            check_file(&ctx, &mut out);
            out
        };
        assert!(check("crates/runtime/src/config.rs").is_empty());
        assert_eq!(check("crates/runtime/src/pool.rs").len(), 1);
    }

    #[test]
    fn env_read_skips_test_regions() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn g() { let _ = std::env::var(\"DV_OUT\"); }\n}\n";
        assert!(run(src, "core").is_empty());
    }

    #[test]
    fn layer_match_wildcard_flags_only_layer_spec_matches() {
        let bad = "fn f(s: &LayerSpec) -> usize {\n    match s {\n        LayerSpec::Relu => 1,\n        _ => 0,\n    }\n}\n";
        let diags = run(bad, "absint");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, LAYER_MATCH_WILDCARD);
        assert_eq!(diags[0].line, 4);
        // Matches over anything else keep their wildcard.
        let other = "fn f(n: usize) -> usize { match n { 0 => 1, _ => 0 } }\n";
        assert!(run(other, "absint").is_empty());
    }

    #[test]
    fn layer_match_wildcard_flags_guarded_arms() {
        let src = "fn f(s: &LayerSpec, strict: bool) -> usize {\n    match s {\n        LayerSpec::Relu => 1,\n        _ if strict => 2,\n        _ => 3,\n    }\n}\n";
        let diags = run(src, "nn");
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(diags[0].line, 4);
        assert_eq!(diags[1].line, 5);
    }

    #[test]
    fn layer_match_wildcard_ignores_nested_underscores_and_tests() {
        // `Dense(_)` nests the underscore inside the variant pattern.
        let nested = "fn f(s: &LayerSpec) -> usize {\n    match s {\n        LayerSpec::Dense(_) => 1,\n        LayerSpec::Relu => 0,\n    }\n}\n";
        assert!(run(nested, "nn").is_empty());
        // Test regions may match however they like.
        let test_src = "#[cfg(test)]\nmod tests {\n    fn g(s: &LayerSpec) -> usize { match s { LayerSpec::Relu => 1, _ => 0 } }\n}\n";
        assert!(run(test_src, "nn").is_empty());
        // A wildcard in an unrelated nested match stays legal even when
        // an outer LayerSpec match encloses it exhaustively: the inner
        // match is scanned from its own keyword (no LayerSpec in its
        // span) and its underscore nests below the outer arm level.
        let inner = "fn f(s: &LayerSpec, n: usize) -> usize {\n    match s {\n        LayerSpec::Relu => match n { 0 => 1, _ => 2 },\n        LayerSpec::Dense(d) => d,\n    }\n}\n";
        assert!(run(inner, "absint").is_empty());
        // But a nested match *over the enum* is caught by its own scan.
        let nested_spec = "fn f(s: &LayerSpec) -> usize {\n    match s {\n        LayerSpec::Dense(d) => match d.kind() { LayerSpec::Relu => 1, _ => 2 },\n        LayerSpec::Relu => 0,\n    }\n}\n";
        let diags = run(nested_spec, "absint");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn span_name_accepts_dotted_lowercase_literals_everywhere() {
        let src = "fn f() {\n    dv_trace::span!(\"tensor.matmul\");\n    \
                   dv_trace::record_raw(\"serve.queued\", 0, 1);\n    \
                   let _ = dv_trace::record_event(\"serve.score_begin.retry\", t, p, 0);\n}\n";
        for dir in ["tensor", "serve", "trace", "bench", "root"] {
            assert!(run(src, dir).is_empty(), "{dir}");
        }
    }

    #[test]
    fn span_name_flags_computed_names() {
        let src = "fn f(op: &Op) {\n    dv_trace::span!(op.name());\n}\n";
        let diags = run(src, "nn");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, SPAN_NAME);
        assert_eq!(diags[0].line, 2);
        let fmt = "fn g(i: usize) {\n    let _ = dv_trace::record_event(&format!(\"serve.w{i}\"), t, p, 0);\n}\n";
        assert_eq!(run(fmt, "serve").len(), 1);
    }

    #[test]
    fn span_name_flags_malformed_literals() {
        // One segment, uppercase, trailing dot, and a space — each breaks
        // the `crate.stage[.detail]` shape a different way.
        let src = "fn f() {\n    dv_trace::span!(\"forward\");\n    \
                   dv_trace::span!(\"nn.Forward\");\n    \
                   dv_trace::record_raw(\"serve.queued.\", 0, 1);\n    \
                   dv_trace::span!(\"serve.full joint\");\n}\n";
        let diags = run(src, "core");
        assert_eq!(diags.len(), 4, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == SPAN_NAME));
        assert_eq!(
            diags.iter().map(|d| d.line).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        // Four dotted segments over-nest the vocabulary.
        let deep = "fn f() { dv_trace::span!(\"a.b.c.d\"); }\n";
        assert_eq!(run(deep, "core").len(), 1);
    }

    #[test]
    fn span_name_skips_definitions_use_mentions_and_tests() {
        // dv-trace's own definitions: ident preceded by `fn`.
        let defs = "pub fn record_raw(name: &'static str, s: u64, e: u64) {}\n\
                    pub fn record_event(name: &'static str, t: TraceId, p: EventRef, a: u64) -> EventRef { EventRef::NONE }\n";
        assert!(run(defs, "trace").is_empty());
        // `macro_rules! span` has no `!` after the `span` ident; re-exports
        // have no delimiter after the name.
        let decl =
            "macro_rules! span {\n    ($name:expr) => { $crate::TraceGuard::enter($name) };\n}\n\
                    pub use span::{record_event, record_raw};\n";
        assert!(run(decl, "trace").is_empty());
        // Test regions may name spans however they like.
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn g() { dv_trace::span!(\"Whatever Goes\"); }\n}\n";
        assert!(run(test_src, "core").is_empty());
    }

    #[test]
    fn unbounded_channel_flags_mpsc_and_thread_builder_outside_runtime() {
        let src = "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); let _ = (tx, rx); }\n\
                   fn g() { let b = std::thread::Builder::new(); let _ = b; }\n";
        let diags = run(src, "serve");
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == UNBOUNDED_CHANNEL));
        assert!(run(src, "runtime").is_empty());
        // Other channel constructors (sync_channel is bounded) pass.
        let bounded = "fn f() { let p = std::sync::mpsc::sync_channel::<u8>(4); let _ = p; }\n";
        assert!(run(bounded, "core").is_empty());
    }
}
