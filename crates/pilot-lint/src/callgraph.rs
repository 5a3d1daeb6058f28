//! Workspace-wide symbol table and call graph, built from token streams.
//!
//! This is the substrate for every interprocedural rule in [`crate::deep`]:
//! it walks each prepared file once, recording function definitions with
//! fully-qualified module paths (`pilot_core::fabric::controller::step`,
//! `pilot_streaming::replica::ReplicatedBroker::produce`), then extracts and
//! resolves call sites.
//!
//! Resolution is deliberately approximate, in directions chosen per use:
//!
//! * **Path calls** (`binding::queue_pass(…)`, `WallClock::start()`) resolve
//!   through per-file `use` aliases (including `as` renames, `{…}` groups and
//!   glob prefixes) and `crate`/`self`/`super`/`Self` normalization; a path
//!   that still misses the table falls back to a last-two-segment
//!   (`Type::method`) suffix match across the workspace.
//! * **Method calls** (`.select(…)`) are resolved through receiver typing
//!   first: `self.m()` uses the enclosing impl's type, `self.field.m()` the
//!   struct's declared field types, `x.m()` a `let x: T = …` /
//!   `let x = T::new(…)` binding or a typed fn parameter. A receiver typed
//!   as a workspace type resolves to that type's methods (trait receivers
//!   fan out over every `impl Trait for X` — class-hierarchy dispatch; a
//!   struct receiver also reaches default methods of traits it implements).
//!   A receiver typed as a std container ([`STD_HEADS`]) resolves to
//!   *nothing*: std never calls back into the workspace, and closure
//!   arguments are scanned as part of the enclosing body anyway. Untypeable
//!   receivers (iterator bindings, call-chain results, generics) fall back
//!   to bare-name over-approximation: every known method with that name,
//!   which may add edges but never drops a real one. Calls from non-test
//!   code never resolve into test-only code.
//! * **Anything else** (std, shims, closures, turbofish) stays unresolved.
//!   Unresolved callees contribute no taint: the deep rules under-approximate
//!   across them and say so in DESIGN §8.

use std::collections::{HashMap, HashSet};

use crate::lexer::{Tok, Token};
use crate::rules::{ident_at, punct_at, FileClass, Prepared};

/// Index into [`Workspace::fns`].
pub type FnId = usize;

/// One function definition.
#[derive(Debug)]
pub struct FnDef {
    /// Fully qualified name, `crate::module::Type::fn` style.
    pub name: String,
    /// Index into the prepared-file slice the workspace was built from.
    pub file_ix: usize,
    pub line: u32,
    /// `pub` without a `pub(…)` restriction.
    pub is_pub: bool,
    /// Defined inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Defined inside an `impl` or `trait` block (resolvable by method name).
    pub is_method: bool,
    /// Enclosing `impl`/`trait` type name, for `Self::…` resolution.
    pub self_type: Option<String>,
    /// Module path segments (no type, no fn name).
    pub module: Vec<String>,
    /// Code-token index of the `fn` keyword (the signature starts here).
    pub decl_ix: usize,
    /// Code-token range of the body: `(open_brace, close_brace)` inclusive.
    /// `None` for bodiless trait declarations.
    pub body: Option<(usize, usize)>,
}

/// How a call site was resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// Exact qualified-path match.
    Exact,
    /// `Type::method` suffix match.
    Suffix,
    /// Receiver-typed method match (precise; trait receivers fan out).
    Typed,
    /// Bare method-name match (over-approximate).
    Method,
    /// No workspace target (std, shims, macros, closures).
    Unresolved,
}

/// One call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// Code-token index of the callee identifier.
    pub tok_ix: usize,
    pub line: u32,
    /// What the source spells, for messages (`queue_pass`, `.select`).
    pub label: String,
    pub kind: CallKind,
    /// Candidate targets (empty iff `Unresolved`).
    pub targets: Vec<FnId>,
}

/// Aggregate size/precision counters, surfaced in reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct GraphStats {
    pub functions: usize,
    pub call_sites: usize,
    pub resolved_exact: usize,
    pub resolved_suffix: usize,
    pub resolved_typed: usize,
    pub resolved_method: usize,
    pub unresolved: usize,
    /// Caller→callee edges after target fan-out.
    pub edges: usize,
}

/// The resolved call graph over a set of prepared files.
pub struct Workspace {
    pub fns: Vec<FnDef>,
    /// Per function: its call sites, in body order.
    pub calls: Vec<Vec<CallSite>>,
    pub stats: GraphStats,
}

impl Workspace {
    /// `qualified::name (file:line)` — the witness-chain entry format.
    pub fn label(&self, files: &[Prepared], f: FnId) -> String {
        let d = &self.fns[f];
        format!("{} ({}:{})", d.name, files[d.file_ix].display, d.line)
    }

    /// Deduplicated forward adjacency (caller → callees).
    pub fn adjacency(&self) -> Vec<Vec<FnId>> {
        self.calls
            .iter()
            .map(|sites| {
                let mut out: Vec<FnId> = sites
                    .iter()
                    .flat_map(|s| s.targets.iter().copied())
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect()
    }
}

/// Build the workspace call graph from prepared files.
pub fn build(files: &[Prepared]) -> Workspace {
    // Phase one: type names and trait-impl pairs, workspace-wide, so that
    // field/param/let type expressions in any file can name a type from any
    // other file.
    let mut table = TypeTable::default();
    for p in files {
        scan_types(p, &mut table);
    }
    {
        let TypeTable { names, fields, .. } = &mut table;
        for p in files {
            scan_fields(p, names, fields);
        }
    }

    let mut fns: Vec<FnDef> = Vec::new();
    let mut ctxs: Vec<FileCtx> = Vec::new();
    for (file_ix, p) in files.iter().enumerate() {
        let module = module_path(&p.display);
        let mut ctx = FileCtx {
            module,
            aliases: HashMap::new(),
            globs: Vec::new(),
        };
        parse_uses(p, &mut ctx);
        scan_defs(p, file_ix, &ctx.module, &mut fns);
        ctxs.push(ctx);
    }

    // Symbol tables.
    let mut exact: HashMap<&str, Vec<FnId>> = HashMap::new();
    let mut suffix2: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();
    let mut methods: HashMap<&str, Vec<FnId>> = HashMap::new();
    let mut typed_methods: HashMap<(String, String), Vec<FnId>> = HashMap::new();
    for (id, d) in fns.iter().enumerate() {
        exact.entry(d.name.as_str()).or_default().push(id);
        let segs: Vec<&str> = d.name.split("::").collect();
        if segs.len() >= 2 {
            suffix2
                .entry((segs[segs.len() - 2], segs[segs.len() - 1]))
                .or_default()
                .push(id);
        }
        if d.is_method {
            methods.entry(segs[segs.len() - 1]).or_default().push(id);
            if let Some(t) = &d.self_type {
                typed_methods
                    .entry((t.clone(), segs[segs.len() - 1].to_string()))
                    .or_default()
                    .push(id);
            }
        }
    }

    let mut stats = GraphStats {
        functions: fns.len(),
        ..GraphStats::default()
    };
    let mut calls: Vec<Vec<CallSite>> = Vec::with_capacity(fns.len());
    for id in 0..fns.len() {
        let d = &fns[id];
        let p = &files[d.file_ix];
        let ctx = &ctxs[d.file_ix];
        let mut sites = Vec::new();
        if let Some((open, close)) = d.body {
            // Nested definitions own their ranges; the enclosing fn skips them.
            let inner: Vec<(usize, usize)> = fns
                .iter()
                .enumerate()
                .filter(|(o, other)| {
                    *o != id
                        && other.file_ix == d.file_ix
                        && other.body.is_some_and(|(s, e)| s > open && e < close)
                })
                .filter_map(|(_, other)| other.body)
                .collect();
            let mut locals: HashMap<String, TypeRef> = HashMap::new();
            parse_params(&p.code, d.decl_ix, open, &table.names, &mut locals);
            scan_locals(
                &p.code,
                open,
                close,
                d.self_type.as_deref(),
                &table,
                &mut locals,
            );
            let res = Resolver {
                exact: &exact,
                suffix2: &suffix2,
                methods: &methods,
                typed_methods: &typed_methods,
                table: &table,
                locals: &locals,
            };
            extract_calls(
                p, d, ctx, open, close, &inner, &res, files, &fns, &mut sites,
            );
        }
        for s in &sites {
            stats.call_sites += 1;
            stats.edges += s.targets.len();
            match s.kind {
                CallKind::Exact => stats.resolved_exact += 1,
                CallKind::Suffix => stats.resolved_suffix += 1,
                CallKind::Typed => stats.resolved_typed += 1,
                CallKind::Method => stats.resolved_method += 1,
                CallKind::Unresolved => stats.unresolved += 1,
            }
        }
        calls.push(sites);
    }
    Workspace { fns, calls, stats }
}

/// Workspace type knowledge for receiver-typed method resolution.
#[derive(Default)]
pub(crate) struct TypeTable {
    /// Every struct/enum/union/trait/impl-self name seen in the workspace.
    pub(crate) names: HashSet<String>,
    /// `(type, field)` → the field's classified type.
    pub(crate) fields: HashMap<(String, String), TypeRef>,
    /// trait → implementing types (`impl Trait for X`).
    pub(crate) trait_impls: HashMap<String, Vec<String>>,
    /// type → traits it implements.
    pub(crate) impls_of: HashMap<String, Vec<String>>,
}

/// What a type expression tells us about a receiver.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum TypeRef {
    /// A workspace type (possibly through `Arc<Mutex<…>>`-style wrappers).
    Known(String),
    /// Definitely std / primitive: resolves to no workspace method.
    Std,
}

/// Bundled symbol tables threaded through call extraction.
struct Resolver<'a> {
    exact: &'a HashMap<&'a str, Vec<FnId>>,
    suffix2: &'a HashMap<(&'a str, &'a str), Vec<FnId>>,
    methods: &'a HashMap<&'a str, Vec<FnId>>,
    typed_methods: &'a HashMap<(String, String), Vec<FnId>>,
    table: &'a TypeTable,
    locals: &'a HashMap<String, TypeRef>,
}

/// Per-file resolution context.
struct FileCtx {
    module: Vec<String>,
    /// `alias → full path segments` from `use` items (already normalized).
    aliases: HashMap<String, Vec<String>>,
    /// `use path::*` prefixes.
    globs: Vec<Vec<String>>,
}

/// Derive the module path of a file from its workspace-relative display path.
///
/// `crates/pilot-core/src/fabric/mod.rs` → `[pilot_core, fabric]`;
/// `crates/pilot-sim/src/lib.rs` → `[pilot_sim]`; files outside a
/// `crates/<name>/src` layout (fixtures, tests) root at their own stem, so a
/// fixture is a self-contained single-file "crate".
fn module_path(display: &str) -> Vec<String> {
    let parts: Vec<&str> = display.split('/').collect();
    let mut out = Vec::new();
    let src_at = parts
        .windows(3)
        .position(|w| w[0] == "crates" && w[2] == "src");
    if let Some(at) = src_at {
        out.push(parts[at + 1].replace('-', "_"));
        let rest = &parts[at + 3..];
        for (i, seg) in rest.iter().enumerate() {
            let last = i + 1 == rest.len();
            if last {
                match seg.strip_suffix(".rs") {
                    Some("lib") | Some("main") | Some("mod") => {}
                    Some(stem) => out.push(stem.replace('-', "_")),
                    None => out.push(seg.replace('-', "_")),
                }
            } else if *seg != "bin" {
                out.push(seg.replace('-', "_"));
            }
        }
    } else {
        let stem = parts
            .last()
            .and_then(|s| s.strip_suffix(".rs"))
            .unwrap_or("file");
        out.push(stem.replace('-', "_"));
    }
    out
}

/// Parse every `use …;` item into alias and glob maps.
fn parse_uses(p: &Prepared, ctx: &mut FileCtx) {
    let code = &p.code;
    let mut i = 0;
    while i < code.len() {
        if ident_at(code, i) == Some("use") {
            let start = i + 1;
            let mut j = start;
            while j < code.len() && !punct_at(code, j, ';') {
                j += 1;
            }
            let module = ctx.module.clone();
            parse_use_tree(code, start, j, &module, Vec::new(), ctx);
            i = j;
        }
        i += 1;
    }
}

/// Recursive descent over one use-tree token range `[i, end)`.
fn parse_use_tree(
    code: &[Token],
    mut i: usize,
    end: usize,
    module: &[String],
    mut prefix: Vec<String>,
    ctx: &mut FileCtx,
) {
    let mut segs: Vec<String> = Vec::new();
    while i < end {
        match &code[i].tok {
            Tok::Ident(s) if s == "as" => {
                if let Some(alias) = ident_at(code, i + 1) {
                    let full = normalize(module, &prefix, &segs);
                    ctx.aliases.insert(alias.to_string(), full);
                }
                return;
            }
            Tok::Ident(s) if s == "self" && !segs.is_empty() => {
                // only reachable spelled as a path head; `{self, …}` group
                // members are handled below
                segs.push(s.clone());
                i += 1;
            }
            Tok::Ident(s) => {
                segs.push(s.clone());
                i += 1;
            }
            Tok::Punct(':') => {
                i += 1;
            }
            Tok::Punct('*') => {
                ctx.globs.push(normalize(module, &prefix, &segs));
                return;
            }
            Tok::Punct('{') => {
                // Split the balanced group on top-level commas; recurse.
                prefix = normalize(module, &prefix, &segs);
                let mut depth = 0i32;
                let mut item_start = i + 1;
                let mut j = i;
                while j < end {
                    match code[j].tok {
                        Tok::Punct('{') => depth += 1,
                        Tok::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        Tok::Punct(',') if depth == 1 => {
                            use_group_item(code, item_start, j, module, &prefix, ctx);
                            item_start = j + 1;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                use_group_item(code, item_start, j, module, &prefix, ctx);
                return;
            }
            _ => return,
        }
    }
    if let Some(last) = segs.last().cloned() {
        let full = normalize(module, &prefix, &segs);
        ctx.aliases.insert(last, full);
    }
}

fn use_group_item(
    code: &[Token],
    start: usize,
    end: usize,
    module: &[String],
    prefix: &[String],
    ctx: &mut FileCtx,
) {
    if start >= end {
        return;
    }
    // `{self, …}`: the bare module itself, aliased by its final segment.
    if end - start == 1 {
        if let Some("self") = ident_at(code, start) {
            if let Some(last) = prefix.last() {
                ctx.aliases.insert(last.clone(), prefix.to_vec());
            }
            return;
        }
    }
    parse_use_tree(code, start, end, module, prefix.to_vec(), ctx);
}

/// Resolve `crate`/`self`/`super` heads and join `prefix ++ segs`.
fn normalize(module: &[String], prefix: &[String], segs: &[String]) -> Vec<String> {
    let mut out: Vec<String> = prefix.to_vec();
    for (i, s) in segs.iter().enumerate() {
        if i == 0 && out.is_empty() {
            match s.as_str() {
                "crate" => {
                    out.extend(module.first().cloned());
                    continue;
                }
                "self" => {
                    out.extend(module.iter().cloned());
                    continue;
                }
                "super" => {
                    out.extend(module.iter().take(module.len().saturating_sub(1)).cloned());
                    continue;
                }
                _ => {}
            }
        }
        if s == "self" {
            continue;
        }
        out.push(s.clone());
    }
    out
}

/// One pass over a file's code tokens recording every `fn` definition with
/// its enclosing `mod`/`impl`/`trait` scope.
fn scan_defs(p: &Prepared, file_ix: usize, module: &[String], fns: &mut Vec<FnDef>) {
    #[derive(Clone, Debug, PartialEq)]
    enum Kind {
        Mod(String),
        Type(String),
        Other,
    }
    let code = &p.code;
    let mut frames: Vec<(Kind, usize)> = Vec::new(); // (kind, depth at open)
    let mut pending: Option<Kind> = None;
    let mut depth = 0usize;
    let mut i = 0;
    while i < code.len() {
        match &code[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                frames.push((pending.take().unwrap_or(Kind::Other), depth));
            }
            Tok::Punct('}') => {
                if frames.last().is_some_and(|(_, d)| *d == depth) {
                    frames.pop();
                }
                depth = depth.saturating_sub(1);
            }
            Tok::Punct(';') => {
                pending = None;
            }
            Tok::Ident(kw) if kw == "mod" => {
                if let Some(name) = ident_at(code, i + 1) {
                    if punct_at(code, i + 2, '{') {
                        pending = Some(Kind::Mod(name.to_string()));
                    }
                }
            }
            Tok::Ident(kw) if kw == "trait" => {
                if let Some(name) = ident_at(code, i + 1) {
                    pending = Some(Kind::Type(name.to_string()));
                }
            }
            Tok::Ident(kw) if kw == "impl" => {
                pending = Some(Kind::Type(impl_self_type(code, i + 1)));
            }
            Tok::Ident(kw) if kw == "fn" => {
                if let Some(name) = ident_at(code, i + 1) {
                    let mut mod_path: Vec<String> = module.to_vec();
                    let mut self_type = None;
                    for (kind, _) in &frames {
                        match kind {
                            Kind::Mod(m) => {
                                mod_path.push(m.clone());
                                self_type = None;
                            }
                            Kind::Type(t) => self_type = Some(t.clone()),
                            Kind::Other => {}
                        }
                    }
                    let mut qualified = mod_path.join("::");
                    if let Some(t) = &self_type {
                        qualified.push_str("::");
                        qualified.push_str(t);
                    }
                    qualified.push_str("::");
                    qualified.push_str(name);
                    // Body: first `{` before a `;` ends the signature.
                    let mut j = i + 2;
                    let mut body = None;
                    while j < code.len() {
                        match code[j].tok {
                            Tok::Punct('{') => {
                                body = Some((j, close_brace(code, j)));
                                break;
                            }
                            Tok::Punct(';') => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    fns.push(FnDef {
                        name: qualified,
                        file_ix,
                        line: code[i].line,
                        is_pub: is_pub_at(code, i),
                        in_test: p.in_test.get(i).copied().unwrap_or(false),
                        is_method: self_type.is_some(),
                        self_type,
                        module: mod_path,
                        decl_ix: i,
                        body,
                    });
                    // Keep walking normally so nested items are still seen;
                    // the body brace will push an `Other` frame.
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// The self type of an `impl` header starting just past the `impl` keyword:
/// last path ident at angle-depth 0 before the body, restarting after `for`.
fn impl_self_type(code: &[Token], mut i: usize) -> String {
    let mut angle = 0i32;
    let mut last: Option<String> = None;
    while i < code.len() {
        match &code[i].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Punct('{') | Tok::Punct(';') => break,
            Tok::Ident(s) if s == "where" && angle == 0 => break,
            Tok::Ident(s) if s == "for" && angle == 0 => last = None,
            Tok::Ident(s) if angle == 0 => last = Some(s.clone()),
            _ => {}
        }
        i += 1;
    }
    last.unwrap_or_else(|| "_".to_string())
}

/// Whether the `fn` keyword at `i` is preceded by an unrestricted `pub`.
fn is_pub_at(code: &[Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        match &code[j].tok {
            Tok::Ident(s) if matches!(s.as_str(), "const" | "unsafe" | "async" | "extern") => {}
            Tok::Literal => {} // `extern "C"`
            Tok::Ident(s) if s == "pub" => return !punct_at(code, j + 1, '('),
            _ => return false,
        }
    }
    false
}

/// Index just past the brace matching the `{` at `open` (or last token).
pub(crate) fn close_brace(code: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < code.len() {
        match code[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    code.len().saturating_sub(1)
}

/// Std/prelude type heads that never call back into workspace code. A
/// receiver typed as one of these resolves to no target; closure arguments
/// passed to its methods are scanned as part of the enclosing body, so no
/// workspace call is lost by dropping the edge.
const STD_HEADS: [&str; 38] = [
    "File",
    "OpenOptions",
    "Vec",
    "VecDeque",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "Option",
    "Result",
    "String",
    "Box",
    "Arc",
    "Rc",
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "Cow",
    "PathBuf",
    "Path",
    "OsString",
    "Instant",
    "Duration",
    "SystemTime",
    "Sender",
    "SyncSender",
    "Receiver",
    "JoinHandle",
    "Condvar",
    "Range",
    "Ordering",
    "AtomicBool",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "PhantomData",
];

/// Classify a type expression by its identifiers. A workspace head names
/// the type itself — `Ledger<Dist, SimPilot>` is a `Ledger`. Under a std
/// head the *last* workspace type mentioned anywhere wins —
/// `Arc<Mutex<Controller>>` types as `Controller`, and a
/// `HashMap<UnitId, HostUnit>` as its value type, which is what iterating
/// the collection yields; an expression made of nothing but std heads,
/// primitives, and type-position keywords is definitely-std; anything else
/// (generic parameters, unknown names) is untypeable.
fn classify_type_idents(idents: &[String], names: &HashSet<String>) -> Option<TypeRef> {
    // The head is the first capitalised ident: path segments, `dyn`, `mut`
    // and lifetimes are lowercase.
    let head = idents.iter().find(|id| id.starts_with(char::is_uppercase));
    if let Some(h) = head.filter(|h| names.contains(*h) && !STD_HEADS.contains(&h.as_str())) {
        return Some(TypeRef::Known(h.clone()));
    }
    for id in idents.iter().rev() {
        if names.contains(id) {
            return Some(TypeRef::Known(id.clone()));
        }
    }
    let all_std = !idents.is_empty()
        && idents.iter().all(|id| {
            STD_HEADS.contains(&id.as_str())
                || id.chars().next().is_some_and(|c| c.is_lowercase())
                || matches!(id.as_str(), "dyn" | "impl" | "mut" | "const")
        });
    if all_std {
        Some(TypeRef::Std)
    } else {
        None
    }
}

/// Collect the identifiers of a type expression starting at `i`, stopping at
/// a `stops` punct at nesting depth 0, an unmatched closer, or `end`.
/// Angle-bracket aware; a `->` does not close an angle. Returns the idents
/// and the index of the terminator.
fn type_expr(code: &[Token], mut i: usize, end: usize, stops: &[char]) -> (Vec<String>, usize) {
    let mut idents = Vec::new();
    let mut angle = 0i32;
    let mut nest = 0i32;
    while i < end {
        match &code[i].tok {
            Tok::Punct(c) if nest == 0 && angle <= 0 && stops.contains(c) => return (idents, i),
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') if (i == 0 || !punct_at(code, i - 1, '-')) => {
                angle -= 1;
            }
            Tok::Punct('(' | '[' | '{') => nest += 1,
            Tok::Punct(')' | ']' | '}') => {
                if nest == 0 {
                    return (idents, i);
                }
                nest -= 1;
            }
            Tok::Ident(s) => idents.push(s.clone()),
            _ => {}
        }
        i += 1;
    }
    (idents, end)
}

/// Record every type name and `impl Trait for Type` pair in a file.
fn scan_types(p: &Prepared, table: &mut TypeTable) {
    let code = &p.code;
    let mut i = 0;
    while i < code.len() {
        match ident_at(code, i) {
            Some("struct") | Some("enum") | Some("trait") | Some("union") => {
                if let Some(name) = ident_at(code, i + 1) {
                    table.names.insert(name.to_string());
                }
            }
            Some("impl") => {
                let mut angle = 0i32;
                let mut last: Option<&str> = None;
                let mut trait_name: Option<&str> = None;
                let mut j = i + 1;
                while j < code.len() {
                    match &code[j].tok {
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') if !punct_at(code, j - 1, '-') => angle -= 1,
                        Tok::Punct('{' | ';') => break,
                        Tok::Ident(s) if angle == 0 => match s.as_str() {
                            "where" => break,
                            "for" => trait_name = last.take(),
                            _ => last = Some(s),
                        },
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(ty) = last {
                    table.names.insert(ty.to_string());
                    if let Some(tr) = trait_name {
                        table
                            .trait_impls
                            .entry(tr.to_string())
                            .or_default()
                            .push(ty.to_string());
                        table
                            .impls_of
                            .entry(ty.to_string())
                            .or_default()
                            .push(tr.to_string());
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Record the classified type of every named struct field in a file.
fn scan_fields(
    p: &Prepared,
    names: &HashSet<String>,
    fields: &mut HashMap<(String, String), TypeRef>,
) {
    let code = &p.code;
    let mut i = 0;
    while i < code.len() {
        if ident_at(code, i) != Some("struct") {
            i += 1;
            continue;
        }
        let Some(sname) = ident_at(code, i + 1) else {
            i += 1;
            continue;
        };
        // Skip generics to the body; `(` or `;` means no named fields.
        let mut angle = 0i32;
        let mut j = i + 2;
        let mut open = None;
        while j < code.len() {
            match &code[j].tok {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') if !punct_at(code, j - 1, '-') => angle -= 1,
                Tok::Punct('{') if angle == 0 => {
                    open = Some(j);
                    break;
                }
                Tok::Punct('(' | ';') if angle == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else {
            i += 1;
            continue;
        };
        let end = close_brace(code, open);
        let mut k = open + 1;
        while k < end {
            if let Some(field) = ident_at(code, k) {
                if punct_at(code, k + 1, ':')
                    && !punct_at(code, k + 2, ':')
                    && !punct_at(code, k.wrapping_sub(1), ':')
                {
                    let (idents, stop) = type_expr(code, k + 2, end, &[',']);
                    if let Some(t) = classify_type_idents(&idents, names) {
                        fields.insert((sname.to_string(), field.to_string()), t);
                    }
                    k = stop + 1;
                    continue;
                }
            }
            k += 1;
        }
        i = end;
    }
}

/// Type the named parameters of the signature starting at `decl_ix` (the
/// `fn` keyword); pattern parameters and untypeable types are skipped.
fn parse_params(
    code: &[Token],
    decl_ix: usize,
    body_open: usize,
    names: &HashSet<String>,
    out: &mut HashMap<String, TypeRef>,
) {
    let mut angle = 0i32;
    let mut j = decl_ix + 2;
    let mut open = None;
    while j < body_open {
        match &code[j].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') if !punct_at(code, j - 1, '-') => angle -= 1,
            Tok::Punct('(') if angle == 0 => {
                open = Some(j);
                break;
            }
            _ => {}
        }
        j += 1;
    }
    let Some(open) = open else { return };
    let mut depth = 0i32;
    let mut close = open;
    for (k, tok) in code.iter().enumerate().take(body_open).skip(open) {
        match tok.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    close = k;
                    break;
                }
            }
            _ => {}
        }
    }
    let mut k = open + 1;
    while k < close {
        let mut m = k;
        if ident_at(code, m) == Some("mut") {
            m += 1;
        }
        if let Some(nm) = ident_at(code, m) {
            if punct_at(code, m + 1, ':') && !punct_at(code, m + 2, ':') {
                let (idents, stop) = type_expr(code, m + 2, close, &[',']);
                if let Some(t) = classify_type_idents(&idents, names) {
                    out.insert(nm.to_string(), t);
                }
                k = stop + 1;
                continue;
            }
        }
        let (_, stop) = type_expr(code, k, close, &[',']);
        k = stop + 1;
    }
}

/// Type simple `let` bindings in a body: `let x: T = …` by annotation,
/// `let x = Head::…` by the constructor path's head, and
/// `let x = [&][mut] self.f.g;` / `let x = &typed_local.f;` by folding
/// declared field types. One flat map — the lint ignores shadowing and
/// block scopes.
fn scan_locals(
    code: &[Token],
    open: usize,
    close: usize,
    self_type: Option<&str>,
    table: &TypeTable,
    out: &mut HashMap<String, TypeRef>,
) {
    let names = &table.names;
    let mut i = open;
    while i < close {
        if ident_at(code, i) == Some("for") {
            scan_for_binding(code, i, close, self_type, table, out);
            i += 1;
            continue;
        }
        if ident_at(code, i) != Some("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if ident_at(code, j) == Some("mut") {
            j += 1;
        }
        if let Some(nm) = ident_at(code, j) {
            if punct_at(code, j + 1, ':') && !punct_at(code, j + 2, ':') {
                let (idents, _) = type_expr(code, j + 2, close, &['=', ';']);
                if let Some(t) = classify_type_idents(&idents, names) {
                    out.insert(nm.to_string(), t);
                }
            } else if punct_at(code, j + 1, '=') && !punct_at(code, j + 2, '=') {
                let mut k = j + 2;
                while punct_at(code, k, '&') {
                    k += 1;
                }
                if ident_at(code, k) == Some("mut") {
                    k += 1;
                }
                if let Some(head) = ident_at(code, k) {
                    if punct_at(code, k + 1, ':') && punct_at(code, k + 2, ':') {
                        // `let x = Head::…` — typed by the constructor head.
                        if names.contains(head) {
                            out.insert(nm.to_string(), TypeRef::Known(head.to_string()));
                        } else if STD_HEADS.contains(&head) {
                            out.insert(nm.to_string(), TypeRef::Std);
                        }
                    } else if punct_at(code, k + 1, '.') || punct_at(code, k + 1, ';') {
                        // Pure field chain ending at `;` — fold field types.
                        let root = if head == "self" {
                            self_type.map(|t| TypeRef::Known(t.to_string()))
                        } else {
                            out.get(head).cloned()
                        };
                        let mut cur = root;
                        let mut m = k + 1;
                        while cur.is_some() && punct_at(code, m, '.') {
                            let (field, t) = match (ident_at(code, m + 1), &cur) {
                                (Some(f), Some(TypeRef::Known(t))) => (f, t.clone()),
                                _ => {
                                    cur = None;
                                    break;
                                }
                            };
                            cur = table.fields.get(&(t, field.to_string())).cloned();
                            m += 2;
                        }
                        if let (Some(t), true) = (cur, punct_at(code, m, ';')) {
                            out.insert(nm.to_string(), t);
                        }
                    }
                }
            }
        }
        i = j + 1;
    }
}

/// Type a `for` loop's binding: in `for (k, v) in self.f.iter_mut() {…}`,
/// the *last* pattern identifier (the value side of a map iteration) gets
/// the iterated field's classified type — by [`classify_type_idents`]'s
/// last-workspace-ident rule, a std collection field already classifies as
/// its workspace element type. Only pure field chains, optionally capped by one
/// identity-element iterator adaptor, are typed.
fn scan_for_binding(
    code: &[Token],
    i: usize,
    close: usize,
    self_type: Option<&str>,
    table: &TypeTable,
    out: &mut HashMap<String, TypeRef>,
) {
    // Pattern: idents up to `in` (bounded; give up at a `{`).
    let mut j = i + 1;
    let mut last_pat: Option<&str> = None;
    let mut guard = 0;
    loop {
        if j >= close || guard > 24 || punct_at(code, j, '{') {
            return;
        }
        match ident_at(code, j) {
            Some("in") => break,
            Some(id) if !matches!(id, "mut" | "ref" | "_") => last_pat = Some(id),
            _ => {}
        }
        j += 1;
        guard += 1;
    }
    let Some(pat) = last_pat else { return };
    let mut k = j + 1;
    while punct_at(code, k, '&') {
        k += 1;
    }
    if ident_at(code, k) == Some("mut") {
        k += 1;
    }
    let Some(root) = ident_at(code, k) else {
        return;
    };
    let mut cur = if root == "self" {
        self_type.map(|t| TypeRef::Known(t.to_string()))
    } else {
        out.get(root).cloned()
    };
    let mut m = k + 1;
    let mut folded = 0;
    while m < close {
        if punct_at(code, m, '{') {
            break;
        }
        if !punct_at(code, m, '.') {
            return;
        }
        let Some(f) = ident_at(code, m + 1) else {
            return;
        };
        if punct_at(code, m + 2, '(') {
            // An element-preserving adaptor keeps the convention; anything
            // else (`.keys()`, `.chars()`, arbitrary calls) is untypeable.
            if (folded == 0 && root == "self")
                || !matches!(
                    f,
                    "iter" | "iter_mut" | "into_iter" | "values" | "values_mut" | "drain"
                )
            {
                return;
            }
            m += 2; // at '('; the `{` check below ends the walk
            let mut depth = 0i32;
            while m < close {
                match code[m].tok {
                    Tok::Punct('(') => depth += 1,
                    Tok::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            m += 1;
            continue;
        }
        let Some(TypeRef::Known(t)) = &cur else {
            return;
        };
        cur = table.fields.get(&(t.clone(), f.to_string())).cloned();
        folded += 1;
        m += 2;
    }
    // `for x in self {…}` / `for x in self.iter() {…}` would type `x` as the
    // container itself; require a field fold when rooted at `self`.
    if let Some(t) = cur {
        if folded > 0 || root != "self" {
            out.insert(pat.to_string(), t);
        }
    }
}

/// Type the receiver of the method call whose callee ident is at `i`:
/// walk the `root(.field)*` chain backwards from the dot, type the root
/// (`self`, a typed local, or a typed parameter), then fold declared field
/// types. `None` = untypeable; fall back to bare-name resolution.
fn receiver_type(
    code: &[Token],
    i: usize,
    d: &FnDef,
    locals: &HashMap<String, TypeRef>,
    table: &TypeTable,
) -> Option<TypeRef> {
    let mut chain: Vec<&str> = Vec::new();
    let mut j = i - 1; // the '.' before the method name
    loop {
        let prev = j.checked_sub(1)?;
        if chain.is_empty() && punct_at(code, prev, ')') {
            // The receiver is a call result. Return types are not tracked,
            // so this is untypeable in general — except for one decidable
            // and load-bearing pattern: a builder chain headed by a std
            // constructor (`OpenOptions::new().append(true).create(true)`),
            // which cannot call back into the workspace. Without this, a
            // workspace method sharing a builder-setter name (`create`,
            // `append`, …) is pulled into the call graph by the bare-name
            // fallback and its lock acquisitions poison the caller's.
            return std_builder_chain(code, prev);
        }
        let id = ident_at(code, prev)?; // `]`, `?` receivers: untypeable
        chain.push(id);
        if prev >= 1 && punct_at(code, prev - 1, '.') {
            j = prev - 1;
            continue;
        }
        if prev >= 1 && punct_at(code, prev - 1, ':') {
            return None; // `T::CONST.m()`-style receivers stay untyped
        }
        break;
    }
    chain.reverse();
    let mut cur = if chain[0] == "self" {
        TypeRef::Known(d.self_type.clone()?)
    } else {
        locals.get(chain[0])?.clone()
    };
    for field in &chain[1..] {
        let TypeRef::Known(t) = &cur else {
            return None; // fields of a std container: untypeable
        };
        cur = table
            .fields
            .get(&(t.clone(), (*field).to_string()))?
            .clone();
    }
    Some(cur)
}

/// Walk a `.m(…)` chain backwards from the `)` at `end`. `Some(Std)` iff
/// every segment is a method call and the head is `Head::assoc(…)` with
/// `Head` in [`STD_HEADS`] — a std builder chain, whose value stays a std
/// type at every step. Workspace or unknown heads, field segments, and
/// index/`?` segments all return `None` (untypeable, bare-name fallback).
fn std_builder_chain(code: &[Token], end: usize) -> Option<TypeRef> {
    let mut close = end;
    loop {
        // Skip the balanced `( … )` whose `)` sits at `close`.
        let mut depth = 0i32;
        let mut q = close;
        loop {
            match code[q].tok {
                Tok::Punct(')') => depth += 1,
                Tok::Punct('(') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            q = q.checked_sub(1)?;
        }
        // Before the `(`: the method or associated-fn name.
        let name_ix = q.checked_sub(1)?;
        ident_at(code, name_ix)?;
        let before = name_ix.checked_sub(1)?;
        if punct_at(code, before, '.') {
            // `….m(…)` — the chain continues; the previous segment must be
            // a call too (field-rooted chains are another pattern).
            let seg = before.checked_sub(1)?;
            if !punct_at(code, seg, ')') {
                return None;
            }
            close = seg;
            continue;
        }
        if before >= 1 && punct_at(code, before, ':') && punct_at(code, before - 1, ':') {
            // `Head::assoc(` — possibly under a module path (`fs::Head::…`);
            // the ident directly left of `::` is the type either way.
            let head = ident_at(code, before.checked_sub(2)?)?;
            return if STD_HEADS.contains(&head) {
                Some(TypeRef::Std)
            } else {
                None
            };
        }
        return None; // free-fn call result (`helper().m()`): untypeable
    }
}

/// All methods named `name` callable on a receiver of workspace type `t`:
/// `t`'s own, every implementor's when `t` is a trait (class-hierarchy
/// dispatch), and default methods of traits `t` implements.
fn typed_targets(
    t: &str,
    name: &str,
    typed_methods: &HashMap<(String, String), Vec<FnId>>,
    table: &TypeTable,
) -> Vec<FnId> {
    let mut out: Vec<FnId> = Vec::new();
    let add = |ty: &str, out: &mut Vec<FnId>| {
        if let Some(v) = typed_methods.get(&(ty.to_string(), name.to_string())) {
            out.extend_from_slice(v);
        }
    };
    add(t, &mut out);
    if let Some(impls) = table.trait_impls.get(t) {
        for ty in impls {
            add(ty, &mut out);
        }
    }
    if let Some(traits) = table.impls_of.get(t) {
        for tr in traits {
            add(tr, &mut out);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

const KEYWORDS: [&str; 30] = [
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "in", "as",
    "move", "ref", "mut", "await", "fn", "let", "impl", "pub", "use", "mod", "struct", "enum",
    "union", "trait", "type", "where", "unsafe", "async", "const",
];

#[allow(clippy::too_many_arguments)]
fn extract_calls(
    p: &Prepared,
    d: &FnDef,
    ctx: &FileCtx,
    open: usize,
    close: usize,
    inner: &[(usize, usize)],
    res: &Resolver,
    files: &[Prepared],
    fns: &[FnDef],
    out: &mut Vec<CallSite>,
) {
    let code = &p.code;
    let caller_is_test = files[d.file_ix].class == FileClass::Test || d.in_test;
    let mut i = open;
    while i < close {
        if let Some((_, e)) = inner.iter().find(|(s, _)| *s == i) {
            i = e + 1;
            continue;
        }
        let Some(name) = ident_at(code, i) else {
            i += 1;
            continue;
        };
        if !punct_at(code, i + 1, '(') {
            i += 1;
            continue;
        }
        let line = code[i].line;
        if punct_at(code, i.wrapping_sub(1), '.') {
            // Method call: receiver-typed resolution first, bare-name
            // over-approximation for untypeable receivers.
            let (kind, mut targets) = match receiver_type(code, i, d, res.locals, res.table) {
                Some(TypeRef::Known(t)) => (
                    CallKind::Typed,
                    typed_targets(&t, name, res.typed_methods, res.table),
                ),
                Some(TypeRef::Std) => (CallKind::Typed, Vec::new()),
                None => (
                    CallKind::Method,
                    res.methods.get(name).cloned().unwrap_or_default(),
                ),
            };
            if !caller_is_test {
                targets.retain(|t| {
                    files[fns[*t].file_ix].class != FileClass::Test && !fns[*t].in_test
                });
            }
            let kind = if targets.is_empty() {
                CallKind::Unresolved
            } else {
                kind
            };
            out.push(CallSite {
                tok_ix: i,
                line,
                label: format!(".{name}"),
                kind,
                targets,
            });
        } else if punct_at(code, i.wrapping_sub(1), ':') && punct_at(code, i.wrapping_sub(2), ':') {
            // Path call: walk the `a::b::name` spine backwards.
            let mut segs: Vec<String> = vec![name.to_string()];
            let mut j = i;
            while j >= 3
                && punct_at(code, j - 1, ':')
                && punct_at(code, j - 2, ':')
                && ident_at(code, j - 3).is_some()
            {
                segs.insert(0, ident_at(code, j - 3).unwrap_or_default().to_string());
                j -= 3;
            }
            let label = segs.join("::");
            let (kind, mut targets) = resolve_path(&segs, d, ctx, res.exact, res.suffix2);
            if !caller_is_test {
                targets.retain(|t| {
                    files[fns[*t].file_ix].class != FileClass::Test && !fns[*t].in_test
                });
            }
            let kind = if targets.is_empty() {
                CallKind::Unresolved
            } else {
                kind
            };
            out.push(CallSite {
                tok_ix: i,
                line,
                label,
                kind,
                targets,
            });
        } else if !KEYWORDS.contains(&name) && ident_at(code, i.wrapping_sub(1)) != Some("fn") {
            // Plain call: same module, then `use` aliases, then globs.
            let mut full = d.module.join("::");
            full.push_str("::");
            full.push_str(name);
            let mut kind = CallKind::Exact;
            let mut targets: Vec<FnId> = res.exact.get(full.as_str()).cloned().unwrap_or_default();
            if targets.is_empty() {
                if let Some(path) = ctx.aliases.get(name) {
                    targets = res
                        .exact
                        .get(path.join("::").as_str())
                        .cloned()
                        .unwrap_or_default();
                }
            }
            if targets.is_empty() {
                for g in &ctx.globs {
                    let cand = format!("{}::{name}", g.join("::"));
                    if let Some(v) = res.exact.get(cand.as_str()) {
                        targets = v.clone();
                        break;
                    }
                }
            }
            if !caller_is_test {
                targets.retain(|t| {
                    files[fns[*t].file_ix].class != FileClass::Test && !fns[*t].in_test
                });
            }
            if targets.is_empty() {
                kind = CallKind::Unresolved;
                // An unresolved capitalized plain "call" is almost always a
                // tuple-struct or enum constructor; don't count it.
                if name.chars().next().is_some_and(|c| c.is_uppercase()) {
                    i += 1;
                    continue;
                }
            }
            out.push(CallSite {
                tok_ix: i,
                line,
                label: name.to_string(),
                kind,
                targets,
            });
        }
        i += 1;
    }
}

/// Resolve a `::`-path call against the symbol tables.
fn resolve_path(
    segs: &[String],
    d: &FnDef,
    ctx: &FileCtx,
    exact: &HashMap<&str, Vec<FnId>>,
    suffix2: &HashMap<(&str, &str), Vec<FnId>>,
) -> (CallKind, Vec<FnId>) {
    let mut norm: Vec<String> = Vec::new();
    match segs[0].as_str() {
        "crate" => {
            norm.extend(d.module.first().cloned());
            norm.extend(segs[1..].iter().cloned());
        }
        "self" => {
            norm.extend(d.module.iter().cloned());
            norm.extend(segs[1..].iter().cloned());
        }
        "super" => {
            norm.extend(
                d.module
                    .iter()
                    .take(d.module.len().saturating_sub(1))
                    .cloned(),
            );
            norm.extend(segs[1..].iter().cloned());
        }
        "Self" => {
            norm.extend(d.module.iter().cloned());
            norm.extend(d.self_type.iter().cloned());
            norm.extend(segs[1..].iter().cloned());
        }
        head => {
            if let Some(path) = ctx.aliases.get(head) {
                norm.extend(path.iter().cloned());
            } else {
                norm.push(head.to_string());
            }
            norm.extend(segs[1..].iter().cloned());
        }
    }
    if let Some(v) = exact.get(norm.join("::").as_str()) {
        return (CallKind::Exact, v.clone());
    }
    // Module-relative path (`timing::leak()` with `mod timing` in scope).
    let mut rel: Vec<String> = d.module.clone();
    rel.extend(norm.iter().cloned());
    if let Some(v) = exact.get(rel.join("::").as_str()) {
        return (CallKind::Exact, v.clone());
    }
    if norm.len() >= 2 {
        let key = (norm[norm.len() - 2].as_str(), norm[norm.len() - 1].as_str());
        if let Some(v) = suffix2.get(&key) {
            return (CallKind::Suffix, v.clone());
        }
    }
    (CallKind::Unresolved, Vec::new())
}
