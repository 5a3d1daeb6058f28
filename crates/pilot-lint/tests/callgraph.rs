//! Unit tests for call-graph construction and resolution: qualified paths,
//! use aliases, receiver typing, class-hierarchy fan-out for trait calls,
//! and the conservatism rules for callees the graph cannot resolve.

use pilot_lint::callgraph::{self, CallKind, CallSite, Workspace};
use pilot_lint::rules::{prepare, Prepared};
use pilot_lint::FileClass;

fn ws(files: &[(&str, &str)]) -> (Vec<Prepared>, Workspace) {
    let prepared: Vec<Prepared> = files
        .iter()
        .map(|(display, src)| prepare(display, FileClass::Library, src))
        .collect();
    let graph = callgraph::build(&prepared);
    (prepared, graph)
}

fn fn_ix(g: &Workspace, name: &str) -> usize {
    g.fns
        .iter()
        .position(|d| d.name == name)
        .unwrap_or_else(|| {
            let have: Vec<&str> = g.fns.iter().map(|d| d.name.as_str()).collect();
            panic!("no fn named {name}; have {have:?}")
        })
}

fn site<'a>(g: &'a Workspace, caller: &str, label: &str) -> &'a CallSite {
    let f = fn_ix(g, caller);
    g.calls[f]
        .iter()
        .find(|s| s.label == label)
        .unwrap_or_else(|| {
            panic!(
                "no call site labelled {label} in {caller}: {:?}",
                g.calls[f]
            )
        })
}

fn target_names(g: &Workspace, s: &CallSite) -> Vec<String> {
    s.targets.iter().map(|&t| g.fns[t].name.clone()).collect()
}

#[test]
fn cross_crate_qualified_path_resolves_exactly() {
    let (_, g) = ws(&[
        ("crates/pilot-foo/src/lib.rs", "pub fn init() {}\n"),
        (
            "crates/pilot-bar/src/lib.rs",
            "pub fn go() {\n    pilot_foo::init();\n}\n",
        ),
    ]);
    let s = site(&g, "pilot_bar::go", "pilot_foo::init");
    assert_eq!(s.kind, CallKind::Exact);
    assert_eq!(target_names(&g, s), ["pilot_foo::init"]);
}

#[test]
fn use_alias_resolves_through_the_rename() {
    let (_, g) = ws(&[
        ("crates/pilot-foo/src/lib.rs", "pub fn init() {}\n"),
        (
            "crates/pilot-bar/src/lib.rs",
            "use pilot_foo::init as boot;\n\npub fn go() {\n    boot();\n}\n",
        ),
    ]);
    let s = site(&g, "pilot_bar::go", "boot");
    assert_eq!(s.kind, CallKind::Exact);
    assert_eq!(target_names(&g, s), ["pilot_foo::init"]);
}

#[test]
fn submodule_file_gets_its_own_module_path() {
    let (_, g) = ws(&[
        ("crates/pilot-foo/src/util.rs", "pub fn tick() {}\n"),
        (
            "crates/pilot-bar/src/lib.rs",
            "pub fn go() {\n    pilot_foo::util::tick();\n}\n",
        ),
    ]);
    let s = site(&g, "pilot_bar::go", "pilot_foo::util::tick");
    assert_eq!(s.kind, CallKind::Exact);
    assert_eq!(target_names(&g, s), ["pilot_foo::util::tick"]);
}

const TRAIT_SRC: &str = "\
pub trait Store {
    fn put(&self);
}

pub struct Mem;

impl Store for Mem {
    fn put(&self) {}
}

pub struct Disk;

impl Store for Disk {
    fn put(&self) {}
}

pub fn driver(s: &Mem, any: &dyn Store) {
    s.put();
    any.put();
}
";

#[test]
fn struct_receiver_resolves_to_its_own_impl_only() {
    let (_, g) = ws(&[("crates/pilot-foo/src/lib.rs", TRAIT_SRC)]);
    let f = fn_ix(&g, "pilot_foo::driver");
    let s = &g.calls[f][0]; // s.put()
    assert_eq!(s.kind, CallKind::Typed, "{s:?}");
    let names = target_names(&g, s);
    assert!(names.contains(&"pilot_foo::Mem::put".into()), "{names:?}");
    assert!(
        !names.contains(&"pilot_foo::Disk::put".into()),
        "a Mem receiver must not reach Disk: {names:?}"
    );
}

#[test]
fn trait_receiver_fans_out_over_all_implementors() {
    let (_, g) = ws(&[("crates/pilot-foo/src/lib.rs", TRAIT_SRC)]);
    let f = fn_ix(&g, "pilot_foo::driver");
    let s = &g.calls[f][1]; // any.put()
    assert_eq!(s.kind, CallKind::Typed, "{s:?}");
    let names = target_names(&g, s);
    assert!(names.contains(&"pilot_foo::Mem::put".into()), "{names:?}");
    assert!(names.contains(&"pilot_foo::Disk::put".into()), "{names:?}");
}

#[test]
fn std_receiver_resolves_to_nothing() {
    // `v.pop()` on a Vec must NOT fall back to the workspace's own `pop`
    // methods: std never calls back into the workspace.
    let (_, g) = ws(&[(
        "crates/pilot-foo/src/lib.rs",
        "pub struct Stack;\n\nimpl Stack {\n    pub fn pop(&self) {}\n}\n\n\
         pub fn f(mut v: Vec<u32>) {\n    v.pop();\n}\n",
    )]);
    let s = site(&g, "pilot_foo::f", ".pop");
    assert_eq!(s.kind, CallKind::Unresolved, "{s:?}");
    assert!(s.targets.is_empty(), "{s:?}");
}

#[test]
fn std_builder_chain_resolves_to_nothing() {
    // `OpenOptions::new().append(true).create(true).open(p)` — every link
    // in the chain is a std value, so `.create` / `.open` must NOT pull in
    // same-named workspace methods via the bare-name fallback (that is how
    // a sink's `create`, which takes broker locks, once poisoned the WAL's
    // acquisition sets into a phantom lock-order cycle).
    let (_, g) = ws(&[(
        "crates/pilot-foo/src/lib.rs",
        "pub struct Sink;\n\nimpl Sink {\n    pub fn create(&self) {}\n    pub fn open(&self) {}\n}\n\n\
         pub fn f(p: &str) {\n    std::fs::OpenOptions::new().append(true).create(true).open(p);\n}\n",
    )]);
    for label in [".create", ".open"] {
        let s = site(&g, "pilot_foo::f", label);
        assert_eq!(s.kind, CallKind::Unresolved, "{s:?}");
        assert!(s.targets.is_empty(), "{s:?}");
    }
}

#[test]
fn workspace_headed_call_chain_still_falls_back() {
    // A chain headed by a *workspace* constructor is not decidable (return
    // types are untracked) and must keep the conservative fallback.
    let (_, g) = ws(&[(
        "crates/pilot-foo/src/lib.rs",
        "pub struct Builder;\n\nimpl Builder {\n    pub fn new() -> Builder {\n        Builder\n    }\n    pub fn arm(&self) {}\n}\n\n\
         pub fn f() {\n    Builder::new().arm();\n}\n",
    )]);
    let s = site(&g, "pilot_foo::f", ".arm");
    assert_eq!(s.kind, CallKind::Method, "{s:?}");
    assert_eq!(target_names(&g, s), ["pilot_foo::Builder::arm"]);
}

#[test]
fn untypeable_receiver_falls_back_to_bare_name_over_approximation() {
    let (_, g) = ws(&[(
        "crates/pilot-foo/src/lib.rs",
        "pub struct Stack;\n\nimpl Stack {\n    pub fn pop(&self) {}\n}\n\n\
         pub fn g(x: &ExternalThing) {\n    x.pop();\n}\n",
    )]);
    let s = site(&g, "pilot_foo::g", ".pop");
    assert_eq!(s.kind, CallKind::Method, "{s:?}");
    assert_eq!(target_names(&g, s), ["pilot_foo::Stack::pop"]);
}

#[test]
fn field_chains_and_for_bindings_type_the_receiver() {
    let (_, g) = ws(&[(
        "crates/pilot-foo/src/lib.rs",
        "pub struct Queue;\n\nimpl Queue {\n    pub fn push(&self) {}\n}\n\n\
         pub struct Other;\n\nimpl Other {\n    pub fn push(&self) {}\n}\n\n\
         pub struct Engine {\n    q: Queue,\n    table: HashMap<u32, Queue>,\n}\n\n\
         impl Engine {\n    pub fn run(&self) {\n        self.q.push();\n    }\n\n\
             pub fn drain(&self) {\n        for q in self.table.values() {\n            q.push();\n        }\n\
                 let r = &self.q;\n        r.push();\n    }\n}\n",
    )]);
    for (caller, n) in [
        ("pilot_foo::Engine::run", 1),
        ("pilot_foo::Engine::drain", 2),
    ] {
        let f = fn_ix(&g, caller);
        let sites: Vec<&CallSite> = g.calls[f].iter().filter(|s| s.label == ".push").collect();
        assert_eq!(sites.len(), n, "{caller}: {:?}", g.calls[f]);
        for s in sites {
            assert_eq!(s.kind, CallKind::Typed, "{caller}: {s:?}");
            assert_eq!(
                target_names(&g, s),
                ["pilot_foo::Queue::push"],
                "{caller}: field/let/for receiver must stay precise"
            );
        }
    }
}

#[test]
fn a_workspace_head_types_the_field_not_its_last_argument() {
    // `ledger: Ledger<u32, Pilot>` is a `Ledger`, not its last workspace
    // ident `Pilot`; under a std head that rule still holds, so iterating a
    // `Vec<Pilot>` yields a `Pilot`.
    let (_, g) = ws(&[(
        "crates/pilot-foo/src/lib.rs",
        "pub struct Ledger<U, P> {\n    x: U,\n    p: P,\n}\n\n\
         impl<U, P> Ledger<U, P> {\n    pub fn count(&self) {}\n}\n\n\
         pub struct Pilot;\n\nimpl Pilot {\n    pub fn count(&self) {}\n}\n\n\
         pub struct Driver {\n    ledger: Ledger<u32, Pilot>,\n    spare: Vec<Pilot>,\n}\n\n\
         impl Driver {\n    pub fn go(&self) {\n        self.ledger.count();\n    }\n\n\
             pub fn each(&self) {\n        for p in self.spare.iter() {\n            p.count();\n        }\n    }\n}\n",
    )]);
    for (caller, want) in [
        ("pilot_foo::Driver::go", "pilot_foo::Ledger::count"),
        ("pilot_foo::Driver::each", "pilot_foo::Pilot::count"),
    ] {
        let s = site(&g, caller, ".count");
        assert_eq!(s.kind, CallKind::Typed, "{caller}: {s:?}");
        assert_eq!(target_names(&g, s), [want], "{caller}");
    }
}

#[test]
fn unknown_free_function_stays_unresolved() {
    let (_, g) = ws(&[(
        "crates/pilot-foo/src/lib.rs",
        "pub fn go() {\n    missing_helper();\n    std::mem::forget(3u32);\n}\n",
    )]);
    let f = fn_ix(&g, "pilot_foo::go");
    for s in &g.calls[f] {
        assert_eq!(s.kind, CallKind::Unresolved, "{s:?}");
        assert!(s.targets.is_empty(), "{s:?}");
    }
}

#[test]
fn non_test_callers_never_target_test_code() {
    let (_, g) = ws(&[(
        "crates/pilot-foo/src/lib.rs",
        "pub fn go() {\n    fixture();\n}\n\n\
         #[cfg(test)]\nmod tests {\n    pub fn fixture() {}\n}\n",
    )]);
    let s = site(&g, "pilot_foo::go", "fixture");
    assert_eq!(s.kind, CallKind::Unresolved, "{s:?}");
    assert!(s.targets.is_empty(), "{s:?}");
}

#[test]
fn stats_count_each_resolution_class() {
    let (_, g) = ws(&[
        ("crates/pilot-foo/src/lib.rs", "pub fn init() {}\n"),
        (
            "crates/pilot-bar/src/lib.rs",
            "pub struct S;\n\nimpl S {\n    pub fn m(&self) {}\n}\n\n\
             pub fn go(s: &S) {\n    pilot_foo::init();\n    s.m();\n    nothing();\n}\n",
        ),
    ]);
    assert!(g.stats.functions >= 3, "{:?}", g.stats);
    assert!(g.stats.resolved_exact >= 1, "{:?}", g.stats);
    assert!(g.stats.resolved_typed >= 1, "{:?}", g.stats);
    assert!(g.stats.unresolved >= 1, "{:?}", g.stats);
    assert_eq!(
        g.stats.call_sites,
        g.stats.resolved_exact
            + g.stats.resolved_suffix
            + g.stats.resolved_typed
            + g.stats.resolved_method
            + g.stats.unresolved,
        "{:?}",
        g.stats
    );
}
