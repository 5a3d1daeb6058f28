//! What every workload shares: the one monotonic clock, the WAL scratch tree,
//! host facts, the run plan, and the result a workload hands back.

use crate::stats;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The harness clock: every stamp in a run is seconds on this one monotonic
/// `Instant`, so stamps taken on different threads subtract directly.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Sleep until harness time `t` (returns at once when `t` has passed).
    pub fn sleep_until(&self, t: f64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_secs_f64(t - now));
        }
    }

    /// Wait until harness time `t`, asleep until `SPIN_MARGIN_S` before it
    /// and busy from there: a timer wake-up is the largest lateness of a
    /// generator (an idle vCPU is descheduled), and a thread that never sleeps
    /// leaves the host's other work nowhere to run but over it.
    pub fn wait_until(&self, t: f64) {
        self.sleep_until(t - SPIN_MARGIN_S);
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

/// How long before its deadline [`Clock::wait_until`] stops sleeping.
const SPIN_MARGIN_S: f64 = 0.0015;

/// Seconds `f` took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// How one process runs one workload.
#[derive(Clone, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    /// Wrap the layers in probes and record spans.
    pub traced: bool,
    /// Size divisor: 1 for a real run, 20 for `--quick`.
    pub scale: u64,
    /// The untraced half of a traced invocation: only its primary metric is
    /// used, so its recovery drill is one restart (still oracle-checked).
    pub reference: bool,
}

impl Plan {
    /// `n` at this plan's scale, never below `floor`.
    pub fn scaled(&self, n: u64, floor: u64) -> u64 {
        (n / self.scale).max(floor)
    }
}

/// Warm-up operations pushed through the measured path during set-up.
pub const WARMUP_OPS: u64 = 1_000;
/// Latest a generator may run at p99 for its round to count as on time.
pub const GEN_LATE_LIMIT_MS: f64 = 1.0;

/// One round of a workload's timed section: an independent repetition (a
/// burst, a stream) or a window of a continuous section. Every number a run
/// reports is the interquartile mean over its rounds of each round's own
/// value ([`stats::iq_mean`]): throughput, median latency and p90 alike.
#[derive(Debug, Default)]
pub struct Round {
    /// Operations attempted and operations that failed their oracle.
    pub ops: u64,
    pub failed: u64,
    /// Correct operations completed (in an open loop: within its latency
    /// limit), and the wall time they took: the round's throughput.
    pub completed: u64,
    pub seconds: f64,
    /// One latency per operation that completed.
    pub latency_ms: Vec<f64>,
    /// Generator lateness of an open loop (empty for a closed loop).
    pub gen_late_ms: Vec<f64>,
}

/// What a workload measured. `layers` and `spans` are filled by traced runs.
#[derive(Debug, Default)]
pub struct Outcome {
    pub rounds: Vec<Round>,
    /// One entry per set-up performed.
    pub setup_s: Vec<f64>,
    /// One entry per cold restart.
    pub recover_s: Vec<f64>,
    /// Oracle failures, in words; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// Per-layer metrics by name.
    pub layers: Vec<(&'static str, f64)>,
    /// Spans to write out at exit.
    pub spans: Vec<crate::trace::Span>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.failed).sum()
    }

    pub fn latency_samples(&self) -> usize {
        self.rounds.iter().map(|r| r.latency_ms.len()).sum()
    }

    /// Correct operations completed per second of timed wall time: the
    /// interquartile mean over the rounds of each round's own rate.
    pub fn throughput_per_s(&self) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.completed as f64 / r.seconds)
            .collect();
        stats::iq_mean(&per_round)
    }

    /// Interquartile mean over the rounds of each round's `q`-quantile of
    /// `sample(round)`.
    fn round_quantile(&self, q: f64, sample: impl Fn(&Round) -> &Vec<f64>) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| stats::percentile(&stats::sorted(sample(r).clone()), q))
            .collect();
        stats::iq_mean(&per_round)
    }

    pub fn latency_ms(&self, q: f64) -> f64 {
        self.round_quantile(q, |r| &r.latency_ms)
    }

    /// Generator lateness, p99 (0 for a closed loop).
    pub fn gen_late_p99_ms(&self) -> f64 {
        self.round_quantile(0.99, |r| &r.gen_late_ms)
    }

    /// Rounds whose generator ran at most [`GEN_LATE_LIMIT_MS`] late at p99
    /// (every round of a closed loop). With none, the run never offered the
    /// load it states and is reported as incorrect.
    pub fn rounds_on_time(&self) -> usize {
        let p99 = |r: &Round| stats::percentile(&stats::sorted(r.gen_late_ms.clone()), 0.99);
        self.rounds
            .iter()
            .filter(|r| p99(r) <= GEN_LATE_LIMIT_MS)
            .count()
    }
}

/// WAL configuration of every broker the benchmark opens: no explicit fsync,
/// and segments big enough that no log rolls during a run. A roll fsyncs the
/// finished segment, and the benchmark may only write inside its checkout,
/// which is a shared disk: with 8 MiB segments a stream round waited on a
/// dozen 8 MiB disk flushes and its throughput followed the disk (+-20 %),
/// not the code. Unrolled, the WAL stays in the page cache.
pub fn wal_config(dir: &Path) -> pilot_streaming::WalConfig {
    pilot_streaming::WalConfig::new(dir)
        .with_segment_bytes(256 << 20)
        .with_fsync(pilot_streaming::FsyncPolicy::Never)
}

/// FNV-1a over 64-bit words: the state digests of the workloads that have no
/// `QueryTables::digest` to lean on.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Where every WAL tree goes: `out/wal` of this package, inside the checkout,
/// because the benchmark may read and write only there. [`host_facts`] names
/// the file system under it as `wal_fs`.
pub fn wal_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out/wal")
}

/// A directory tree for WAL files that is removed when dropped.
pub struct WalDir(PathBuf);

impl WalDir {
    /// A fresh, empty directory `<wal root>/<pid>-<label>`.
    pub fn create(label: &str) -> std::io::Result<WalDir> {
        let dir = wal_root().join(format!("{}-{label}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WalDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Bytes in regular files under the tree.
    pub fn bytes(&self) -> u64 {
        fn walk(p: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(p) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.0)
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` does not offer it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// File-system type holding `path`, from the longest matching mount point.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/self/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
                    path.starts_with(mount)
                        .then(|| (mount.len(), fs.to_string()))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line `cmd args…` prints, or "unknown".
fn first_line_of(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Short revision of the repository this package sits in, when it is one (the
/// driver's checkout is not, and `git` is not sent looking through its
/// parents).
fn git_rev() -> String {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !repo.join(".git").exists() {
        return "unknown".into();
    }
    let repo = repo.to_string_lossy().into_owned();
    first_line_of("git", &["-C", &repo, "rev-parse", "--short", "HEAD"])
}

/// Host facts printed with every result: a number is only comparable with
/// another taken on the same cores, file system and compiler.
pub fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let wal_root = wal_root();
    format!(
        "host: nproc={nproc} wal_fs={} wal_root={} rustc=\"{}\" git_rev={}",
        fs_type(&wal_root),
        wal_root.display(),
        first_line_of("rustc", &["--version"]),
        git_rev(),
    )
}
