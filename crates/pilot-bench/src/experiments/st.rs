//! ST-1: data-plane throughput sweep — per-message vs batched produce and
//! the buffer-reusing consume path across partitions × producers, with an
//! OLS throughput model over the sweep (the pilot-perfmodel consumer of the
//! numbers, as in the paper's streaming evaluation).

use super::common;
use pilot_core::describe::UnitDescription;
use pilot_core::thread::{kernel_fn, TaskOutput};
use pilot_core::WallClock;
use pilot_miniapp::{ExperimentSpec, Factor, ResultTable};
use pilot_perfmodel::{mae, r_squared, train_test_split, FeatureMap, LinearModel};
use pilot_streaming::wal::TempDir;
use pilot_streaming::{Broker, BrokerError, FsyncPolicy, WalConfig};
use std::path::Path;
use std::sync::Arc;

/// ST-1: produce `msgs` records through pilot producer units (per-message
/// when batch = 1, `produce_batch` otherwise), then drain them through one
/// `Subscription` + `poll_into` consumer; fit OLS throughput over the sweep.
pub fn run_st1(quick: bool) -> String {
    let msgs: u64 = if quick { 20_000 } else { 100_000 };
    let spec = ExperimentSpec::new(
        "ST-1 data-plane throughput sweep",
        vec![
            Factor::new("partitions", &[1.0, 2.0, 4.0]),
            Factor::new("producers", &[1.0, 2.0]),
            Factor::new("batch", &[1.0, 64.0]),
        ],
        if quick { 1 } else { 3 },
        0x5354,
    );
    let mut table = ResultTable::new(&spec.name);
    for trial in spec.trials() {
        let partitions = trial.param_usize("partitions");
        let producers = trial.param_usize("producers");
        let batch = trial.param_usize("batch").max(1) as u64;
        let per_producer = msgs / producers as u64;
        let total = per_producer * producers as u64;

        let svc = common::thread_service(
            producers as u32,
            Box::new(pilot_core::scheduler::FirstFitScheduler),
        );
        let broker = Arc::new(Broker::new());
        let topic = format!("st-{}-{}", trial.config_key(), trial.rep);
        broker
            .create_topic(&topic, partitions, usize::MAX / 2)
            // lint: allow(panic, reason = "the topic name embeds the trial key and rep, so it is fresh on a fresh broker")
            .expect("fresh topic per trial");

        // ---- produce phase: pilot units hammer the broker ----------------
        let clock = WallClock::start();
        let units: Vec<_> = (0..producers)
            .map(|_| {
                let broker = Arc::clone(&broker);
                let topic = topic.clone();
                let payload = Arc::new(vec![7u8; 256]);
                svc.submit_unit(
                    UnitDescription::new(1).tagged("st1-producer"),
                    kernel_fn(move |_| {
                        let mut sent = 0u64;
                        while sent < per_producer {
                            let chunk = batch.min(per_producer - sent);
                            if chunk == 1 {
                                broker
                                    .produce(&topic, None, Arc::clone(&payload))
                                    // lint: allow(panic, reason = "the topic was created before the producer units were submitted")
                                    .expect("topic exists");
                            } else {
                                broker
                                    .produce_batch(
                                        &topic,
                                        (0..chunk).map(|_| (None, Arc::clone(&payload))),
                                    )
                                    // lint: allow(panic, reason = "the topic was created before the producer units were submitted")
                                    .expect("topic exists");
                            }
                            sent += chunk;
                        }
                        Ok(TaskOutput::of(sent))
                    }),
                )
            })
            .collect();
        for u in units {
            // lint: allow(panic, reason = "unit ids come from submit_unit on this same service; wait_unit returns None only for unknown ids")
            svc.wait_unit(u).expect("unit issued by this service");
        }
        let produce_s = clock.elapsed().as_secs_f64();
        svc.shutdown();

        // ---- consume phase: one subscription drains everything ------------
        broker
            .join_group("st1", &topic, "c0")
            // lint: allow(panic, reason = "the topic was created above on this same broker")
            .expect("topic exists");
        let mut sub = broker
            .subscribe("st1", "c0")
            // lint: allow(panic, reason = "c0 joined the group on the line above")
            .expect("member of group");
        let mut buf = Vec::with_capacity(256);
        let clock = WallClock::start();
        let mut drained = 0u64;
        while drained < total {
            let n = broker
                .poll_into(&mut sub, 256, &mut buf)
                // lint: allow(panic, reason = "c0 joined the group before the drain loop")
                .expect("member of group");
            drained += n as u64;
            std::hint::black_box(buf.len());
        }
        let consume_s = clock.elapsed().as_secs_f64();
        assert_eq!(drained, total, "drain must account for every record");

        table.push(
            trial,
            vec![
                ("produce_msg_s".into(), total as f64 / produce_s.max(1e-9)),
                ("consume_msg_s".into(), total as f64 / consume_s.max(1e-9)),
            ],
        );
    }

    // Batching must pay on the real pilot path, not just in the
    // single-threaded microbench (BENCH_streaming.json holds the ≥ 3×
    // floor there); across producers/partitions with scheduler overhead in
    // the denominator we require a conservative 1.3×.
    let mean = |batch: f64| {
        let rows: Vec<f64> = table
            .rows
            .iter()
            .filter(|r| r.trial.param("batch") == batch)
            .map(|r| r.measured("produce_msg_s"))
            .collect();
        rows.iter().sum::<f64>() / rows.len().max(1) as f64
    };
    let batched_ratio = mean(64.0) / mean(1.0).max(1e-9);
    assert!(
        batched_ratio >= 1.3,
        "batched produce must beat per-message end to end, got {batched_ratio:.2}×"
    );

    // OLS throughput model over the sweep — the perfmodel hand-off.
    let xs: Vec<Vec<f64>> = table
        .rows
        .iter()
        .map(|r| {
            vec![
                r.trial.param("partitions"),
                r.trial.param("producers"),
                r.trial.param("batch"),
            ]
        })
        .collect();
    let ys: Vec<f64> = table
        .rows
        .iter()
        .map(|r| r.measured("produce_msg_s"))
        .collect();
    let (tr_x, tr_y, te_x, te_y) = train_test_split(&xs, &ys, 0.3, 0x5355);
    let model = LinearModel::fit(&tr_x, &tr_y, FeatureMap::Interactions)
        // lint: allow(panic, reason = "the factorial sweep spans all factor levels, so the interaction design matrix has full rank")
        .expect("design matrix is well-posed");
    let preds = model.predict_all(&te_x);
    let r2 = r_squared(&te_y, &preds);
    let err = mae(&te_y, &preds);

    let mut out = table.to_markdown();
    out.push_str(&format!(
        "\nbatched (64) over per-message produce, end to end: {batched_ratio:.2}×\n\n\
         ### ST-1 OLS throughput model (interaction features)\n\n\
         | metric | value |\n|---|---|\n\
         | training samples | {} |\n\
         | held-out samples | {} |\n\
         | held-out R² | {r2:.3} |\n\
         | held-out MAE | {err:.0} msg/s |\n",
        tr_x.len(),
        te_x.len(),
    ));
    assert!(r2 > 0.3, "model must beat the mean predictor, got R²={r2}");
    common::emit(out)
}

/// The durable data plane the `streaming` bench's `stream_produce_wal/*` and
/// `stream_recover_wal/*` rows and `bench_guard` time: a broker over a WAL
/// tree in a temp directory (fsync off, 8 MiB segments) with one topic `t`
/// of `partitions` partitions, fed 256-byte records.
pub struct WalStream {
    dir: TempDir,
    broker: Broker,
    payload: Arc<Vec<u8>>,
}

impl WalStream {
    /// A fresh WAL-backed broker with an empty topic `t`.
    pub fn new(partitions: usize) -> Result<Self, BrokerError> {
        let dir = TempDir::new("wal-stream")?;
        let broker = Broker::open(Self::config(dir.path()))?;
        broker.create_topic("t", partitions, usize::MAX / 2)?;
        Ok(WalStream {
            dir,
            broker,
            payload: Arc::new(vec![7u8; 256]),
        })
    }

    fn config(dir: &Path) -> WalConfig {
        WalConfig::new(dir).with_fsync(FsyncPolicy::Never)
    }

    /// Produce `msgs` records: one `produce` each when `batch` is 1, else
    /// `produce_batch` calls of `batch` records.
    pub fn produce(&self, msgs: u64, batch: u64) -> Result<(), BrokerError> {
        let batch = batch.max(1);
        for _ in 0..msgs / batch {
            if batch == 1 {
                self.broker.produce("t", None, Arc::clone(&self.payload))?;
            } else {
                let records = (0..batch).map(|_| (None, Arc::clone(&self.payload)));
                self.broker.produce_batch("t", records)?;
            }
        }
        Ok(())
    }

    /// Open a second broker over the same WAL tree, replaying all of it;
    /// returns the messages recovered into topic `t`.
    pub fn recover(&self) -> Result<u64, BrokerError> {
        let broker = Broker::open(Self::config(self.dir.path()))?;
        (0..broker.partitions("t")?).try_fold(0, |n, p| Ok(n + broker.high_watermark("t", p)?))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn st1_quick_holds_batching_floor_and_model_fit() {
        // The floors are asserted inside run_st1; surviving the call in
        // quick mode is the regression check CI runs.
        let _alone = super::common::timing_floor_guard();
        let report = super::run_st1(true);
        assert!(report.contains("produce_msg_s"));
        assert!(report.contains("held-out R²"));
    }
}
