//! The six workloads: what each sets up, what one cycle of it does, and the
//! client-side stopwatch around every save, recover and query.
//!
//! Every loop is closed: a client issues its next operation only after the
//! previous one was acknowledged. Inputs come from the seed alone; the
//! library under test only ever sees the generated models and ids.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mmlib_core::meta::ModelRelation;
use mmlib_core::{RecoverOptions, SaveRequest, SaveService, SavedModelId, TrainProvenance};
use mmlib_data::loader::LoaderConfig;
use mmlib_data::{DataLoader, Dataset, DatasetId};
use mmlib_model::{ArchId, Model};
use mmlib_net::{RegistryServer, RemoteStore};
use mmlib_store::ModelStorage;
use mmlib_tensor::ExecMode;
use mmlib_train::{ImageNetTrainService, Sgd, SgdConfig, TrainConfig, TrainService};

use crate::timed::{Boundary, TimedBackend};
use crate::trace::Tracer;

/// One of the benchmark's workloads. Names are stable: `BENCHMARK.json`,
/// the README and BASELINE.md refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BaLocal,
    PuaLocal,
    BaRemote,
    FleetRemote,
    ChainLocal,
    MpaLocal,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::BaLocal,
        Workload::PuaLocal,
        Workload::BaRemote,
        Workload::FleetRemote,
        Workload::ChainLocal,
        Workload::MpaLocal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BaLocal => "ba-local",
            Workload::PuaLocal => "pua-local",
            Workload::BaRemote => "ba-remote",
            Workload::FleetRemote => "fleet-remote",
            Workload::ChainLocal => "chain-local",
            Workload::MpaLocal => "mpa-local",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the client reaches the store through a loopback registry.
    pub fn remote(self) -> bool {
        matches!(self, Workload::BaRemote | Workload::FleetRemote)
    }

    fn arch(self, tiny: bool) -> ArchId {
        if tiny || self == Workload::FleetRemote {
            ArchId::TinyCnn
        } else {
            ArchId::MobileNetV2
        }
    }

    /// Whether derived versions change every layer or only the classifier.
    fn fully_updated(self) -> bool {
        matches!(
            self,
            Workload::BaLocal | Workload::BaRemote | Workload::MpaLocal
        )
    }
}

/// Versions a fleet client may be asked to recover or query at any moment.
const FLEET_POOL: usize = 64;
/// Depth at which pre-populated and client chains start over from U1.
const FLEET_CHAIN: usize = 8;
/// Client threads (and so connections in use) of the fleet workload.
pub const FLEET_CLIENTS: usize = 2;
/// Operations per fleet client in one warm-up round.
const FLEET_WARMUP_OPS: usize = 16;

/// Untimed save/recover pairs before the timed phase, so page cache, the
/// allocator, the hash cache and the server's worker threads are warm.
const WARMUP_PAIRS: usize = 3;

/// How often set-up is repeated in an untraced run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Deterministic input generator (SplitMix64), seeded from `--seed` only.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives the next version: adds seeded noise to every trainable parameter.
pub fn perturb(model: &mut Model, rng: &mut Rng) {
    model.visit_trainable_mut(&mut |_, param, _| {
        for v in param.data_mut() {
            let unit = (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
            *v += (unit - 0.5) * 1e-3;
        }
    });
}

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory (inside the checkout) for the store roots and trace files.
    pub out_dir: PathBuf,
    /// Use the 72 KB TinyCnn everywhere (the crate's own smoke tests).
    pub tiny: bool,
}

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A fresh store root under the run's output directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(cfg: &RunConfig) -> Result<ScratchDir, String> {
        let path = cfg.out_dir.join(format!(
            "store-{}-{}-{}",
            cfg.workload.name(),
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The store a workload runs against. Field order is drop order: the client
/// goes before the server, the server before the directory under it.
pub struct Env {
    /// What clients save through.
    pub storage: ModelStorage,
    pub remote: Option<Arc<RemoteStore>>,
    pub server: Option<RegistryServer>,
    /// The directory-backed store (the same as `storage` when local).
    pub disk: ModelStorage,
    dir: ScratchDir,
}

impl Env {
    fn open(cfg: &RunConfig, tracer: Option<&Arc<Tracer>>) -> Result<Env, String> {
        let dir = ScratchDir::new(cfg)?;
        let wrap = |storage: ModelStorage, boundary: Boundary| match tracer {
            Some(tracer) => {
                let root = storage.root().to_path_buf();
                let timed = TimedBackend::new(storage.backend(), Arc::clone(tracer), boundary);
                ModelStorage::from_backend(Arc::new(timed), root)
            }
            None => storage,
        };
        let disk = ModelStorage::open(&dir.0).map_err(|e| format!("open store: {e}"))?;
        let disk = wrap(disk, Boundary::Store);
        if !cfg.workload.remote() {
            return Ok(Env {
                storage: disk.clone(),
                remote: None,
                server: None,
                disk,
                dir,
            });
        }
        let server = RegistryServer::bind(disk.clone(), "127.0.0.1:0")
            .map_err(|e| format!("bind registry: {e}"))?;
        let remote = Arc::new(
            RemoteStore::builder(server.addr())
                .build()
                .map_err(|e| format!("connect: {e}"))?,
        );
        let storage = wrap(
            ModelStorage::from_backend(remote.clone(), format!("tcp://{}", server.addr())),
            Boundary::Net,
        );
        Ok(Env {
            storage,
            remote: Some(remote),
            server: Some(server),
            disk,
            dir,
        })
    }

    pub fn root(&self) -> &Path {
        &self.dir.0
    }
}

/// Per-client measurements of the timed phase.
#[derive(Default)]
pub struct Samples {
    pub save_ms: Vec<f64>,
    pub recover_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    /// Time this client spent inside operations (not generating inputs).
    pub busy: Duration,
    /// Σ `state_nbytes` of the models the timed saves were given.
    pub model_bytes_saved: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Σ seconds per phase label from the reports' public `.phases`.
    pub save_phase_s: BTreeMap<&'static str, f64>,
    pub recover_phase_s: BTreeMap<&'static str, f64>,
    /// Σ (client wall − Σ report phases) over saves and recovers, seconds.
    pub unattributed_s: f64,
    pub changed_layers: u64,
}

impl Samples {
    fn merge(&mut self, other: Samples) {
        self.save_ms.extend(other.save_ms);
        self.recover_ms.extend(other.recover_ms);
        self.query_ms.extend(other.query_ms);
        self.busy += other.busy;
        self.model_bytes_saved += other.model_bytes_saved;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (phase, s) in other.save_phase_s {
            *self.save_phase_s.entry(phase).or_default() += s;
        }
        for (phase, s) in other.recover_phase_s {
            *self.recover_phase_s.entry(phase).or_default() += s;
        }
        self.unattributed_s += other.unattributed_s;
        self.changed_layers += other.changed_layers;
    }

    fn fail(&mut self, what: &str, why: &dyn std::fmt::Display) {
        self.failed += 1;
        if self.failed <= 3 {
            eprintln!("benchmark: {what} failed: {why}");
        }
    }
}

/// One closed-loop client: a save service of its own plus its stopwatch.
pub struct Client {
    pub svc: SaveService,
    tracer: Option<Arc<Tracer>>,
    pub samples: Samples,
}

impl Client {
    fn new(storage: &ModelStorage, tracer: Option<&Arc<Tracer>>) -> Client {
        Client {
            svc: SaveService::new(storage.clone()),
            tracer: tracer.cloned(),
            samples: Samples::default(),
        }
    }

    /// Runs `op` under the client's stopwatch (and a span when tracing) and
    /// books it as attempted and as busy time.
    fn timed<T>(
        &mut self,
        span: &'static str,
        op: impl FnOnce(&SaveService) -> T,
    ) -> (T, Duration) {
        self.samples.attempted += 1;
        let span = self.tracer.as_ref().map(|t| t.span(span));
        let start = Instant::now();
        let out = op(&self.svc);
        let wall = start.elapsed();
        drop(span);
        self.samples.busy += wall;
        (out, wall)
    }

    /// Times one save from the outside and books it.
    pub fn save(&mut self, req: SaveRequest<'_>, model_bytes: u64) -> Option<SavedModelId> {
        let (out, wall) = self.timed("core.save", |svc| svc.save(req));
        let samples = &mut self.samples;
        match out {
            Ok(report) => {
                samples.save_ms.push(wall.as_secs_f64() * 1e3);
                samples.model_bytes_saved += model_bytes;
                samples.changed_layers += report.diff.map_or(0, |diff| diff.changed.len() as u64);
                samples.unattributed_s +=
                    book_phases(&mut samples.save_phase_s, report.phases.entries(), wall);
                Some(report.id)
            }
            Err(e) => {
                samples.fail("save", &e);
                None
            }
        }
    }

    /// Times one recovery (default options: environment check and
    /// verification on) and checks the result bit for bit against `expect`.
    pub fn recover(&mut self, id: &SavedModelId, expect: &Model) {
        let (out, wall) = self.timed("core.recover", |svc| {
            svc.recover_report(id, RecoverOptions::default())
        });
        let samples = &mut self.samples;
        match out {
            Ok(report) if report.model.models_equal(expect) => {
                samples.recover_ms.push(wall.as_secs_f64() * 1e3);
                samples.unattributed_s +=
                    book_phases(&mut samples.recover_phase_s, report.phases.entries(), wall);
            }
            Ok(_) => samples.fail(
                "recover",
                &format!("{id} is not identical to what was saved"),
            ),
            Err(e) => samples.fail("recover", &e),
        }
    }

    /// Times one ancestry query over the wire and checks it names `id` first.
    fn query(&mut self, remote: &RemoteStore, id: &SavedModelId) {
        let name = id.to_string();
        let (out, wall) = self.timed("lineage.query", |_| remote.lineage_chain(&name));
        match out {
            Ok(chain) if chain.first().is_some_and(|node| node.model == name) => {
                self.samples.query_ms.push(wall.as_secs_f64() * 1e3);
            }
            Ok(_) => self
                .samples
                .fail("query", &format!("ancestry of {id} does not start at it")),
            Err(e) => self.samples.fail("query", &e),
        }
    }
}

/// Adds a report's public phases to the per-phase sums and returns the part
/// of the client-observed `wall` that no phase accounts for, in seconds.
fn book_phases(
    sums: &mut BTreeMap<&'static str, f64>,
    phases: &[(&'static str, Duration)],
    wall: Duration,
) -> f64 {
    let mut attributed = 0.0;
    for (phase, d) in phases {
        *sums.entry(phase).or_default() += d.as_secs_f64();
        attributed += d.as_secs_f64();
    }
    wall.as_secs_f64() - attributed
}

/// Training set-up of the provenance workload: one batch of two images per
/// retraining (the recovery of a chain's tip replays four of them), on a
/// 1/64-scale CF-512 so the dataset container is ~1.5 MB.
pub struct Training {
    pub loader_config: LoaderConfig,
    pub train_config: TrainConfig,
    pub sgd: SgdConfig,
}

const MPA_DATASET: DatasetId = DatasetId::CocoFood512;
const MPA_DATASET_SCALE: f64 = 1.0 / 64.0;

impl Training {
    pub fn new(seed: u64) -> Training {
        let (batch_size, batches) = (2usize, 1u64);
        Training {
            loader_config: LoaderConfig {
                batch_size,
                resolution: 32,
                shuffle: true,
                augment: true,
                seed,
                max_images: Some(batches * batch_size as u64),
            },
            train_config: TrainConfig {
                epochs: 1,
                max_batches_per_epoch: Some(batches),
                seed,
                mode: ExecMode::Deterministic,
            },
            // Weight decay moves every weight, so a retraining is a fully
            // updated version even at this length (as in `mmlib-dist`).
            sgd: SgdConfig {
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-3,
                max_grad_norm: Some(1.0),
            },
        }
    }

    pub fn service(&self) -> ImageNetTrainService {
        let loader = DataLoader::new(
            Dataset::new(MPA_DATASET, MPA_DATASET_SCALE),
            self.loader_config,
        );
        ImageNetTrainService::new(loader, Sgd::new(self.sgd), self.train_config)
    }

    fn provenance(&self) -> TrainProvenance {
        TrainProvenance {
            dataset_id: MPA_DATASET,
            dataset_scale: MPA_DATASET_SCALE,
            dataset_external: false,
            loader_config: self.loader_config,
            optimizer: self.sgd.into(),
            optimizer_state_before: Sgd::new(self.sgd).state_bytes(),
            train_config: self.train_config,
            relation: ModelRelation::FullyUpdated,
        }
    }
}

/// A saved version a fleet client may recover or query, with the exact
/// model it must come back as.
struct PoolEntry {
    id: SavedModelId,
    model: Arc<Model>,
}

/// A workload after set-up: store open, U1 saved, clients connected.
pub struct Ready {
    pub clients: Vec<Client>,
    /// The use case U1 model every chain starts from, and its saved id.
    pub u1: Model,
    pub u1_id: SavedModelId,
    /// The version being derived (single-client workloads).
    pub model: Model,
    /// Ids of the chain the last cycle saved, base first; `model` is its tip.
    pub last_chain: Vec<SavedModelId>,
    pool: Mutex<Vec<PoolEntry>>,
    /// Seed of the last provenance training, for `train.replay_ms`.
    pub last_training_seed: u64,
    // Declared last: clients must be gone before the server shuts down.
    pub env: Env,
}

fn new_version_model(cfg: &RunConfig, u1: &Model) -> Model {
    let mut model = u1.duplicate();
    if cfg.workload.fully_updated() {
        model.set_fully_trainable();
    } else {
        model.set_classifier_only_trainable();
    }
    model
}

/// Opens the store (binding and connecting when remote), builds and saves
/// U1, and pre-populates what the workload needs. This is what `setup_s`
/// times.
pub fn setup(cfg: &RunConfig, tracer: Option<&Arc<Tracer>>) -> Result<Ready, String> {
    let env = Env::open(cfg, tracer)?;
    let n_clients = if cfg.workload == Workload::FleetRemote {
        FLEET_CLIENTS
    } else {
        1
    };
    let clients: Vec<Client> = (0..n_clients)
        .map(|_| Client::new(&env.storage, tracer))
        .collect();
    let u1 = Model::new_initialized(cfg.workload.arch(cfg.tiny), cfg.seed);
    let u1_id = clients[0]
        .svc
        .save(SaveRequest::full(&u1))
        .map_err(|e| format!("save U1: {e}"))?
        .id;
    let model = new_version_model(cfg, &u1);

    let mut pool = Vec::new();
    if cfg.workload == Workload::FleetRemote {
        let mut rng = Rng::new(cfg.seed ^ 0x706f_6f6c);
        let mut version = new_version_model(cfg, &u1);
        let mut base = u1_id.clone();
        for i in 0..FLEET_POOL {
            if i % FLEET_CHAIN == 0 {
                version.copy_state_from(&u1);
                base = u1_id.clone();
            }
            perturb(&mut version, &mut rng);
            base = clients[0]
                .svc
                .save(SaveRequest::update(&version, &base))
                .map_err(|e| format!("pre-populate: {e}"))?
                .id;
            pool.push(PoolEntry {
                id: base.clone(),
                model: Arc::new(version.duplicate()),
            });
        }
    }
    Ok(Ready {
        clients,
        u1,
        u1_id,
        model,
        last_chain: Vec::new(),
        pool: Mutex::new(pool),
        last_training_seed: 0,
        env,
    })
}

impl Ready {
    /// One cycle of a single-client workload: a chain of `chain_len`
    /// versions off U1, each saved and — when `tip_recovers` is 0 — recovered
    /// right away; otherwise only the chain's tip is recovered, that many
    /// times, at the end. A failed save cuts the chain short.
    fn cycle(&mut self, cfg: &RunConfig, rng: &mut Rng, chain_len: usize, tip_recovers: usize) {
        let client = &mut self.clients[0];
        let model_bytes = self.model.state_nbytes();
        self.model.copy_state_from(&self.u1);
        let mut base = self.u1_id.clone();
        self.last_chain.clear();
        for _ in 0..chain_len {
            let saved = match cfg.workload {
                Workload::MpaLocal => {
                    // Training is the generator here: untimed. Its replay is
                    // the recovery, and that is timed.
                    self.last_training_seed = rng.next_u64();
                    let training = Training::new(self.last_training_seed);
                    training.service().train(&mut self.model);
                    let prov = training.provenance();
                    client.save(
                        SaveRequest::provenance(&self.model, &base, &prov),
                        model_bytes,
                    )
                }
                Workload::BaLocal | Workload::BaRemote => {
                    perturb(&mut self.model, rng);
                    client.save(SaveRequest::full(&self.model), model_bytes)
                }
                _ => {
                    perturb(&mut self.model, rng);
                    client.save(SaveRequest::update(&self.model, &base), model_bytes)
                }
            };
            let Some(id) = saved else { return };
            if tip_recovers == 0 {
                client.recover(&id, &self.model);
            }
            self.last_chain.push(id.clone());
            base = id;
        }
        for _ in 0..tip_recovers {
            client.recover(&base, &self.model);
        }
    }

    /// `(chain length, tip recoveries)` of one timed cycle. The provenance
    /// workload recovers only the tip of each chain: a recovery at depth 4
    /// replays four trainings, and recovering every version would leave a
    /// run with a dozen saves to take a median of.
    fn cycle_shape(cfg: &RunConfig) -> (usize, usize) {
        match cfg.workload {
            Workload::BaLocal | Workload::BaRemote => (1, 0),
            Workload::PuaLocal => (4, 0),
            Workload::MpaLocal => (4, 1),
            Workload::ChainLocal => (32, 8),
            Workload::FleetRemote => (0, 0),
        }
    }

    /// Runs whole cycles for about `seconds`: it stops at the cycle boundary
    /// nearest to the deadline, so a workload with long cycles overshoots
    /// and undershoots equally often.
    fn run_cycles(&mut self, cfg: &RunConfig, rng: &mut Rng, seconds: f64) {
        let (chain_len, tip_recovers) = Ready::cycle_shape(cfg);
        let start = Instant::now();
        let mut cycles = 0u32;
        loop {
            self.cycle(cfg, rng, chain_len, tip_recovers);
            cycles += 1;
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed + 0.5 * elapsed / f64::from(cycles) >= seconds {
                return;
            }
        }
    }

    /// The fleet: each client thread draws from its own seeded schedule —
    /// half saves on its own chain, four tenths recoveries of a version
    /// either client wrote, one tenth ancestry queries — for `seconds`, and
    /// for at least `min_ops` operations per client.
    fn run_fleet(&mut self, cfg: &RunConfig, round: u64, seconds: f64, min_ops: usize) {
        let remote = self
            .env
            .remote
            .clone()
            .expect("the fleet workload is remote");
        let (u1, u1_id, pool) = (&self.u1, &self.u1_id, &self.pool);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for (index, client) in self.clients.iter_mut().enumerate() {
                let remote = &remote;
                scope.spawn(move || {
                    let mut rng = Rng::new(cfg.seed ^ (round << 32) ^ (index as u64 + 1));
                    let mut model = new_version_model(cfg, u1);
                    let model_bytes = model.state_nbytes();
                    let mut base = u1_id.clone();
                    let mut depth = 0;
                    let mut ops = 0;
                    while ops < min_ops || start.elapsed().as_secs_f64() < seconds {
                        ops += 1;
                        let draw = rng.below(10);
                        if draw < 5 {
                            if depth == FLEET_CHAIN {
                                model.copy_state_from(u1);
                                base = u1_id.clone();
                                depth = 0;
                            }
                            perturb(&mut model, &mut rng);
                            let Some(id) =
                                client.save(SaveRequest::update(&model, &base), model_bytes)
                            else {
                                continue;
                            };
                            depth += 1;
                            base = id.clone();
                            let entry = PoolEntry {
                                id,
                                model: Arc::new(model.duplicate()),
                            };
                            let slot = rng.below(FLEET_POOL);
                            pool.lock().expect("pool lock poisoned by a failed client")[slot] =
                                entry;
                        } else {
                            let (id, expect) = {
                                let pool =
                                    pool.lock().expect("pool lock poisoned by a failed client");
                                let entry = &pool[rng.below(FLEET_POOL)];
                                (entry.id.clone(), Arc::clone(&entry.model))
                            };
                            if draw < 9 {
                                client.recover(&id, &expect);
                            } else {
                                client.query(remote, &id);
                            }
                        }
                    }
                });
            }
        });
    }

    /// Untimed operations in the workload's own shape before measuring.
    pub fn warm_up(&mut self, cfg: &RunConfig) {
        let mut rng = Rng::new(cfg.seed ^ 0x7761_726d);
        match cfg.workload {
            Workload::FleetRemote => {
                self.run_fleet(cfg, 0, 0.0, WARMUP_PAIRS * FLEET_WARMUP_OPS);
            }
            Workload::BaLocal | Workload::BaRemote => {
                for _ in 0..WARMUP_PAIRS {
                    self.cycle(cfg, &mut rng, 1, 0);
                }
            }
            Workload::ChainLocal => self.cycle(cfg, &mut rng, WARMUP_PAIRS, WARMUP_PAIRS),
            Workload::MpaLocal => self.cycle(cfg, &mut rng, WARMUP_PAIRS, 1),
            Workload::PuaLocal => self.cycle(cfg, &mut rng, WARMUP_PAIRS, 0),
        }
        for client in &mut self.clients {
            client.samples = Samples::default();
        }
    }

    /// The timed phase. Returns each client's samples.
    fn measure(&mut self, cfg: &RunConfig) -> Vec<Samples> {
        if cfg.workload == Workload::FleetRemote {
            self.run_fleet(cfg, 1, cfg.seconds, 1);
        } else {
            self.run_cycles(cfg, &mut Rng::new(cfg.seed), cfg.seconds);
        }
        self.clients
            .iter_mut()
            .map(|c| std::mem::take(&mut c.samples))
            .collect()
    }
}

/// What the timed phase of one run produced, before metrics are derived.
pub struct Measured {
    pub ready: Ready,
    pub setup_s: Vec<f64>,
    /// Every client's samples merged.
    pub total: Samples,
    /// Completed saves + recovers per second a client spent inside
    /// operations, summed over clients.
    pub ops_per_s: f64,
    /// Deltas of the client-side storage accounting over the timed phase.
    pub bytes_written: u64,
    pub bytes_read: u64,
    /// Delta of the directory-backed store's durability syncs.
    pub sync_ops: u64,
    /// Deltas of the client's raw socket counters (0 when local).
    pub wire_bytes: u64,
    pub load_shed: u64,
    pub peak_rss_mb: f64,
}

/// Sets up (several times when untraced, to report a median), warms up and
/// runs the timed phase.
pub fn measure(cfg: &RunConfig, tracer: Option<&Arc<Tracer>>) -> Result<Measured, String> {
    let repeats = if cfg.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut ready = None;
    for _ in 0..repeats {
        drop(ready.take());
        let start = Instant::now();
        ready = Some(setup(cfg, tracer)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut ready = ready.expect("set-up ran at least once");
    ready.warm_up(cfg);
    if let Some(tracer) = tracer {
        tracer.take();
    }

    let wire = |env: &Env| {
        env.remote
            .as_ref()
            .map_or(0, |r| r.wire_bytes_out() + r.wire_bytes_in())
    };
    let shed = |env: &Env| env.server.as_ref().map_or(0, |s| s.metrics().load_shed());
    let before = (
        ready.env.storage.bytes_written(),
        ready.env.storage.bytes_read(),
        ready.env.disk.sync_ops(),
        wire(&ready.env),
        shed(&ready.env),
    );
    let per_client = ready.measure(cfg);
    let mut total = Samples::default();
    let mut ops_per_s = 0.0;
    for samples in per_client {
        let completed = (samples.save_ms.len() + samples.recover_ms.len()) as f64;
        ops_per_s += completed / samples.busy.as_secs_f64().max(f64::MIN_POSITIVE);
        total.merge(samples);
    }
    Ok(Measured {
        bytes_written: ready.env.storage.bytes_written() - before.0,
        bytes_read: ready.env.storage.bytes_read() - before.1,
        sync_ops: ready.env.disk.sync_ops() - before.2,
        wire_bytes: wire(&ready.env) - before.3,
        load_shed: shed(&ready.env) - before.4,
        peak_rss_mb: peak_rss_mb(),
        ready,
        setup_s,
        total,
        ops_per_s,
    })
}

/// `VmHWM` of this process in MB (0 where `/proc` does not provide it).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
