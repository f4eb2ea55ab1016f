//! Battery-fleet scenario — the paper's motivating example (§1).
//!
//! ```text
//! cargo run --release --example battery_fleet
//! ```
//!
//! An automotive battery management system: every vehicle carries a battery
//! model that is regularly adapted to its own aging cells from measurements
//! collected during operation (use case U3), while the manufacturer
//! occasionally ships an improved factory model (U2). "In case of failure
//! ... the models need to be exactly reproducible in a central storage" —
//! an incident on one vehicle requires recovering the *exact* model that
//! vehicle was running, months of updates later.
//!
//! The fleet saves with the parameter-update approach: per-vehicle updates
//! touch only the adaptation head (partial updates), so each save ships a
//! tiny fraction of the full model over the vehicle uplink.

use mmlib::core::{RecoverOptions, SaveRequest, SaveService};
use mmlib::data::loader::LoaderConfig;
use mmlib::data::{DataLoader, Dataset, DatasetId};
use mmlib::model::{ArchId, Model};
use mmlib::store::ModelStorage;
use mmlib::tensor::ExecMode;
use mmlib::train::{AnyOptimizer, ImageNetTrainService, Sgd, SgdConfig, TrainConfig, TrainService};

const VEHICLES: usize = 4;
const UPDATE_ROUNDS: usize = 3;

/// Vehicles upload over a constrained cellular-class link (10 ms, 1 Gb/s =
/// 8 ns per byte), not the paper's datacenter InfiniBand — storage savings
/// become airtime.
fn airtime(bytes: u64) -> std::time::Duration {
    std::time::Duration::from_millis(10) + std::time::Duration::from_nanos(bytes * 8)
}

fn main() {
    let dir = tempfile::tempdir().expect("temp dir");
    let storage = ModelStorage::open(dir.path()).expect("open storage");
    let svc = SaveService::new(storage);

    // The factory battery model, "initialized from laboratory measurements
    // of other cells of the same type". MobileNetV2 stands in for the
    // battery simulation network.
    let mut factory = Model::new_initialized(ArchId::MobileNetV2, 2024);
    factory.set_fully_trainable();
    let factory_id = svc.save(SaveRequest::full(&factory)).expect("save factory model").id;
    println!(
        "factory model registered: {} ({:.1} MB)\n",
        factory_id,
        factory.state_nbytes() as f64 / 1e6
    );

    // Each vehicle adapts its own copy from on-board measurements.
    let mut fleet: Vec<(Model, mmlib::core::meta::SavedModelId, AnyOptimizer)> = (0..VEHICLES)
        .map(|_| {
            (factory.duplicate(), factory_id.clone(), AnyOptimizer::from(Sgd::new(SgdConfig::default())))
        })
        .collect();

    for round in 0..UPDATE_ROUNDS {
        println!("— adaptation round {round} —");
        for (vehicle, (model, base, sgd)) in fleet.iter_mut().enumerate() {
            // On-board measurements: a small, vehicle-specific slice of data.
            let seed = (round * VEHICLES + vehicle) as u64;
            model.set_classifier_only_trainable();
            let loader = DataLoader::new(
                Dataset::new(DatasetId::CocoOutdoor512, 1.0 / 512.0),
                LoaderConfig {
                    batch_size: 2,
                    resolution: 32,
                    seed,
                    max_images: Some(4),
                    ..Default::default()
                },
            );
            let config = TrainConfig {
                epochs: 1,
                max_batches_per_epoch: Some(2),
                seed,
                mode: ExecMode::Deterministic,
            };
            let mut trainer = ImageNetTrainService::new(loader, sgd.config().build(), config);
            std::mem::swap(trainer.optimizer_mut(), sgd);
            trainer.train(model);
            std::mem::swap(trainer.optimizer_mut(), sgd);

            // Inform the central storage (U3): parameter update only.
            let saved =
                svc.save(SaveRequest::update(model, base)).expect("vehicle update save");
            println!(
                "  vehicle {vehicle}: {:>7.3} MB uplink ({:>6.1?} airtime, {} changed layers, save {:.1?})",
                saved.storage_bytes as f64 / 1e6,
                airtime(saved.storage_bytes),
                saved.diff.map_or(0, |d| d.changed.len()),
                saved.tts,
            );
            *base = saved.id;
        }
    }

    // Full snapshots would have cost ~14 MB per update; compare.
    let full = factory.state_nbytes() as f64 / 1e6;
    println!(
        "\n(a full snapshot per update would cost {:.1} MB and {:?} airtime per vehicle)",
        full,
        airtime(factory.state_nbytes()),
    );

    // --- Incident: recover vehicle 2's exact current model centrally. ----
    let (expected, incident_id, _) = &fleet[2];
    println!("\nincident on vehicle 2 — recovering its exact model ({incident_id}) centrally ...");
    let recovered = svc
        .recover_report(incident_id, RecoverOptions::default())
        .expect("incident recovery");
    println!(
        "recovered in {:?} through a chain of {} base models; bit-exact: {}",
        recovered.ttr,
        recovered.recovered_bases,
        recovered.model.models_equal(expected),
    );
    assert!(recovered.model.models_equal(expected));
    println!("debugging can proceed on the exact in-field model. ✓");
}
