//! Every generator and variant sets its column widths from its own public
//! parameters, and every record it produces fits them: at the horizons the
//! benchmark, the sweep experiments and the examples run (`perf` at full size and
//! at `--smoke`'s 1/20, `sweep` at its default, its goldens' and its quick
//! horizon, the examples' own), on seeds 1–20. Every record is also timed at its
//! arrival step, the public step that uploads it, which Transform decides the
//! θ-condition on. A value that did not fit, or a time off its arrival, would make
//! the generator panic on its `SchemaError`; the test also re-checks each record.

use incshrink_workload::{
    scale_dataset, to_burst, to_sparse, to_store_partitioned, to_zipf_skewed, CpdbGenerator,
    Dataset, DatasetKind, TpcDsGenerator, WorkloadParams,
};

/// `perf` (2 000, 400 and their `--smoke` sizes 100 and 20), `sweep` (240, 60
/// and the goldens' 24) and the examples (80, 120, 150, 180).
const HORIZONS: [u64; 11] = [20, 24, 60, 80, 100, 120, 150, 180, 240, 400, 2000];

fn generate(kind: DatasetKind, steps: u64, seed: u64) -> Dataset {
    let rate = match kind {
        DatasetKind::TpcDs => 2.7,
        DatasetKind::Cpdb => 9.8,
    };
    let params = WorkloadParams {
        steps,
        view_entries_per_step: rate,
        seed,
    };
    match kind {
        DatasetKind::TpcDs => TpcDsGenerator::new(params).generate(),
        DatasetKind::Cpdb => CpdbGenerator::new(params).generate(),
    }
}

/// Every record of both relations fits its schema's widths and is timed at its
/// arrival step.
fn assert_fits(dataset: &Dataset, what: &str) {
    for db in [&dataset.left, &dataset.right] {
        for update in db.updates() {
            if let Err(e) = db.schema.check(&update.fields) {
                panic!("{what}: {e}");
            }
            let time = update.fields[db.schema.time_column];
            assert_eq!(
                u64::from(time),
                update.arrival,
                "{what}: record {}",
                update.id
            );
        }
    }
}

fn key_bits(dataset: &Dataset) -> u32 {
    dataset.left.schema.widths()[dataset.left.schema.key_column]
}

#[test]
fn every_generator_and_variant_fits_its_public_widths() {
    for kind in [DatasetKind::TpcDs, DatasetKind::Cpdb] {
        for steps in HORIZONS {
            for seed in 1..=20u64 {
                let what =
                    |variant: &str| format!("{kind} {variant} at {steps} steps, seed {seed}");
                let base = generate(kind, steps, seed);
                assert_fits(&base, &what("standard"));
                assert_fits(&to_sparse(&base, 0.1, seed), &what("sparse"));
                assert_fits(&scale_dataset(&base, 0.5, seed), &what("×0.5"));
                let stores = to_store_partitioned(&base, 8, 0.5, seed);
                assert_fits(&stores, &what("store-partitioned"));
                let skewed = to_store_partitioned(&to_zipf_skewed(&base, 1.2, seed), 8, 0.5, seed);
                assert_fits(&skewed, &what("zipf, store-partitioned"));
                assert_eq!(key_bits(&skewed), 32, "uniform u32 keys are full words");
                let burst = to_burst(&base, 1.0, seed);
                assert_fits(&burst, &what("burst"));
                assert_eq!(key_bits(&burst), key_bits(&base) + 1);
                for factor in [2.0, 4.0] {
                    let scaled = scale_dataset(&base, factor, seed);
                    assert_fits(&scaled, &what(&format!("×{factor}")));
                }
            }
        }
    }
}

/// A short horizon has not built up the pad's per-step margin over the arrival
/// rate: both generators still fit their widths from one step on.
#[test]
fn short_horizons_fit_their_public_widths() {
    for kind in [DatasetKind::TpcDs, DatasetKind::Cpdb] {
        for steps in 1..20u64 {
            for seed in 1..=100u64 {
                let what = format!("{kind} at {steps} steps, seed {seed}");
                assert_fits(&generate(kind, steps, seed), &what);
            }
        }
    }
}

#[test]
fn widths_follow_the_public_parameters_not_the_values() {
    // TPC-ds at the benchmark's horizon: pids under 2 000 × 7, dates under 2 030.
    let a = generate(DatasetKind::TpcDs, 2000, 1);
    let b = generate(DatasetKind::TpcDs, 2000, 2);
    assert_eq!(a.left.schema.widths(), [14, 11]);
    assert_eq!(a.right.schema.widths(), [14, 11]);
    assert_eq!(
        a.left.schema, b.left.schema,
        "the seed does not move a width"
    );
    // CPDB at its benchmark horizon: officer ids under 400 × 8, dates under 460.
    let cpdb = generate(DatasetKind::Cpdb, 400, 1);
    assert_eq!(cpdb.left.schema.widths(), [12, 9]);
    // The store column holds 8 stores in 3 bits; ×4 adds a key bit a copy.
    let stores = to_store_partitioned(&a, 8, 0.5, 3);
    assert_eq!(stores.left.schema.widths(), [14, 11, 3]);
    let small = generate(DatasetKind::TpcDs, 24, 1);
    assert_eq!(
        key_bits(&scale_dataset(&small, 4.0, 9)),
        key_bits(&small) + 3
    );
}
