//! Determinism self-check: two runs of a shortened variant of each
//! workload with the same seed report identical counts and quality, and
//! pass every output check.

use dhf_perfbench::load::{self, LoadOptions, LoadReport};
use dhf_perfbench::replay;
use dhf_perfbench::workload::{Plan, Workload};

fn shortened(w: Workload) -> (Plan, f64) {
    let plan = w.plan();
    match w {
        // 2 sessions × 10 s at 5× real time: the warm-up chunk plus two.
        Workload::OximetryFastCold => {
            (Plan { sessions: 2, speedup: 5.0, setup_reps: 1, ..plan }, 10.0)
        }
        // 8 sessions over 2 recordings, 4 s at 50×: eight chunks each.
        Workload::ServeInterpFleet => {
            (Plan { sessions: 8, pool: 2, speedup: 50.0, setup_reps: 1, ..plan }, 4.0)
        }
    }
}

fn run(w: Workload, seed: u64) -> LoadReport {
    let (plan, seconds) = shortened(w);
    let report = load::run(&LoadOptions { workload: w, plan, seed, seconds, traced: false });
    assert!(report.check_failures.is_empty(), "{}: {:?}", w.name(), report.check_failures);
    report
}

#[test]
fn same_seed_same_counts_and_quality() {
    for w in Workload::ALL {
        let (a, b) = (run(w, 5), run(w, 5));
        let key = |r: &LoadReport| {
            (
                r.warm_hits,
                r.cold_fits,
                r.plans_built,
                r.signal_s.to_bits(),
                r.spo2_windows,
                r.si_sdr_db.map(f64::to_bits),
                r.spo2_mae.map(f64::to_bits),
            )
        };
        assert_eq!(key(&a), key(&b), "{}", w.name());
        assert!(a.signal_s > 0.0, "{}: the window separated something", w.name());
        match w {
            Workload::OximetryFastCold => {
                assert!(a.spo2_mae.is_some() && a.cold_fits > 0);
                assert_eq!(a.warm_hits, 0, "the oximetry workload is explicitly cold");
            }
            Workload::ServeInterpFleet => {
                assert!(a.si_sdr_db.is_some());
                assert_eq!(a.warm_hits + a.cold_fits, 0, "no deep-prior fits");
            }
        }
    }
}

#[test]
fn same_seed_same_replay_counts() {
    const EXACT: [&str; 5] = [
        "tensor.harmonic_conv.macs_per_iter",
        "tensor.paper_geometry.harmonic_conv.macs_per_iter",
        "nn.fit_iterations.mean",
        "nn.final_loss.mean",
        "core.hidden_fraction.mean",
    ];
    for w in Workload::ALL {
        let (plan, seconds) = shortened(w);
        let exact = |m: Vec<replay::Metric>| -> Vec<(String, u64)> {
            m.into_iter()
                .filter(|(name, _, _)| EXACT.contains(&name.as_str()))
                .map(|(name, v, _)| (name, v.to_bits()))
                .collect()
        };
        let a = exact(replay::run(w, &plan, 9, seconds));
        let b = exact(replay::run(w, &plan, 9, seconds));
        assert_eq!(a.len(), EXACT.len(), "{}: {a:?}", w.name());
        assert_eq!(a, b, "{}", w.name());
    }
}
