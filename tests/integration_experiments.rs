//! Scaled-down versions of the paper's headline experiments, asserting the
//! qualitative *shapes* the full benchmark harness regenerates.

use shelfsim::{geomean, stp, CoreConfig, EnergyModel, Simulation};
use shelfsim_bench::{config, figure_runs, mixes, simulate, Scale, FIG10};

/// Geomean over mixes of `design[i] / base[i]`.
fn geomean_ratio(design: &[f64], base: &[f64]) -> f64 {
    geomean(
        &design
            .iter()
            .zip(base)
            .map(|(x, b)| x / b)
            .collect::<Vec<_>>(),
    )
}

#[test]
fn figure1_shape_in_sequence_grows_with_threads() {
    let scale = Scale::tiny();
    let mut fractions = Vec::new();
    for threads in [1usize, 4] {
        let f = if threads == 1 {
            let mut sim =
                Simulation::from_names(CoreConfig::base128(1), &["gcc"], scale.seed).unwrap();
            sim.run(scale.warmup, scale.measure).threads[0].in_sequence_fraction
        } else {
            let mix = &mixes(4, scale)[0];
            let names: Vec<&str> = mix.benchmarks.clone();
            let mut sim =
                Simulation::from_names(CoreConfig::base128(4), &names, scale.seed).unwrap();
            sim.run(scale.warmup, scale.measure)
                .mean_in_sequence_fraction()
        };
        fractions.push(f);
    }
    assert!(
        fractions[1] > fractions[0],
        "in-sequence fraction must grow with threads: 1T {:.2} vs 4T {:.2}",
        fractions[0],
        fractions[1]
    );
    assert!(
        fractions[1] > 0.30,
        "4-thread in-sequence should approach half"
    );
}

#[test]
fn figure2_shape_in_sequence_series_are_short() {
    let scale = Scale::tiny();
    let mut sim = Simulation::from_names(CoreConfig::base128(1), &["bzip2"], scale.seed).unwrap();
    let r = sim.run(scale.warmup, scale.measure);
    let t = &r.threads[0];
    let q_in = t.in_sequence_series.quantile(0.99).unwrap_or(0);
    let max_re = t.reordered_series.max_length().unwrap_or(0);
    assert!(
        q_in <= 64,
        "99% of in-sequence weight in short series, got {q_in}"
    );
    assert!(
        max_re > q_in,
        "reordered series ({max_re}) should run longer than in-sequence ({q_in})"
    );
}

#[test]
fn figure10_shape_shelf_improves_and_base128_bounds() {
    let scale = Scale::tiny();
    // `figure_runs` panics unless every run is `ok`, and the campaign
    // quarantines a run that fails the SSR safety self-check.
    let stps = figure_runs(&["base64", "shelf-opt", "base128"], 4, scale).stp;
    let shelf = geomean_ratio(&stps[1], &stps[0]);
    let big = geomean_ratio(&stps[2], &stps[0]);
    assert!(
        shelf > 1.0,
        "shelf should improve 4-thread STP, got {shelf:.3}"
    );
    assert!(
        big > shelf * 0.95,
        "Base-128 should bound the shelf (shelf {shelf:.3}, big {big:.3})"
    );
}

#[test]
fn figure12_shape_practical_close_to_oracle() {
    let scale = Scale {
        mixes: 1,
        ..Scale::tiny()
    };
    let runs = figure_runs(&["base64", "shelf-opt", "shelf-oracle"], 4, scale);
    let [base, practical, oracle] = [0, 1, 2].map(|d| runs.stp[d][0]);
    // Both must be competitive with the baseline; practical within ~15% of
    // oracle (the paper's gap is a few percent).
    assert!(practical > base * 0.95);
    assert!(oracle > base * 0.95);
    assert!(practical > oracle * 0.85);
    let r = simulate("shelf-opt", &runs.mixes[0].benchmarks, scale);
    let missteer = r.threads.iter().map(|t| t.missteer_rate).sum::<f64>() / 4.0;
    assert!(missteer > 0.0 && missteer < 0.9);
}

#[test]
fn figure13_shape_shelf_wins_edp() {
    let scale = Scale::tiny();
    let edps = figure_runs(&["base64", "shelf-opt"], 4, scale).edp;
    let ratio = geomean_ratio(&edps[1], &edps[0]);
    assert!(ratio < 1.0, "shelf should lower EDP, ratio {ratio:.3}");
}

#[test]
fn table2_shape_area_ordering() {
    let base = EnergyModel::for_config(&config("base64", 4));
    let shelf = EnergyModel::for_config(&config("shelf-opt", 4));
    let big = EnergyModel::for_config(&config("base128", 4));
    for l1 in [false, true] {
        let a0 = base.core_area(l1);
        let ds = shelf.core_area(l1) / a0 - 1.0;
        let db = big.core_area(l1) / a0 - 1.0;
        assert!(ds > 0.0 && ds < 0.06, "shelf area delta {ds:.3}");
        assert!(
            db > 2.0 * ds,
            "doubling should cost much more than the shelf"
        );
    }
}

#[test]
fn stp_metric_consistency() {
    // STP of a mix can never exceed the thread count and, for a working
    // SMT core, should exceed 1 (better than pure time-slicing... at least
    // on a cache-friendly mix).
    let scale = Scale::tiny();
    let cfg = CoreConfig::base64(2);
    let mut pool_st = Vec::new();
    for b in ["hmmer", "h264ref"] {
        let mut sim = Simulation::from_names(CoreConfig::base64(1), &[b], scale.seed).unwrap();
        pool_st.push(sim.run(scale.warmup, scale.measure).threads[0].cpi);
    }
    let mut sim = Simulation::from_names(cfg, &["hmmer", "h264ref"], scale.seed).unwrap();
    let r = sim.run(scale.warmup, scale.measure);
    let v = stp(&pool_st, &r.cpis());
    assert!(v > 0.8 && v <= 2.0 + 1e-9, "2-thread STP out of range: {v}");
}

/// The campaign path scores exactly what a direct run scores: STP against
/// base64's single-thread CPIs and the energy model's EDP.
#[test]
fn figure_runs_match_direct_simulation() {
    let scale = Scale {
        mixes: 1,
        ..Scale::tiny()
    };
    let runs = figure_runs(&FIG10.map(|(d, _)| d), 4, scale);
    let mix = &runs.mixes[0];
    let st: Vec<f64> = mix
        .benchmarks
        .iter()
        .map(|b| simulate("base64", &[b], scale).threads[0].cpi)
        .collect();
    let close = |a: f64, b: f64| (a / b - 1.0).abs() < 1e-5;
    for (d, (design, _)) in FIG10.iter().enumerate() {
        let r = simulate(design, &mix.benchmarks, scale);
        let edp = EnergyModel::for_config(&config(design, 4)).report(&r).edp();
        assert!(close(runs.stp[d][0], stp(&st, &r.cpis())), "{design} STP");
        assert!(close(runs.edp[d][0], edp), "{design} EDP");
    }
}

#[test]
fn figure_runs_name_a_run_that_is_not_ok() {
    let scale = Scale {
        mixes: 1,
        ..Scale::tiny()
    };
    let label = format!("warp-drive {}", mixes(2, scale)[0].label());
    let panic = std::panic::catch_unwind(|| figure_runs(&["warp-drive"], 2, scale))
        .err()
        .expect("an unknown design cannot run");
    let msg = panic.downcast_ref::<String>().expect("formatted message");
    assert!(msg.contains(&label), "{msg}");
    assert!(msg.contains("quarantined"), "{msg}");
}
