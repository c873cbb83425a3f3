//! Property-based tests for the subspace method.

use entromine_linalg::Mat;
use entromine_subspace::{
    q_statistic_threshold, DimSelection, FitStrategy, MultiwayModel, SubspaceModel, ThresholdPolicy,
};
use proptest::prelude::*;

/// Strategy: a low-rank-plus-noise data matrix (t x n), the structure the
/// subspace method is built for.
fn traffic_like(t: usize, n: usize) -> impl Strategy<Value = Mat> {
    (
        proptest::collection::vec(0.5f64..3.0, n),
        proptest::collection::vec(-0.05f64..0.05, t * n),
        0.0f64..std::f64::consts::TAU,
    )
        .prop_map(move |(gains, noise, phase)| {
            Mat::from_fn(t, n, |i, j| {
                let s = ((i as f64 / 24.0) * std::f64::consts::TAU + phase).sin();
                gains[j] * (2.0 + s) + noise[i * n + j]
            })
        })
}

/// `x`'s rows, then one copy of a row per spike with `bump` added to one
/// column, so the probes straddle every threshold.
fn with_spikes(x: &Mat, spikes: &[(usize, usize, f64)]) -> Vec<Vec<f64>> {
    let mut rows: Vec<Vec<f64>> = x.row_iter().map(<[f64]>::to_vec).collect();
    for &(bin, col, bump) in spikes {
        let mut row = x.row(bin % x.rows()).to_vec();
        row[col % x.cols()] += bump;
        rows.push(row);
    }
    rows
}

/// Every statistic `model` serves for `rows`, given in the caller's units,
/// as `(entry point, values, is T²)`.
fn served(model: &SubspaceModel, rows: &[Vec<f64>]) -> Vec<(&'static str, Vec<f64>, bool)> {
    let rows = || rows.iter().map(Vec::as_slice);
    let (mut batch, mut pairs) = (Vec::new(), Vec::new());
    model.spe_batch(rows(), &mut batch).unwrap();
    model.spe_t2_batch(rows(), &mut pairs).unwrap();
    let spe = rows().map(|r| model.spe(r).unwrap()).collect();
    vec![
        ("spe", spe, false),
        ("spe_batch", batch, false),
        ("spe_t2_batch.0", pairs.iter().map(|p| p.0).collect(), false),
        ("spe_t2_batch.1", pairs.iter().map(|p| p.1).collect(), true),
    ]
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Within the pin `score_equivalence` uses: 1e-10 relative plus 1e-13 of
/// `scale`, the centered energy `‖x − μ‖²` in the statistic's units.
fn close(got: f64, want: f64, scale: f64) -> bool {
    (got - want).abs() <= 1e-10 * want.abs() + 1e-13 * scale
}

/// Pins what `model` serves for the probe rows `raw` (caller's units) to
/// the reference chain of its PCA over the same rows in the fitted units,
/// `rows`: `spe_reference` for SPE, `project` for T², and `Pca::residual`
/// bit for bit for [`SubspaceModel::residual`]. Pins the sorted
/// calibration to the sorted reference SPEs of the leading training rows
/// (sorting is monotone, so the largest floor carries over). Returns every
/// probe's reference SPE.
fn check_served(
    what: &str,
    model: &SubspaceModel,
    raw: &[Vec<f64>],
    rows: &[Vec<f64>],
) -> Result<Vec<f64>, String> {
    let (pca, m) = (model.pca(), model.normal_dim());
    let (served, calibration) = (served(model, raw), model.calibration());
    // Axes at or below the T² floor contribute nothing (1/∞ = 0).
    let floor = 1e-12 * pca.total_variance().max(1e-300);
    let lambdas: Vec<f64> = pca.eigenvalues()[..m]
        .iter()
        .map(|&l| if l > floor { l } else { f64::INFINITY })
        .collect();
    let smallest = lambdas.iter().copied().fold(f64::INFINITY, f64::min);
    let (mut spes, mut c2_max) = (Vec::new(), 0.0f64);
    for (i, row) in rows.iter().enumerate() {
        let spe = pca.spe_reference(row, m).unwrap();
        // The centered energy `‖x − μ‖²` is the SPE of an empty subspace.
        let c2 = pca.spe_reference(row, 0).unwrap();
        let scores = pca.project(row, m).unwrap();
        let t2: f64 = scores.iter().zip(&lambdas).map(|(s, l)| s * s / l).sum();
        let (got, want) = (
            model.residual(&raw[i]).unwrap(),
            pca.residual(row, m).unwrap(),
        );
        prop_assert!(bits(&got) == bits(&want), "{what} residual row {i}");
        for (entry, values, is_t2) in &served {
            let (got, want) = (values[i], if *is_t2 { t2 } else { spe });
            let scale = c2 / if *is_t2 { smallest } else { 1.0 };
            prop_assert!(
                close(got, want, scale),
                "{what} {entry} row {i}: {got} vs {want}"
            );
        }
        spes.push(spe);
        c2_max = c2_max.max(c2);
    }
    let mut sorted = spes[..calibration.len()].to_vec();
    sorted.sort_by(f64::total_cmp);
    for (k, (&got, &want)) in calibration.iter().zip(&sorted).enumerate() {
        prop_assert!(
            close(got, want, c2_max),
            "{what} calibration[{k}]: {got} vs {want}"
        );
    }
    Ok(spes)
}

/// Under both threshold policies at 0.99, the alarm flags of `model` over
/// the probe rows `raw` — `spe > threshold_with`, and `detect` for the
/// Jackson–Mudholkar policy it applies — equal `reference SPE > t`
/// outside a 1e-9 relative band around the threshold `t`, and the probes
/// alarm on some rows but not all.
fn check_alarms(
    what: &str,
    model: &SubspaceModel,
    raw: &[Vec<f64>],
    spes: &[f64],
) -> Result<(), String> {
    let raw_mat = Mat::from_fn(raw.len(), raw[0].len(), |i, j| raw[i][j]);
    for policy in [
        ThresholdPolicy::JacksonMudholkar,
        ThresholdPolicy::Empirical,
    ] {
        let t = model.threshold_with(0.99, policy).unwrap();
        let served = raw.iter().map(|r| model.spe(r).unwrap() > t).collect();
        let mut flags = vec![("spe", served)];
        if policy == ThresholdPolicy::JacksonMudholkar {
            let mut hit = vec![false; raw.len()];
            model
                .detect(&raw_mat, 0.99)
                .unwrap()
                .iter()
                .for_each(|d| hit[d.bin] = true);
            flags.push(("detect", hit));
        }
        let alarms = spes.iter().filter(|&&s| s > t).count();
        prop_assert!(
            alarms > 0 && alarms < spes.len(),
            "{what} {policy:?}: {alarms} probes alarm"
        );
        for (i, &spe) in spes.iter().enumerate() {
            if (spe - t).abs() > 1e-9 * t {
                for (entry, flag) in &flags {
                    let want = spe > t;
                    prop_assert!(
                        flag[i] == want,
                        "{what} {policy:?} {entry} row {i}: {spe} vs {t}"
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn served_statistics_and_alarms_match_the_reference_chain(
        x in traffic_like(60, 8),
        entropy in traffic_like(60, 16),
        spikes in proptest::collection::vec((0usize..60, 0usize..16, -1.0f64..1.0), 6),
    ) {
        let dim = DimSelection::Fixed(2);
        let model = SubspaceModel::fit(&x, dim).unwrap();
        let probes = with_spikes(&x, &spikes);
        let spes = check_served("single", &model, &probes, &probes)?;
        prop_assert_eq!(model.calibration().len(), x.rows());
        check_alarms("single", &model, &probes, &spes)?;

        // The entropy detector takes raw rows; its reference chain reads
        // them divided by the unit-energy divisors.
        let multi = MultiwayModel::fit_unfolded(entropy.clone(), dim, FitStrategy::Auto).unwrap();
        let (model, p) = (multi.inner(), multi.n_flows());
        let raw = with_spikes(&entropy, &spikes);
        let divisors = multi.divisors();
        let rows: Vec<Vec<f64>> = raw
            .iter()
            .map(|r| r.iter().enumerate().map(|(i, v)| v / divisors[i / p]).collect())
            .collect();
        let spes = check_served("multi", model, &raw, &rows)?;
        prop_assert_eq!(model.calibration().len(), entropy.rows());
        check_alarms("multi", model, &raw, &spes)?;
    }

    #[test]
    fn spe_nonnegative_everywhere(x in traffic_like(60, 8)) {
        let model = SubspaceModel::fit(&x, DimSelection::Fixed(2)).unwrap();
        for row in x.row_iter() {
            prop_assert!(model.spe(row).unwrap() >= 0.0);
        }
    }

    #[test]
    fn residual_orthogonal_to_normal_subspace(x in traffic_like(60, 8), row in 0usize..60) {
        let model = SubspaceModel::fit(&x, DimSelection::Fixed(2)).unwrap();
        let r = model.residual(x.row(row)).unwrap();
        // Project the residual back onto each normal axis: must be ~0.
        let comp = model.pca().components();
        for j in 0..model.normal_dim() {
            let dot: f64 = (0..8).map(|i| r[i] * comp[(i, j)]).sum();
            prop_assert!(dot.abs() < 1e-8, "axis {} leak: {}", j, dot);
        }
    }

    #[test]
    fn threshold_monotone_in_alpha(x in traffic_like(50, 6)) {
        let model = SubspaceModel::fit(&x, DimSelection::Fixed(2)).unwrap();
        let t1 = model.threshold(0.95).unwrap();
        let t2 = model.threshold(0.99).unwrap();
        let t3 = model.threshold(0.999).unwrap();
        prop_assert!(t1 <= t2 + 1e-15);
        prop_assert!(t2 <= t3 + 1e-15);
    }

    #[test]
    fn detections_shrink_with_alpha(x in traffic_like(80, 6)) {
        let model = SubspaceModel::fit(&x, DimSelection::Fixed(2)).unwrap();
        let lo = model.detect(&x, 0.99).unwrap().len();
        let hi = model.detect(&x, 0.9999).unwrap().len();
        prop_assert!(hi <= lo);
    }

    #[test]
    fn larger_subspace_never_raises_spe(x in traffic_like(60, 8), row in 0usize..60) {
        let m2 = SubspaceModel::fit(&x, DimSelection::Fixed(2)).unwrap();
        let m5 = SubspaceModel::fit(&x, DimSelection::Fixed(5)).unwrap();
        let spe2 = m2.spe(x.row(row)).unwrap();
        let spe5 = m5.spe(x.row(row)).unwrap();
        prop_assert!(spe5 <= spe2 + 1e-12);
    }

    #[test]
    fn qstat_scale_equivariance(scale in 0.1f64..100.0) {
        // Scaling the covariance spectrum by c scales δ² by c.
        let eigs = [10.0, 4.0, 1.0, 0.5, 0.25, 0.1];
        let scaled: Vec<f64> = eigs.iter().map(|&l| l * scale).collect();
        let base = q_statistic_threshold(&eigs, 2, 0.999).unwrap();
        let big = q_statistic_threshold(&scaled, 2, 0.999).unwrap();
        prop_assert!((big / base - scale).abs() < 1e-9 * scale.max(1.0));
    }

    #[test]
    fn t2_nonnegative_and_detects_score_outliers(x in traffic_like(60, 8)) {
        let model = SubspaceModel::fit(&x, DimSelection::Fixed(2)).unwrap();
        let mut pairs = Vec::new();
        model.spe_t2_batch(x.row_iter(), &mut pairs).unwrap();
        for &(_, t2) in &pairs {
            prop_assert!(t2 >= 0.0);
        }
        // An observation far along the FIRST principal axis has huge T2
        // but modest SPE.
        let comp = model.pca().components();
        let spread = model.pca().eigenvalues()[0].sqrt().max(1e-6);
        let mut extreme: Vec<f64> = model.pca().mean().to_vec();
        for i in 0..8 {
            extreme[i] += 50.0 * spread * comp[(i, 0)];
        }
        model.spe_t2_batch([extreme.as_slice()], &mut pairs).unwrap();
        let t2 = pairs[0].1;
        prop_assert!(t2 > model.t2_threshold(0.999), "t2 {} too small", t2);
    }
}
