//! E5 — Section 6.4: the CTR comparison.
//!
//! Runs the month-long replacement experiment and reports what the paper
//! reports: CTR of eavesdropper-selected ads vs ads served by the
//! ad-network mix, the replaced-impression counts, and the paired
//! two-tailed t-test over per-user CTRs. Paper numbers: 0.217 % vs
//! 0.168 %, 41 K of 270 K impressions replaced, p ≈ 0.113 (not
//! significant).

use hostprof::scenario::Scenario;
use hostprof_ads::{CtrExperiment, ExperimentConfig};
use hostprof_bench::{header, row, write_results, Scale};
use hostprof_stats::{bootstrap_paired_diff_ci, paired_t_test, two_proportion_z_test};
use serde::Serialize;

#[derive(Serialize)]
struct CtrResults {
    scale: String,
    impressions: u64,
    replaced: u64,
    replaced_fraction: f64,
    reports: u64,
    profiles: u64,
    eaves_ctr_pct: f64,
    orig_ctr_pct: f64,
    paired_users: usize,
    t_statistic: Option<f64>,
    p_value: Option<f64>,
    significant_at_5pct: Option<bool>,
    z_test_p: Option<f64>,
}

fn main() {
    let scale = Scale::from_env();
    let s = Scenario::generate(&scale.scenario());
    let config = ExperimentConfig {
        pipeline: s.config.pipeline.clone(),
        ..ExperimentConfig::default()
    };
    let result = CtrExperiment::new(&s.world, &s.population, &s.trace, &s.ads, config).run();

    header(&format!(
        "Section 6.4 — CTR experiment (scale: {})",
        scale.label()
    ));
    row("ad impressions", result.impressions);
    row(
        "replaced by extension",
        format!(
            "{} ({:.1}%)",
            result.replaced,
            result.replaced_fraction() * 100.0
        ),
    );
    row("extension reports", result.reports);
    row("sessions profiled", result.profiles);
    row("models trained (days)", result.models_trained);

    let eaves = result.eaves_ctr() * 100.0;
    let orig = result.orig_ctr() * 100.0;
    println!();
    row("CTR — Eavesdropper ads", format!("{eaves:.3}%"));
    row("CTR — Original (ad-network) ads", format!("{orig:.3}%"));
    row("paper", "0.217%  vs  0.168%");

    let (a, b) = result.ctr_pairs();
    let test = paired_t_test(&a, &b);
    println!();
    row("paired users (saw both ad kinds)", a.len());
    match &test {
        Some(t) => {
            row("paired t-test t", format!("{:.3}", t.t));
            row("paired t-test p (two-tailed)", format!("{:.4}", t.p));
            row(
                "significant at p < .05?",
                if t.significant(0.05) { "YES" } else { "no" },
            );
            row("paper", "p = .11333 → not significant");
        }
        None => row("paired t-test", "undefined (degenerate sample)"),
    }

    // Complementary check: pooled clicks as binomial proportions.
    let (ei, ec, oi, oc) = result.per_user.iter().fold((0u64, 0, 0, 0), |acc, u| {
        (
            acc.0 + u.eaves_impressions,
            acc.1 + u.eaves_clicks,
            acc.2 + u.orig_impressions,
            acc.3 + u.orig_clicks,
        )
    });
    if let Some(z) = two_proportion_z_test(ec, ei, oc, oi) {
        row(
            "two-proportion z-test",
            format!("z = {:.3}, p = {:.4}", z.z, z.p),
        );
    }
    if let Some(ci) = bootstrap_paired_diff_ci(&a, &b, 0.95, 5000, 0x5e_edc1) {
        row(
            "CTR diff 95% bootstrap CI (pp)",
            format!(
                "[{:+.3}, {:+.3}] around {:+.3}{}",
                ci.lo * 100.0,
                ci.hi * 100.0,
                ci.point * 100.0,
                if ci.excludes_zero() {
                    ""
                } else {
                    " (contains 0)"
                }
            ),
        );
    }

    // The paper's three claims, evaluated on this run's numbers.
    let verdict = |ok: bool| if ok { "ok" } else { "DEVIATES" };
    let in_band = |pct: f64| (0.07..=0.84).contains(&pct);
    println!("\n  shape check:");
    row(
        "eavesdropper CTR ≥ ad-network CTR",
        format!("{} ({eaves:.3}% vs {orig:.3}%)", verdict(eaves >= orig)),
    );
    row(
        "both in the 0.07–0.84% industry band",
        format!(
            "{} ({eaves:.3}%, {orig:.3}%)",
            verdict(in_band(eaves) && in_band(orig))
        ),
    );
    row(
        "difference NOT significant at p < .05",
        match &test {
            Some(t) => format!("{} (p = {:.4})", verdict(!t.significant(0.05)), t.p),
            None => "undefined (degenerate sample)".to_string(),
        },
    );

    write_results(
        "ctr_experiment",
        &CtrResults {
            scale: scale.label().to_string(),
            impressions: result.impressions,
            replaced: result.replaced,
            replaced_fraction: result.replaced_fraction(),
            reports: result.reports,
            profiles: result.profiles,
            eaves_ctr_pct: eaves,
            orig_ctr_pct: orig,
            paired_users: a.len(),
            t_statistic: test.map(|t| t.t),
            p_value: test.map(|t| t.p),
            significant_at_5pct: test.map(|t| t.significant(0.05)),
            z_test_p: two_proportion_z_test(ec, ei, oc, oi).map(|z| z.p),
        },
    );
}
