//! Fleet SLOs: thousands of hosts behind the `hawkeye-fleet`
//! orchestrator, A/B-testing kernel policies under userspace hooks.
//!
//! Two cohorts run the same diurnal traffic curve, tenant churn, and
//! overcommit storms (DESIGN.md §15): HawkEye-G steered by the
//! `throttle-under-pressure` hook, and Linux-2MB under the hands-off
//! hook as control. The table reports fleet SLOs per cohort — p99 fault
//! latency, aggregate MMU overhead, RSS headroom — plus the tenancy and
//! steering counters that prove the storms and the hook actually fired.
//! Sampled host journals ride into `fleet_slo.trace.json` as the
//! report's own journals.

use crate::{pct, Json, PolicyKind, Report, Row, RunCfg};
use hawkeye_fleet::{run_observed, CohortSpec, FleetConfig, NoopHook, ThrottleUnderPressure};
use hawkeye_kernel::{HugePagePolicy, KernelConfig};
use hawkeye_obs::ObsDoc;
use hawkeye_trace::Journal;

fn hawkeye_policy() -> Box<dyn HugePagePolicy> {
    PolicyKind::HawkEyeG.build()
}

fn hawkeye_config(mib: u64) -> KernelConfig {
    PolicyKind::HawkEyeG.config(mib)
}

fn linux2m_policy() -> Box<dyn HugePagePolicy> {
    PolicyKind::Linux2m.build()
}

fn linux2m_config(mib: u64) -> KernelConfig {
    PolicyKind::Linux2m.config(mib)
}

fn throttle_hook() -> Box<dyn hawkeye_fleet::FleetHook> {
    // Engage just below the orchestrator's cascade threshold so the hook
    // sees pressure building before storms resolve it.
    Box::new(ThrottleUnderPressure::new(0.60, 0.85))
}

fn noop_hook() -> Box<dyn hawkeye_fleet::FleetHook> {
    Box::new(NoopHook)
}

/// The A/B cohorts: HawkEye-G steered by the pressure hook vs Linux-2MB
/// under the hands-off control hook.
pub fn cohorts() -> Vec<CohortSpec> {
    vec![
        CohortSpec {
            name: "HawkEye-G+throttle",
            policy: hawkeye_policy,
            config: hawkeye_config,
            hook: throttle_hook,
        },
        CohortSpec {
            name: "Linux-2MB+noop",
            policy: linux2m_policy,
            config: linux2m_config,
            hook: noop_hook,
        },
    ]
}

/// Runs the fleet at an explicit shape — the determinism test and the CI
/// smoke gate use small fleets; [`report`] uses [`FleetConfig::slo`].
/// Telemetry collection follows the `HAWKEYE_OBS` gate
/// ([`hawkeye_obs::enabled`]); tests pin it through [`report_with_obs`].
pub fn report_with(cfg: &FleetConfig, threads: usize) -> Report {
    report_with_obs(cfg, threads, hawkeye_obs::enabled())
}

/// [`report_with`] with telemetry pinned by `observe`. The sampled
/// hosts' journals (`cfg.journal_hosts` per cohort) always become the
/// report's journals. With `observe` on, the fleet's per-cohort
/// accumulators are finalized into time series, evaluated against the
/// default burn-rate rules, and serialized as the report's
/// `fleet_slo.obs.json` document, and the SLO transitions ride into the
/// trace doc as a synthetic `obs/slo` journal of typed
/// `slo_breach`/`slo_recover` events. When off, nothing here runs and
/// every artifact is bit-identical to the pre-telemetry pipeline.
pub fn report_with_obs(cfg: &FleetConfig, threads: usize, observe: bool) -> Report {
    let mut result = run_observed(cfg, &cohorts(), threads, observe);
    let mut obs_doc = None;
    if let Some(obs) = &result.obs {
        let series = result
            .cohorts
            .iter()
            .zip(obs.iter())
            .map(|(slo, acc)| hawkeye_obs::finalize(&slo.cohort, acc))
            .collect();
        let doc = hawkeye_obs::evaluate("fleet_slo", series, &hawkeye_obs::default_rules());
        let records = hawkeye_obs::slo_trace_records(&doc, cfg.epoch_ms);
        if !records.is_empty() {
            result.journals.push(("obs/slo".to_string(), Journal { records, dropped: 0 }));
        }
        obs_doc = Some(obs_doc_json(&doc).to_string());
    }

    let mut report = Report::new(
        "fleet_slo",
        format!(
            "Fleet SLOs: {} hosts/cohort, {} epochs, userspace hooks steering kernel policy",
            cfg.hosts, cfg.epochs
        ),
        vec![
            "Cohort", "hook", "faults", "p50 us", "p99 us", "MMU ovh", "headroom",
            "migrations", "balloons", "steers",
        ],
    );
    for slo in &result.cohorts {
        let t = &slo.tenancy;
        report.add(
            Row::new(vec![
                slo.cohort.clone(),
                slo.hook.clone(),
                slo.faults.to_string(),
                format!("{:.2}", slo.p50_fault_us),
                format!("{:.2}", slo.p99_fault_us),
                pct(slo.mmu_overhead),
                pct(slo.rss_headroom),
                t.migrations_out.to_string(),
                (t.balloons + t.cascade_balloons).to_string(),
                slo.steer_decisions.to_string(),
            ])
            .with_json(Json::obj(vec![
                ("cohort", Json::str(slo.cohort.clone())),
                ("hook", Json::str(slo.hook.clone())),
                ("hosts", Json::int(slo.hosts as u64)),
                ("faults", Json::int(slo.faults)),
                ("p50_fault_us", Json::num(slo.p50_fault_us)),
                ("p99_fault_us", Json::num(slo.p99_fault_us)),
                ("mmu_overhead", Json::num(slo.mmu_overhead)),
                ("rss_headroom", Json::num(slo.rss_headroom)),
                ("promotions", Json::int(slo.promotions)),
                ("demotions", Json::int(slo.demotions)),
                ("deduped_pages", Json::int(slo.deduped_pages)),
                ("ooms", Json::int(slo.ooms)),
                ("spawned", Json::int(t.spawned)),
                ("finished", Json::int(t.finished)),
                ("balloons", Json::int(t.balloons)),
                ("cascade_balloons", Json::int(t.cascade_balloons)),
                ("migrations_out", Json::int(t.migrations_out)),
                ("migrations_in", Json::int(t.migrations_in)),
                ("steer_decisions", Json::int(slo.steer_decisions)),
            ])),
        );
    }
    report.footer(
        "(fleet serving model, DESIGN.md §15: diurnal churn + overcommit storms;\n\
         the throttle hook pauses khugepaged and presses bloat recovery under\n\
         pressure, the noop cohort is the unsteered control)",
    );
    report.journals = result.journals;
    report.obs_doc = obs_doc;
    report
}

/// The standard `fleet_slo` target: 1024 hosts per cohort. Host journals
/// follow [`FleetConfig::journal_hosts`], so `run.trace` does not apply.
pub fn report(run: RunCfg) -> Report {
    report_with(&FleetConfig::slo(), run.threads)
}

/// Serializes an [`ObsDoc`] with the key order `hawkeye-analyze`'s
/// `parse_obs` mirrors: target, schema_version, rules, cohorts (each
/// cohort: cohort, points, alerts, anomalies).
fn obs_doc_json(doc: &ObsDoc) -> Json {
    let rules = doc
        .rules
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("name", Json::str(r.name.clone())),
                ("series", Json::str(r.series.clone())),
                ("threshold", Json::num(r.threshold)),
                ("fast_window", Json::int(r.fast_window)),
                ("slow_window", Json::int(r.slow_window)),
                ("fast_burn", Json::num(r.fast_burn)),
                ("slow_burn", Json::num(r.slow_burn)),
                ("direction", Json::str(r.direction.clone())),
            ])
        })
        .collect();
    let cohorts = doc
        .cohorts
        .iter()
        .map(|c| {
            let points = c
                .series
                .points
                .iter()
                .map(|p| {
                    Json::obj(vec![
                        ("epoch", Json::int(p.epoch as u64)),
                        ("faults", Json::int(p.faults)),
                        ("p50_us", Json::num(p.p50_us)),
                        ("p90_us", Json::num(p.p90_us)),
                        ("p99_us", Json::num(p.p99_us)),
                        ("p999_us", Json::num(p.p999_us)),
                        ("mmu_overhead", Json::num(p.mmu_overhead)),
                        ("rss_headroom", Json::num(p.rss_headroom)),
                        ("fmfi", Json::num(p.fmfi)),
                    ])
                })
                .collect();
            let alerts = c
                .alerts
                .iter()
                .map(|a| {
                    Json::obj(vec![
                        ("rule", Json::int(a.rule)),
                        ("name", Json::str(a.name.clone())),
                        ("epoch", Json::int(a.epoch as u64)),
                        ("kind", Json::str(a.kind.name())),
                        ("fast", Json::num(a.fast)),
                        ("slow", Json::num(a.slow)),
                    ])
                })
                .collect();
            let anomalies = c
                .anomalies
                .iter()
                .map(|a| {
                    Json::obj(vec![
                        ("series", Json::str(a.series.clone())),
                        ("epoch", Json::int(a.epoch as u64)),
                        ("value", Json::num(a.value)),
                        ("z", Json::num(a.z)),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("cohort", Json::str(c.series.cohort.clone())),
                ("points", Json::Arr(points)),
                ("alerts", Json::Arr(alerts)),
                ("anomalies", Json::Arr(anomalies)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("target", Json::str(doc.target.clone())),
        ("schema_version", Json::int(doc.schema_version)),
        ("rules", Json::Arr(rules)),
        ("cohorts", Json::Arr(cohorts)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_report_owns_doc_and_matches_unobserved_rows() {
        let mut cfg = FleetConfig::sized(8);
        cfg.epochs = 4;
        let plain = report_with_obs(&cfg, 2, false);
        assert!(plain.obs_doc.is_none());
        let observed = report_with_obs(&cfg, 2, true);

        // Zero drift: the report table is bit-identical with obs on.
        assert_eq!(plain.json().to_string(), observed.json().to_string());
        // Host journals are untouched; obs may append one synthetic
        // `obs/slo` journal at the end.
        let n = plain.journals.len();
        assert_eq!(&observed.journals[..n], &plain.journals[..]);
        for (name, _) in &observed.journals[n..] {
            assert_eq!(name, "obs/slo");
        }

        // The doc has both cohorts with one point per epoch.
        let doc = observed.obs_doc.as_deref().expect("observed run carries the obs doc");
        assert!(doc.starts_with(r#"{"target":"fleet_slo","schema_version":"#));
        assert!(doc.contains(r#""cohort":"HawkEye-G+throttle""#));
        assert!(doc.contains(r#""cohort":"Linux-2MB+noop""#));
        assert_eq!(doc.matches(r#"{"epoch":"#).count(), 2 * cfg.epochs as usize);

        // Determinism: 8 workers and a rerun produce the same bytes.
        assert_eq!(report_with_obs(&cfg, 8, true).obs_doc.as_deref(), Some(doc));
    }

    #[test]
    fn small_fleet_report_has_both_cohorts_and_steering() {
        let mut cfg = FleetConfig::sized(8);
        cfg.epochs = 4;
        let r = report_with(&cfg, 2);
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.rows()[0].cells[0], "HawkEye-G+throttle");
        assert_eq!(r.rows()[1].cells[1], "noop");
        let json = r.json().to_string();
        assert!(json.contains("\"p99_fault_us\""));
        assert!(json.contains("\"steer_decisions\""));
        assert_eq!(r.journals.len(), 2 * cfg.journal_hosts);
    }
}
