//! The scale tier's scenario: the paper's workload at any sensor count.
//!
//! The paper evaluates at 100 sensors; this scenario asks how the engine
//! behaves one to two orders of magnitude beyond that. The workload is
//! held honest across sizes by two deliberate choices:
//!
//! * **Constant density, constant aggregate load.** The area grows as
//!   `150 · sqrt(n/100)` per side (so node density and the zone size stay
//!   at the paper's values) and the per-sensor Poisson generation interval
//!   grows as `120 · n/100` s, keeping the *network-wide* offered load at
//!   the paper's ≈0.83 msg/s. Without the latter, larger runs would just
//!   measure queue-overflow churn.
//! * **Contact-accurate trajectory sampling.** The shortest possible
//!   contact window is `range / v_max = 2 s`, so resolving contact
//!   durations (which drive the paper's delivery-probability dynamics)
//!   needs a mobility tick well below that. The scenario pins
//!   `mobility_tick_secs = 0.025 s` — 80 position samples per minimal
//!   contact window, 0.125 m of movement per step at `v_max` — at which
//!   point discretization error in contact detection is negligible. Under
//!   the default ticked mobility that fidelity makes per-tick mobility the
//!   dominant cost at large n.
//!
//! The benchmark's `scale` workload (`perfbench/README.md`) runs this
//! scenario at 20 000 sensors under OPT; the older scale table in
//! EXPERIMENTS.md was measured on it too.

use dftmsn_core::params::ScenarioParams;

/// The pinned scale scenario for `sensors` nodes (see the module docs for
/// the scaling rationale).
///
/// # Panics
///
/// Panics if the derived scenario fails parameter validation — the
/// scaling rules keep it valid for any `sensors ≥ 1`.
#[must_use]
pub fn scale_scenario(sensors: usize, duration_secs: u64) -> ScenarioParams {
    let side = 150.0 * (sensors as f64 / 100.0).sqrt();
    let zones = (side / 30.0).round().max(1.0) as usize;
    let mut p = ScenarioParams::paper_default();
    p.sensors = sensors;
    p.sinks = (3 * sensors / 100).max(1);
    p.area_width_m = side;
    p.area_height_m = side;
    p.zone_cols = zones;
    p.zone_rows = zones;
    p.data_interval_secs = 120.0 * sensors as f64 / 100.0;
    p.mobility_tick_secs = 0.025;
    p.duration_secs = duration_secs;
    p.validate().expect("scale scenario must be valid");
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_scenarios_preserve_density_and_load() {
        let base = scale_scenario(100, 300);
        assert!((base.area_width_m - 150.0).abs() < 1e-9);
        assert_eq!(base.sinks, 3);
        for n in [200, 1_000, 5_000, 20_000, 50_000, 100_000] {
            let s = scale_scenario(n, 300);
            let density = n as f64 / (s.area_width_m * s.area_height_m);
            let base_density = 100.0 / (150.0 * 150.0);
            assert!(
                (density - base_density).abs() / base_density < 1e-9,
                "density drifted at n={n}"
            );
            // Aggregate offered load n / interval is the paper's constant.
            let load = n as f64 / s.data_interval_secs;
            assert!((load - 100.0 / 120.0).abs() < 1e-9, "load drifted at n={n}");
            // Zones keep the paper's ~30 m side.
            let zone_side = s.area_width_m / s.zone_cols as f64;
            assert!((25.0..=35.0).contains(&zone_side), "zone side {zone_side}");
            assert_eq!(s.sinks, 3 * n / 100);
            assert!((s.mobility_tick_secs - 0.025).abs() < 1e-12);
        }
    }
}
