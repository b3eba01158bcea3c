//! Contention analysis and optimization (paper Secs. 4.2–4.3, Eqs. 9–14).
//!
//! **RTS phase** (Sec. 4.2): each contender *i* listens for a period drawn
//! uniformly from `{1, …, σᵢ}` slots with `σᵢ = ξᵢ·τ_max` (Eq. 9) — nodes
//! with *lower* delivery probability pick shorter listening periods and so
//! win the channel more often, which is desirable because they are the
//! ones needing receivers. Eqs. 10–12 give the channel-grab and collision
//! probabilities in an isolated cell; Eq. 13 picks the smallest `τ_max`
//! keeping collisions under a target.
//!
//! **CTS phase** (Sec. 4.3): qualified receivers answer in a uniformly
//! random slot of a window of `W` slots; Eq. 14 gives the probability that
//! any two pick the same slot, and a linear search picks the smallest `W`
//! meeting a target.

/// σᵢ of Eq. 9: the upper bound of node *i*'s uniformly random listening
/// period, in slots. Clamped to at least one slot.
///
/// # Panics
///
/// Panics if `xi` is outside `[0, 1]` or `tau_max_slots` is zero.
#[must_use]
pub fn sigma(xi: f64, tau_max_slots: u64) -> u64 {
    assert!(
        xi.is_finite() && (0.0..=1.0).contains(&xi),
        "ξ {xi} outside [0,1]"
    );
    assert!(tau_max_slots > 0, "τ_max must be positive");
    ((xi * tau_max_slots as f64).round() as u64).max(1)
}

/// P(node `i` grabs the channel) per Eqs. 10–11, given every contender's σ.
///
/// Node *i* wins when its drawn listening period is strictly shorter than
/// everyone else's:
/// `Pᵢ = Σ_{τ=1}^{σᵢ} (1/σᵢ)·∏_{j≠i} θᵢⱼ/σⱼ`, with
/// `θᵢⱼ = σⱼ − τ` when `σⱼ > τ` and 0 otherwise.
///
/// # Panics
///
/// Panics if `i` is out of range or any σ is zero.
#[must_use]
pub fn grab_probability(sigmas: &[u64], i: usize) -> f64 {
    assert!(i < sigmas.len(), "contender index out of range");
    assert!(sigmas.iter().all(|&s| s > 0), "σ must be positive");
    let sigma_i = sigmas[i];
    // From τ = min_{j≠i} σⱼ on, some θᵢⱼ is zero and the term is exactly
    // +0.0, so stopping before it leaves `p` unchanged bit for bit.
    let rival_min = (0..sigmas.len())
        .filter(|&j| j != i)
        .map(|j| sigmas[j])
        .min();
    let last = rival_min.map_or(sigma_i, |m| sigma_i.min(m - 1));
    let mut p = 0.0;
    for tau in 1..=last {
        let mut others = 1.0;
        for (j, &sigma_j) in sigmas.iter().enumerate() {
            if j != i {
                others *= (sigma_j - tau) as f64 / sigma_j as f64;
            }
        }
        p += others / sigma_i as f64;
    }
    p
}

/// γ of Eq. 12: the probability that *no* contender cleanly grabs the
/// channel (a preamble collision), `γ = 1 − Σᵢ Pᵢ`.
///
/// With a single contender this is 0.
#[must_use]
pub fn rts_collision_probability(sigmas: &[u64]) -> f64 {
    if sigmas.len() <= 1 {
        // A lone contender (or an empty cell) cannot collide.
        return 0.0;
    }
    let total: f64 = (0..sigmas.len()).map(|i| grab_probability(sigmas, i)).sum();
    (1.0 - total).clamp(0.0, 1.0)
}

/// Eq. 13: the smallest `τ_max ≤ cap` whose collision probability (Eq. 12)
/// over contenders with the given delivery probabilities is at most
/// `target`. Returns `cap` when even the cap misses the target.
///
/// The scan runs from `τ_max = 1` up and decides each candidate exactly as
/// `rts_collision_probability(σ) <= target` would: an O(n·σ_min)
/// evaluation of γ settles it when it lies more than a certified margin
/// from the target, and the reference decides otherwise. DESIGN.md § 6
/// gives the identity and the rounding bound behind the margin.
///
/// # Panics
///
/// Panics if `cap` is zero or `target` is outside `[0, 1]`.
#[must_use]
pub fn optimize_tau_max(xis: &[f64], target: f64, cap: u64) -> u64 {
    assert!(cap > 0, "τ_max cap must be positive");
    assert!(
        (0.0..=1.0).contains(&target),
        "target {target} outside [0,1]"
    );
    let mut search = TauSearch {
        sigmas: Vec::with_capacity(xis.len()),
    };
    for tau_max in 1..=cap {
        search.load(xis, tau_max);
        if search.feasible(target) {
            return tau_max;
        }
    }
    cap
}

/// Distance from the target within which the fast γ does not decide Eq. 13
/// feasibility and the reference [`rts_collision_probability`] does.
const CERTIFIED_MARGIN: f64 = 1e-9;

/// Largest σ for which every `σⱼ − τ` converts to `f64` exactly.
const EXACT_SIGMA: u64 = 1 << 53;

/// τ values the fast γ evaluates per block.
const TAU_BLOCK: usize = 32;

/// Working memory of one Eq. 13 search: the σ vector of the current τ_max,
/// reused for every τ_max of the scan.
#[derive(Debug)]
struct TauSearch {
    sigmas: Vec<u64>,
}

impl TauSearch {
    /// Loads σ (Eq. 9) of every contender at `tau_max`.
    fn load(&mut self, xis: &[f64], tau_max: u64) {
        self.sigmas.clear();
        self.sigmas.extend(xis.iter().map(|&xi| sigma(xi, tau_max)));
    }

    /// `rts_collision_probability(σ) <= target`, bit for bit.
    fn feasible(&self, target: f64) -> bool {
        self.fast_verdict(target)
            .unwrap_or_else(|| rts_collision_probability(&self.sigmas) <= target)
    }

    /// The verdict of the fast γ, or `None` when it is within the
    /// certified margin of `target` (or not certified at all).
    fn fast_verdict(&self, target: f64) -> Option<bool> {
        let gamma = self.fast_gamma()?;
        if gamma > target + CERTIFIED_MARGIN {
            Some(false)
        } else if gamma < target - CERTIFIED_MARGIN {
            Some(true)
        } else {
            None
        }
    }

    /// γ of Eq. 12 over the loaded σ in O(n·m₁), m₁ = min σ, or `None`
    /// when the rounding bound is not certified below half the margin.
    ///
    /// With Q(τ) = ∏ⱼ (σⱼ − τ)/σⱼ, the τ-th term of Σᵢ Pᵢ (Eqs. 10–11) is
    /// Q(τ)·Σᵢ 1/(σᵢ − τ) for τ < m₁. At τ = m₁ only a unique minimum `a`
    /// can win, with (1/m₁)·∏_{j≠a} (σⱼ − m₁)/σⱼ; beyond m₁ every term is
    /// 0.
    ///
    /// Rounding (u = 2⁻⁵³, γₖ = ku/(1 − ku), all terms non-negative and
    /// the true Σᵢ Pᵢ ≤ 1): each τ-term here carries at most 4n roundings
    /// (2 per factor of Q, n − 1 products, n in Σ 1/(σᵢ − τ), 1 for the
    /// product), and m₁ − 1 more come from summing the at most m₁ terms,
    /// so |γ_fast − γ| ≤ γ_{4n+m₁−1} + u. The reference adds at most m₁
    /// non-zero terms of 2n − 2 roundings each per Pᵢ and sums n of them:
    /// |γ_ref − γ| ≤ γ_{3n+m₁−4} + u. Hence
    /// |γ_fast − γ_ref| ≤ γ_{7n+2m₁−3}, about 1.6·10⁻¹⁴ at n = 12 and
    /// m₁ = 32. Gradual underflow adds at most 2⁻¹⁰⁷⁵ per product or
    /// quotient, scaled by at most n: below 10⁻³⁰⁰ for any certified n and
    /// m₁. The bound is required to be at most half the margin, which also
    /// absorbs the rounding of `target ± margin`, so a fast verdict always
    /// agrees with the reference's. σ above 2⁵³ is never certified, so
    /// every σⱼ − τ is exact.
    fn fast_gamma(&self) -> Option<f64> {
        let n = self.sigmas.len();
        if n <= 1 {
            return Some(0.0);
        }
        let (mut m1, mut argmin, mut unique, mut max) = (u64::MAX, 0, false, 0);
        for (j, &s) in self.sigmas.iter().enumerate() {
            if s < m1 {
                (m1, argmin, unique) = (s, j, true);
            } else if s == m1 {
                unique = false;
            }
            max = max.max(s);
        }
        if max > EXACT_SIGMA {
            return None;
        }
        let ku = (7 * n as u64 + 2 * m1 - 3) as f64 * f64::EPSILON / 2.0;
        if ku / (1.0 - ku) > CERTIFIED_MARGIN / 2.0 {
            return None;
        }
        let mut total = 0.0;
        // τ runs over 1..m₁ in blocks, σ in the outer loop: the per-τ
        // products and sums are independent, so the inner loop pipelines.
        let mut tau0 = 1;
        while tau0 < m1 {
            let len = (m1 - tau0).min(TAU_BLOCK as u64) as usize;
            let mut taus = [0.0; TAU_BLOCK];
            for (k, t) in taus[..len].iter_mut().enumerate() {
                *t = (tau0 + k as u64) as f64;
            }
            let mut q = [1.0; TAU_BLOCK];
            let mut inv_sum = [0.0; TAU_BLOCK];
            for &s in &self.sigmas {
                let (s, r) = (s as f64, 1.0 / s as f64);
                for k in 0..len {
                    let d = s - taus[k];
                    q[k] *= d * r;
                    inv_sum[k] += 1.0 / d;
                }
            }
            for k in 0..len {
                total += q[k] * inv_sum[k];
            }
            tau0 += len as u64;
        }
        if unique {
            let mut q = 1.0 / m1 as f64;
            for (j, &s) in self.sigmas.iter().enumerate() {
                if j != argmin {
                    q *= (s - m1) as f64 * (1.0 / s as f64);
                }
            }
            total += q;
        }
        Some(1.0 - total)
    }
}

/// γₒ of Eq. 14: the probability that `n` repliers choosing uniformly
/// random slots of a `w`-slot contention window do **not** all land in
/// distinct slots: `γₒ = 1 − (w choose n)·n!/wⁿ = 1 − ∏ₖ (w − k)/w`.
///
/// Returns 0 for `n ≤ 1` and 1 when `n > w` (pigeonhole).
///
/// # Panics
///
/// Panics if `w` is zero.
#[must_use]
pub fn cts_collision_probability(n: u64, w: u64) -> f64 {
    assert!(w > 0, "window must be positive");
    if n <= 1 {
        return 0.0;
    }
    if n > w {
        return 1.0;
    }
    let mut all_distinct = 1.0;
    for k in 0..n {
        all_distinct *= (w - k) as f64 / w as f64;
    }
    (1.0 - all_distinct).clamp(0.0, 1.0)
}

/// Sec. 4.3's linear search: the smallest window `w ≤ cap` whose Eq. 14
/// collision probability for `n` expected repliers is at most `target`.
/// Returns `cap` when unreachable.
///
/// # Panics
///
/// Panics if `cap` is zero or `target` is outside `[0, 1]`.
#[must_use]
pub fn optimize_cts_window(n: u64, target: f64, cap: u64) -> u64 {
    assert!(cap > 0, "window cap must be positive");
    assert!(
        (0.0..=1.0).contains(&target),
        "target {target} outside [0,1]"
    );
    for w in 1..=cap {
        if cts_collision_probability(n, w) <= target {
            return w;
        }
    }
    cap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_scales_with_xi_and_floors_at_one() {
        assert_eq!(sigma(0.0, 10), 1);
        assert_eq!(sigma(0.5, 10), 5);
        assert_eq!(sigma(1.0, 10), 10);
        assert_eq!(sigma(0.04, 10), 1);
    }

    #[test]
    fn lone_contender_always_grabs() {
        assert!((grab_probability(&[7], 0) - 1.0).abs() < 1e-12);
        assert_eq!(rts_collision_probability(&[7]), 0.0);
    }

    #[test]
    fn two_equal_contenders_tie_with_known_probability() {
        // Both uniform on {1,…,σ}: collision iff equal draws → 1/σ.
        for s in [2u64, 4, 10] {
            let gamma = rts_collision_probability(&[s, s]);
            assert!((gamma - 1.0 / s as f64).abs() < 1e-12, "σ={s} γ={gamma}");
        }
    }

    #[test]
    fn sigma_one_pair_always_collides() {
        // Both forced to slot 1.
        assert!((rts_collision_probability(&[1, 1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lower_xi_grabs_more_often() {
        // σ from ξ = 0.2 vs 0.9 at τ_max = 20 → 4 vs 18.
        let sigmas = [sigma(0.2, 20), sigma(0.9, 20)];
        let p_low = grab_probability(&sigmas, 0);
        let p_high = grab_probability(&sigmas, 1);
        assert!(
            p_low > 2.0 * p_high,
            "low-ξ node should dominate: {p_low} vs {p_high}"
        );
    }

    #[test]
    fn grab_probability_matches_monte_carlo() {
        use dftmsn_sim::rng::SimRng;
        let sigmas = [3u64, 5, 8];
        let mut rng = SimRng::seed_from(42);
        let trials = 200_000;
        let mut wins = [0u64; 3];
        for _ in 0..trials {
            let draws: Vec<u64> = sigmas
                .iter()
                .map(|&s| rng.gen_range_inclusive(1, s))
                .collect();
            let min = *draws.iter().min().unwrap();
            let winners: Vec<usize> = (0..3).filter(|&i| draws[i] == min).collect();
            if winners.len() == 1 {
                wins[winners[0]] += 1;
            }
        }
        for (i, &won) in wins.iter().enumerate() {
            let analytic = grab_probability(&sigmas, i);
            let empirical = won as f64 / trials as f64;
            assert!(
                (analytic - empirical).abs() < 0.005,
                "node {i}: analytic {analytic} vs empirical {empirical}"
            );
        }
    }

    #[test]
    fn rts_collision_decreases_with_tau_max() {
        let xis = [0.3, 0.5, 0.7, 0.2];
        let mut prev = 1.0;
        for tau_max in [2u64, 4, 8, 16, 32] {
            let sigmas: Vec<u64> = xis.iter().map(|&x| sigma(x, tau_max)).collect();
            let gamma = rts_collision_probability(&sigmas);
            assert!(gamma <= prev + 1e-9, "γ rose at τ_max={tau_max}");
            prev = gamma;
        }
    }

    #[test]
    fn optimize_tau_max_is_minimal_and_feasible() {
        let xis = [0.3, 0.5, 0.7];
        let target = 0.1;
        let best = optimize_tau_max(&xis, target, 64);
        let gamma_at = |t: u64| {
            let s: Vec<u64> = xis.iter().map(|&x| sigma(x, t)).collect();
            rts_collision_probability(&s)
        };
        assert!(gamma_at(best) <= target, "infeasible τ_max");
        if best > 1 {
            assert!(gamma_at(best - 1) > target, "not minimal");
        }
    }

    #[test]
    fn optimize_tau_max_returns_cap_when_impossible() {
        // Two ξ=0 contenders always collide (σ=1 each) regardless of τ_max.
        assert_eq!(optimize_tau_max(&[0.0, 0.0], 0.1, 16), 16);
    }

    /// `grab_probability` before the τ loop was pruned, verbatim.
    fn unpruned_grab_probability(sigmas: &[u64], i: usize) -> f64 {
        let sigma_i = sigmas[i];
        let mut p = 0.0;
        for tau in 1..=sigma_i {
            let mut others = 1.0;
            for (j, &sigma_j) in sigmas.iter().enumerate() {
                if j == i {
                    continue;
                }
                if sigma_j > tau {
                    others *= (sigma_j - tau) as f64 / sigma_j as f64;
                } else {
                    others = 0.0;
                    break;
                }
            }
            p += others / sigma_i as f64;
        }
        p
    }

    /// Every σ vector of length 1..=`max_n` with entries in 1..=`max_sigma`.
    fn all_sigma_vectors(max_n: usize, max_sigma: u64) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        let mut layer: Vec<Vec<u64>> = vec![Vec::new()];
        for _ in 0..max_n {
            layer = layer
                .iter()
                .flat_map(|v| {
                    (1..=max_sigma).map(move |s| {
                        let mut next = v.clone();
                        next.push(s);
                        next
                    })
                })
                .collect();
            out.extend(layer.iter().cloned());
        }
        out
    }

    fn loaded(sigmas: &[u64]) -> TauSearch {
        TauSearch {
            sigmas: sigmas.to_vec(),
        }
    }

    #[test]
    fn pruned_grab_probability_is_bit_identical() {
        for sigmas in all_sigma_vectors(4, 12) {
            for i in 0..sigmas.len() {
                assert_eq!(
                    grab_probability(&sigmas, i).to_bits(),
                    unpruned_grab_probability(&sigmas, i).to_bits(),
                    "σ={sigmas:?} i={i}"
                );
            }
        }
    }

    #[test]
    fn fast_gamma_matches_the_reference() {
        for sigmas in all_sigma_vectors(4, 16) {
            let fast = loaded(&sigmas).fast_gamma().expect("certified");
            let reference = rts_collision_probability(&sigmas);
            assert!(
                (fast - reference).abs() <= 1e-12,
                "σ={sigmas:?}: fast {fast} vs reference {reference}"
            );
        }
    }

    #[test]
    fn target_at_the_reference_gamma_takes_the_fallback() {
        for sigmas in [
            vec![3u64, 5, 8],
            vec![4, 4],
            vec![1, 7, 7, 9],
            vec![2, 2, 2],
        ] {
            let target = rts_collision_probability(&sigmas);
            let search = loaded(&sigmas);
            assert_eq!(search.fast_verdict(target), None, "σ={sigmas:?}");
            assert!(search.feasible(target), "σ={sigmas:?}");
            let below = target - 1e-15;
            if below >= 0.0 {
                assert_eq!(search.fast_verdict(below), None);
                assert!(!search.feasible(below), "σ={sigmas:?}");
            }
        }
    }

    #[test]
    fn uncertified_inputs_fall_back() {
        assert_eq!(loaded(&[EXACT_SIGMA + 1, 2]).fast_gamma(), None);
        assert_eq!(loaded(&[1 << 30, 1 << 30]).fast_gamma(), None);
    }

    #[test]
    fn eq14_known_values() {
        assert_eq!(cts_collision_probability(0, 8), 0.0);
        assert_eq!(cts_collision_probability(1, 8), 0.0);
        // Two repliers, w slots: collision 1/w.
        assert!((cts_collision_probability(2, 8) - 1.0 / 8.0).abs() < 1e-12);
        // Birthday problem, n = 3, w = 10: 1 - (10·9·8)/1000 = 0.28.
        assert!((cts_collision_probability(3, 10) - 0.28).abs() < 1e-12);
        // Pigeonhole.
        assert_eq!(cts_collision_probability(9, 8), 1.0);
    }

    #[test]
    fn eq14_monotone_in_n_and_w() {
        for n in 1..6u64 {
            assert!(cts_collision_probability(n + 1, 12) >= cts_collision_probability(n, 12));
        }
        for w in 4..20u64 {
            assert!(cts_collision_probability(4, w + 1) <= cts_collision_probability(4, w));
        }
    }

    #[test]
    fn optimize_cts_window_is_minimal_and_feasible() {
        for n in 1..8u64 {
            let w = optimize_cts_window(n, 0.1, 1024);
            assert!(cts_collision_probability(n, w) <= 0.1, "n={n}");
            if w > 1 {
                assert!(
                    cts_collision_probability(n, w - 1) > 0.1,
                    "n={n} not minimal"
                );
            }
        }
    }

    #[test]
    fn optimize_cts_window_hits_cap() {
        // Five repliers under a 1% target need a big window; cap at 8.
        assert_eq!(optimize_cts_window(5, 0.01, 8), 8);
    }

    #[test]
    fn cts_collision_matches_monte_carlo() {
        use dftmsn_sim::rng::SimRng;
        let mut rng = SimRng::seed_from(7);
        let (n, w) = (4u64, 12u64);
        let trials = 100_000;
        let mut collided = 0u64;
        for _ in 0..trials {
            let mut slots: Vec<u64> = (0..n).map(|_| rng.gen_range_inclusive(1, w)).collect();
            slots.sort_unstable();
            slots.dedup();
            if slots.len() < n as usize {
                collided += 1;
            }
        }
        let analytic = cts_collision_probability(n, w);
        let empirical = collided as f64 / trials as f64;
        assert!(
            (analytic - empirical).abs() < 0.01,
            "analytic {analytic} vs empirical {empirical}"
        );
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn bad_target_panics() {
        let _ = optimize_tau_max(&[0.5], 1.5, 8);
    }
}
