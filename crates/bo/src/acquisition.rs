//! Constrained Noisy Expected Improvement (NEI) with quasi-Monte-Carlo
//! integration — the acquisition function of Letham et al. \[21\] that the
//! paper adopts (§3.3): it "assumes the observed objective and constraint
//! values are not perfect and can process hard constraints".
//!
//! NEI handles noisy observations by integrating classic constrained EI
//! over the *joint posterior at the observed points*: each QMC sample
//! realizes a plausible noiseless objective/constraint at every observed
//! point, determines the feasible incumbent under that realization, and
//! scores the candidate's improvement; the NEI value is the QMC average.

// analysis:allow-file(panic-free-control-path): MC scoring indexes
// draws shaped (points, n_mc) by construction.
// analysis:allow-file(no-alloc-in-decide-steady-state): the normals,
// posterior draws and per-draw references live in `NeiScratch`, sized
// once per decision and reused across its BO iterations; the
// convenience `constrained_nei` builds a fresh one per call.
use crate::BoError;
use tesla_gp::{CandidateSet, FixedNoiseGp, JointScratch, Matern52, QmcNormals};

/// Work buffers of [`constrained_nei_with`], reused across calls.
#[derive(Debug, Default)]
pub struct NeiScratch {
    uniforms: Vec<f64>,
    normals: Vec<f64>,
    objective: JointScratch,
    constraint: JointScratch,
    /// Each draw's improvement reference.
    reference: Vec<f64>,
}

/// Computes constrained-NEI scores for each candidate.
///
/// * `gp_obj` / `gp_con` — fixed-noise GPs over (set-point → objective,
///   maximized) and (set-point → constraint, feasible iff ≤ 0), trained
///   on the same set-points: the observations NEI integrates over.
/// * `candidates` — set-points to score.
/// * `n_mc` — QMC sample count (at least 8 are drawn).
pub fn constrained_nei(
    gp_obj: &FixedNoiseGp<Matern52>,
    gp_con: &FixedNoiseGp<Matern52>,
    candidates: &[f64],
    n_mc: usize,
    seed: u64,
) -> Result<Vec<f64>, BoError> {
    let set = CandidateSet::new(candidates.iter().map(|&s| vec![s]).collect());
    let mut scores = Vec::new();
    constrained_nei_with(
        gp_obj,
        gp_con,
        &set,
        &QmcNormals::new(n_mc.max(8)),
        seed,
        &mut NeiScratch::default(),
        &mut scores,
    )?;
    Ok(scores)
}

/// [`constrained_nei`] over a prepared candidate set and QMC table, into
/// reused buffers: the optimizer builds `candidates` and `qmc` once and
/// calls this every BO iteration. Writes one score per candidate into
/// `scores`.
///
/// Each call draws `qmc.n_draws()` joint samples from each GP at the
/// candidates plus the observed points (the GPs' own training points),
/// computes every draw's reference (the best feasible observed value, or
/// the worst observed one when none is feasible), then sums each
/// candidate's feasible improvement over the draws in draw order.
pub fn constrained_nei_with(
    gp_obj: &FixedNoiseGp<Matern52>,
    gp_con: &FixedNoiseGp<Matern52>,
    candidates: &CandidateSet,
    qmc: &QmcNormals,
    seed: u64,
    scratch: &mut NeiScratch,
    scores: &mut Vec<f64>,
) -> Result<(), BoError> {
    scores.clear();
    let n_candidates = candidates.len();
    if n_candidates == 0 {
        return Ok(());
    }
    let observed = gp_obj.inputs();
    let same_points = observed.len() == gp_con.n_train()
        && observed.iter().zip(gp_con.inputs()).all(|(a, b)| {
            a.len() == b.len() && a.iter().zip(b).all(|(u, v)| u.to_bits() == v.to_bits())
        });
    if !same_points {
        return Err(BoError::BadConfig(
            "objective and constraint GPs must share their training points".into(),
        ));
    }
    let m = n_candidates + observed.len();
    let n = qmc.n_draws();
    if n == 0 {
        return Err(BoError::BadConfig("the QMC block has no draws".into()));
    }
    let s = scratch;

    qmc.fill(m, seed, &mut s.uniforms, &mut s.normals);
    gp_obj.sample_joint(candidates, &s.normals, n, &mut s.objective)?;
    qmc.fill(m, seed ^ 0xDEADBEEF, &mut s.uniforms, &mut s.normals);
    gp_con.sample_joint(candidates, &s.normals, n, &mut s.constraint)?;
    let (obj, con) = (s.objective.draws(), s.constraint.draws());

    // Feasible incumbent under each realization.
    s.reference.clear();
    for d in 0..n {
        let mut incumbent = f64::NEG_INFINITY;
        let mut any_feasible = false;
        let mut worst = f64::INFINITY;
        for i in n_candidates..m {
            let o = obj[i * n + d];
            worst = worst.min(o);
            if con[i * n + d] <= 0.0 {
                any_feasible = true;
                incumbent = incumbent.max(o);
            }
        }
        // With no feasible incumbent, improvement is measured against the
        // worst observed value so feasibility itself is rewarded.
        s.reference.push(if any_feasible {
            incumbent
        } else if worst.is_finite() {
            worst
        } else {
            0.0
        });
    }
    for (o, c) in obj
        .chunks_exact(n)
        .zip(con.chunks_exact(n))
        .take(n_candidates)
    {
        let mut score = 0.0;
        for ((&o, &c), &reference) in o.iter().zip(c).zip(&s.reference) {
            if c <= 0.0 {
                score += (o - reference).max(0.0);
            }
        }
        scores.push(score / n as f64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesla_gp::Matern52;

    /// GP pair for a simple 1-D problem on \[0, 10\]:
    /// objective f(s) = −(s − 7)², constraint c(s) = s − 8 (feasible s ≤ 8).
    fn fixture() -> (FixedNoiseGp<Matern52>, FixedNoiseGp<Matern52>) {
        let xs: Vec<f64> = vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0];
        let pts: Vec<Vec<f64>> = xs.iter().map(|&v| vec![v]).collect();
        let obj: Vec<f64> = xs.iter().map(|&s| -(s - 7.0) * (s - 7.0)).collect();
        let con: Vec<f64> = xs.iter().map(|&s| s - 8.0).collect();
        let noise = vec![1e-4; xs.len()];
        let gp_o = FixedNoiseGp::fit(Matern52::new(2.0, 25.0), pts.clone(), &obj, &noise).unwrap();
        let gp_c = FixedNoiseGp::fit(Matern52::new(2.0, 25.0), pts, &con, &noise).unwrap();
        (gp_o, gp_c)
    }

    #[test]
    fn prefers_the_feasible_optimum_region() {
        let (gp_o, gp_c) = fixture();
        let candidates = vec![1.0, 3.0, 5.0, 7.0, 9.0];
        let scores = constrained_nei(&gp_o, &gp_c, &candidates, 128, 1).unwrap();
        // s = 7 is the feasible optimum; it must out-score the far-left
        // candidates and the infeasible s = 9.
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(candidates[best], 7.0, "scores {scores:?}");
    }

    #[test]
    fn infeasible_candidates_score_near_zero() {
        let (gp_o, gp_c) = fixture();
        let scores = constrained_nei(&gp_o, &gp_c, &[9.5], 128, 2).unwrap();
        assert!(scores[0] < 0.5, "infeasible candidate scored {}", scores[0]);
    }

    #[test]
    fn empty_candidates_ok() {
        let (gp_o, gp_c) = fixture();
        assert!(constrained_nei(&gp_o, &gp_c, &[], 64, 3)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let (gp_o, gp_c) = fixture();
        let a = constrained_nei(&gp_o, &gp_c, &[5.0, 7.0], 64, 9).unwrap();
        let b = constrained_nei(&gp_o, &gp_c, &[5.0, 7.0], 64, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn all_observed_infeasible_still_rewards_feasible_candidates() {
        // Observations only in the infeasible region; a feasible candidate
        // should still get a positive score.
        let xs = [8.5, 9.0, 9.5];
        let pts: Vec<Vec<f64>> = xs.iter().map(|&v| vec![v]).collect();
        let obj: Vec<f64> = xs.iter().map(|&s| -(s - 7.0) * (s - 7.0)).collect();
        let con: Vec<f64> = xs.iter().map(|&s| s - 8.0).collect();
        let noise = vec![1e-4; 3];
        let gp_o = FixedNoiseGp::fit(Matern52::new(2.0, 25.0), pts.clone(), &obj, &noise).unwrap();
        let gp_c = FixedNoiseGp::fit(Matern52::new(2.0, 25.0), pts, &con, &noise).unwrap();
        let scores = constrained_nei(&gp_o, &gp_c, &[7.0], 128, 4).unwrap();
        assert!(scores[0] > 0.0);
    }

    #[test]
    fn gps_over_different_points_are_rejected() {
        let (gp_o, _) = fixture();
        let pts = vec![vec![1.0], vec![3.0]];
        let gp_c =
            FixedNoiseGp::fit(Matern52::new(2.0, 25.0), pts, &[0.0, 1.0], &[1e-4; 2]).unwrap();
        assert!(constrained_nei(&gp_o, &gp_c, &[5.0], 64, 1).is_err());
    }

    #[test]
    fn reused_scratch_gives_the_same_scores() {
        let (gp_o, gp_c) = fixture();
        let cands = CandidateSet::new(vec![vec![3.0], vec![5.0], vec![7.0]]);
        let qmc = QmcNormals::new(64);
        let mut scratch = NeiScratch::default();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        constrained_nei_with(&gp_o, &gp_c, &cands, &qmc, 5, &mut scratch, &mut a).unwrap();
        // A larger call in between leaves no stale state behind.
        let wide = CandidateSet::new((0..20).map(|i| vec![i as f64 * 0.5]).collect());
        constrained_nei_with(&gp_o, &gp_c, &wide, &qmc, 6, &mut scratch, &mut b).unwrap();
        constrained_nei_with(&gp_o, &gp_c, &cands, &qmc, 5, &mut scratch, &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a,
            constrained_nei(&gp_o, &gp_c, &[3.0, 5.0, 7.0], 64, 5).unwrap()
        );
    }
}
