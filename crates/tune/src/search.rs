//! Search strategies: random search and GP-based Bayesian optimization
//! with Expected Improvement (the DeepHyper "Centralized Bayesian
//! Optimization" analogue the paper uses, §III-D).

use crate::gp::{expected_improvement, GaussianProcess, GpConfig};
use crate::space::SearchSpace;
use rand::{rngs::StdRng, SeedableRng};

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Raw configuration values (aligned with the space's dimensions).
    pub point: Vec<f64>,
    /// Objective value (higher is better).
    pub value: f64,
}

/// Search outcome: best configuration plus the full evaluation history.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best configuration found.
    pub best: Trial,
    /// Every evaluation in order.
    pub history: Vec<Trial>,
}

impl SearchResult {
    fn from_history(history: Vec<Trial>) -> Self {
        let best = history
            .iter()
            .max_by(|a, b| a.value.partial_cmp(&b.value).expect("finite objective"))
            .expect("at least one trial")
            .clone();
        Self { best, history }
    }

    /// Running maximum after each evaluation (for convergence plots).
    pub fn running_best(&self) -> Vec<f64> {
        let mut best = f64::NEG_INFINITY;
        self.history
            .iter()
            .map(|t| {
                best = best.max(t.value);
                best
            })
            .collect()
    }
}

/// Pure random search: `budget` independent samples.
pub fn random_search(
    space: &SearchSpace,
    mut objective: impl FnMut(&[f64]) -> f64,
    budget: usize,
    seed: u64,
) -> SearchResult {
    assert!(budget > 0, "random_search: zero budget");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut history = Vec::with_capacity(budget);
    for _ in 0..budget {
        let point = space.sample(&mut rng);
        let value = objective(&point);
        history.push(Trial { point, value });
    }
    SearchResult::from_history(history)
}

/// Bayesian-optimization settings.
#[derive(Debug, Clone, Copy)]
pub struct BayesConfig {
    /// Random configurations before the surrogate takes over.
    pub n_init: usize,
    /// Candidate points scored by EI per iteration.
    pub n_candidates: usize,
    /// EI exploration bonus ξ.
    pub xi: f64,
    /// GP kernel settings.
    pub gp: GpConfig,
}

impl Default for BayesConfig {
    fn default() -> Self {
        Self {
            n_init: 5,
            n_candidates: 256,
            xi: 0.01,
            gp: GpConfig::default(),
        }
    }
}

/// GP-EI Bayesian optimization: `n_init` random evaluations, then pick the
/// candidate maximizing Expected Improvement under the GP posterior fitted
/// on all observations so far. Falls back to random sampling whenever the
/// GP cannot be fit.
pub fn bayes_opt(
    space: &SearchSpace,
    mut objective: impl FnMut(&[f64]) -> f64,
    budget: usize,
    cfg: BayesConfig,
    seed: u64,
) -> SearchResult {
    assert!(budget > 0, "bayes_opt: zero budget");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut history: Vec<Trial> = Vec::with_capacity(budget);

    for i in 0..budget {
        let point = if i < cfg.n_init.min(budget) {
            space.sample(&mut rng)
        } else {
            let xs: Vec<Vec<f64>> = history.iter().map(|t| space.to_unit(&t.point)).collect();
            let ys: Vec<f64> = history.iter().map(|t| t.value).collect();
            match GaussianProcess::fit(&xs, &ys, cfg.gp) {
                Some(gp) => {
                    let best = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let mut best_candidate: Option<(f64, Vec<f64>)> = None;
                    for _ in 0..cfg.n_candidates {
                        let cand = space.sample(&mut rng);
                        let unit = space.to_unit(&cand);
                        let ei = expected_improvement(gp.predict(&unit), best, cfg.xi);
                        if best_candidate.as_ref().is_none_or(|(b, _)| ei > *b) {
                            best_candidate = Some((ei, cand));
                        }
                    }
                    best_candidate.expect("candidates sampled").1
                }
                None => space.sample(&mut rng),
            }
        };
        let value = objective(&point);
        history.push(Trial { point, value });
    }
    SearchResult::from_history(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ParamSpec;

    /// Smooth 2-D test objective with maximum 1.0 at (0.002, 64).
    fn toy_space() -> SearchSpace {
        let mut s = SearchSpace::new();
        s.add("a", ParamSpec::LogUniform { lo: 1e-5, hi: 1e-1 });
        s.add("b", ParamSpec::IntRange { lo: 1, hi: 128 });
        s
    }

    fn toy_objective(p: &[f64]) -> f64 {
        let da = (p[0].ln() - 0.002f64.ln()) / 3.0;
        let db = (p[1] - 64.0) / 64.0;
        (-da * da - db * db).exp()
    }

    #[test]
    fn random_search_finds_decent_point() {
        let space = toy_space();
        let res = random_search(&space, toy_objective, 60, 0);
        assert_eq!(res.history.len(), 60);
        assert!(res.best.value > 0.5, "best {}", res.best.value);
        // Running best is monotone.
        let rb = res.running_best();
        for w in rb.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn bayes_opt_beats_random_on_average() {
        let space = toy_space();
        let budget = 25;
        let mut bo_wins = 0;
        for seed in 0..6 {
            let bo = bayes_opt(&space, toy_objective, budget, BayesConfig::default(), seed);
            let rs = random_search(&space, toy_objective, budget, seed);
            if bo.best.value >= rs.best.value {
                bo_wins += 1;
            }
        }
        assert!(bo_wins >= 4, "BO won only {bo_wins}/6 seeds");
    }

    #[test]
    fn bayes_opt_history_length_and_determinism() {
        let space = toy_space();
        let a = bayes_opt(&space, toy_objective, 15, BayesConfig::default(), 3);
        let b = bayes_opt(&space, toy_objective, 15, BayesConfig::default(), 3);
        assert_eq!(a.history.len(), 15);
        assert_eq!(a.best.point, b.best.point);
        assert_eq!(a.best.value, b.best.value);
    }

    #[test]
    fn points_stay_inside_the_space() {
        let space = toy_space();
        let res = bayes_opt(&space, toy_objective, 20, BayesConfig::default(), 9);
        for t in &res.history {
            assert!((1e-5..=1e-1).contains(&t.point[0]));
            assert!((1.0..=128.0).contains(&t.point[1]));
            assert_eq!(t.point[1], t.point[1].round());
        }
    }

    #[test]
    #[should_panic(expected = "zero budget")]
    fn zero_budget_rejected() {
        let space = toy_space();
        let _ = random_search(&space, toy_objective, 0, 0);
    }
}
