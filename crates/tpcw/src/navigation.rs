//! Markov session navigation.
//!
//! The real TPC-W driver walks a page-to-page navigation graph (you reach
//! *Buy Confirm* from *Buy Request*, not from *Search*). The paper only
//! publishes the steady-state frequencies (Table 1), so the default
//! browser model samples i.i.d. from the mix. This module provides the
//! higher-fidelity option: a [`NavigationModel`] fits a row-stochastic
//! transition matrix over the TPC-W link structure whose **stationary
//! distribution matches the Table 1 mix**, then browsers walk it as
//! sessions.
//!
//! Fitting uses iterative proportional scaling: start from
//! `P[i][j] ∝ A[i][j]·π[j]` (link structure times target popularity),
//! then repeatedly rescale columns toward the target stationary
//! distribution and re-normalise rows. On the (strongly connected) TPC-W
//! graph this converges to sub-percent accuracy in a few dozen rounds.

use crate::interaction::Interaction;
use crate::mix::Mix;
use simkit::rng::SimRng;

const N: usize = Interaction::COUNT;

/// Which pages link to which (1 = a link exists). Derived from the TPC-W
/// page flow: every page carries the navigation bar (Home, Search,
/// Shopping Cart); catalogue pages link between themselves; the ordering
/// funnel is Cart → Customer Registration → Buy Request → Buy Confirm;
/// admin and order-status pages hang off Home.
fn adjacency() -> [[bool; N]; N] {
    use Interaction::*;
    let mut a = [[false; N]; N];
    let nav = [Home, SearchRequest, ShoppingCart];
    let catalogue = [NewProducts, BestSellers, ProductDetail];
    let mut link = |from: Interaction, to: Interaction| {
        a[from.index()][to.index()] = true;
    };
    // Navigation bar from every page.
    for from in Interaction::ALL {
        for to in nav {
            link(from, to);
        }
    }
    // Home fans out to everything a storefront shows.
    for to in catalogue {
        link(Home, to);
    }
    link(Home, OrderInquiry);
    link(Home, AdminRequest);
    // Catalogue browsing cross-links.
    for from in catalogue {
        for to in catalogue {
            link(from, to);
        }
    }
    link(SearchRequest, SearchResults);
    link(SearchResults, ProductDetail);
    link(SearchResults, SearchResults); // refine the search
    link(ProductDetail, ShoppingCart); // add to cart
    link(ProductDetail, AdminRequest);
    // The ordering funnel.
    link(ShoppingCart, CustomerRegistration);
    link(CustomerRegistration, BuyRequest);
    link(BuyRequest, BuyConfirm);
    link(BuyConfirm, Home);
    link(BuyConfirm, OrderInquiry);
    // Order status pages.
    link(OrderInquiry, OrderDisplay);
    link(OrderDisplay, Home);
    link(OrderDisplay, OrderInquiry);
    // Admin pages.
    link(AdminRequest, AdminConfirm);
    link(AdminConfirm, Home);
    link(AdminConfirm, AdminRequest);
    a
}

/// A fitted session-navigation model for one workload mix.
#[derive(Debug, Clone)]
pub struct NavigationModel {
    /// Row-stochastic transition matrix.
    rows: Vec<[f64; N]>,
    /// Fitted stationary distribution (session entry pages).
    stationary: [f64; N],
}

impl NavigationModel {
    /// Fit the navigation matrix to `mix`'s steady-state frequencies.
    pub fn fit(mix: &Mix) -> NavigationModel {
        let target: [f64; N] = {
            let mut t = [0.0; N];
            for ix in Interaction::ALL {
                t[ix.index()] = mix.probability(ix).max(1e-9);
            }
            t
        };
        let adj = adjacency();

        // Start: link structure weighted by target popularity.
        let mut p: Vec<[f64; N]> = (0..N)
            .map(|i| {
                let mut row = [0.0; N];
                for (j, cell) in row.iter_mut().enumerate() {
                    if adj[i][j] {
                        *cell = target[j];
                    }
                }
                normalize(&mut row);
                row
            })
            .collect();

        // Iterative proportional fitting toward the target stationary.
        let mut stationary = target;
        for _ in 0..200 {
            stationary = stationary_of(&p, &stationary);
            let mut max_err = 0.0f64;
            for j in 0..N {
                let ratio = target[j] / stationary[j].max(1e-12);
                max_err = max_err.max((ratio - 1.0).abs());
                for row in p.iter_mut() {
                    if row[j] > 0.0 {
                        row[j] *= ratio;
                    }
                }
            }
            for row in p.iter_mut() {
                normalize(row);
            }
            if max_err < 1e-6 {
                break;
            }
        }
        stationary = stationary_of(&p, &stationary);

        NavigationModel {
            rows: p,
            stationary,
        }
    }

    /// Sample the next page of a session.
    pub fn next(&self, from: Interaction, rng: &mut SimRng) -> Interaction {
        let row = &self.rows[from.index()];
        let idx = rng.weighted_index(row);
        Interaction::ALL[idx.min(Interaction::COUNT - 1)]
    }

    /// Sample a session entry page (stationary-distributed, so entering
    /// and leaving sessions do not perturb the mix).
    pub fn entry(&self, rng: &mut SimRng) -> Interaction {
        let idx = rng.weighted_index(&self.stationary);
        Interaction::ALL[idx.min(Interaction::COUNT - 1)]
    }
}

fn normalize(row: &mut [f64; N]) {
    let total: f64 = row.iter().sum();
    if total > 0.0 {
        for v in row.iter_mut() {
            *v /= total;
        }
    }
}

/// Stationary distribution by power iteration from a warm start.
fn stationary_of(p: &[[f64; N]], warm: &[f64; N]) -> [f64; N] {
    let mut pi = *warm;
    let mut next = [0.0; N];
    for _ in 0..500 {
        next = [0.0; N];
        for (i, row) in p.iter().enumerate() {
            for (j, &pr) in row.iter().enumerate() {
                next[j] += pi[i] * pr;
            }
        }
        let total: f64 = next.iter().sum();
        for v in next.iter_mut() {
            *v /= total.max(1e-12);
        }
        let delta: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        pi = next;
        if delta < 1e-12 {
            break;
        }
    }
    let _ = next;
    pi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::Workload;

    #[test]
    fn graph_is_strongly_connected() {
        // Every page can reach every other page (BFS from each node).
        let adj = adjacency();
        for start in 0..N {
            let mut seen = [false; N];
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(i) = stack.pop() {
                for (j, seen_j) in seen.iter_mut().enumerate() {
                    if adj[i][j] && !*seen_j {
                        *seen_j = true;
                        stack.push(j);
                    }
                }
            }
            assert!(seen.iter().all(|s| *s), "node {start} cannot reach all");
        }
    }

    #[test]
    fn rows_are_stochastic() {
        for w in Workload::ALL {
            let m = NavigationModel::fit(w.mix());
            for i in 0..N {
                let row_sum: f64 = Interaction::ALL
                    .iter()
                    .map(|to| m.rows[Interaction::from_index(i).unwrap().index()][to.index()])
                    .sum();
                assert!((row_sum - 1.0).abs() < 1e-9, "{w} row {i} sums {row_sum}");
            }
        }
    }

    #[test]
    fn stationary_matches_table1_for_all_workloads() {
        for w in Workload::ALL {
            let m = NavigationModel::fit(w.mix());
            // Worst relative deviation of the fit from the target mix.
            let fit_error = Interaction::ALL
                .iter()
                .map(|&ix| {
                    (m.stationary[ix.index()] / w.mix().probability(ix).max(1e-9) - 1.0).abs()
                })
                .fold(0.0, f64::max);
            assert!(fit_error < 0.02, "{w}: fit error {fit_error:.4} too large");
            for ix in Interaction::ALL {
                let target = w.mix().probability(ix);
                let got = m.stationary[ix.index()];
                assert!(
                    (got - target).abs() < 0.004,
                    "{w}/{ix}: stationary {got:.4} vs target {target:.4}"
                );
            }
        }
    }

    #[test]
    fn long_walk_reproduces_the_mix() {
        let w = Workload::Shopping;
        let m = NavigationModel::fit(w.mix());
        let mut rng = SimRng::new(77);
        let mut counts = [0u64; N];
        let mut page = m.entry(&mut rng);
        let steps = 400_000;
        for _ in 0..steps {
            counts[page.index()] += 1;
            page = m.next(page, &mut rng);
        }
        for ix in Interaction::ALL {
            let frac = counts[ix.index()] as f64 / steps as f64;
            let target = w.mix().probability(ix);
            assert!(
                (frac - target).abs() < 0.01,
                "{ix}: walked {frac:.4}, target {target:.4}"
            );
        }
    }

    #[test]
    fn funnel_structure_respected() {
        let m = NavigationModel::fit(Workload::Ordering.mix());
        // You cannot jump into Buy Confirm from Home.
        assert_eq!(
            m.rows[Interaction::Home.index()][Interaction::BuyConfirm.index()],
            0.0
        );
        // But you can from Buy Request.
        assert!(m.rows[Interaction::BuyRequest.index()][Interaction::BuyConfirm.index()] > 0.0);
        // Search results only follow a search request or a refinement.
        assert_eq!(
            m.rows[Interaction::ProductDetail.index()][Interaction::SearchResults.index()],
            0.0
        );
    }

    #[test]
    fn entry_sampling_is_stationary() {
        let m = NavigationModel::fit(Workload::Browsing.mix());
        let mut rng = SimRng::new(5);
        let n = 100_000;
        let home = (0..n)
            .filter(|_| m.entry(&mut rng) == Interaction::Home)
            .count();
        let frac = home as f64 / n as f64;
        let target = Workload::Browsing.mix().probability(Interaction::Home);
        assert!((frac - target).abs() < 0.01, "{frac} vs {target}");
    }
}
