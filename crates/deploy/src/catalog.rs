//! The VM-server market.
//!
//! §5.2 describes 336 purchasable server configurations on OneProvider
//! (as of Jan. 2022) with egress bandwidth from 100 Mbps to 10 Gbps and
//! prices from $10.41 to $2,609 per month, each with limited stock.
//! The real catalog is not redistributable, so this module synthesises
//! one with the same ranges and the usual market shape: price grows
//! super-linearly with bandwidth, and there is price dispersion between
//! providers at every tier.

use mbw_stats::SeededRng;

/// One purchasable server configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerOffer {
    /// Catalog index.
    pub id: u32,
    /// Egress bandwidth, Mbps.
    pub bandwidth_mbps: f64,
    /// Price, USD/month.
    pub price: f64,
    /// Units in stock.
    pub available: u32,
}

impl ServerOffer {
    /// Dollars per Mbps per month — the greedy solver's sort key.
    pub fn price_per_mbps(&self) -> f64 {
        self.price / self.bandwidth_mbps
    }
}

/// Bandwidth tiers offered by VM providers (Mbps).
const TIERS: [f64; 8] = [100.0, 200.0, 300.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0];

/// Synthesise the 336-configuration catalog.
///
/// Every tier gets 42 offers whose prices scatter around a
/// super-linear curve anchored at the paper's endpoints: the cheapest
/// 100 Mbps offer costs $10.41 and the most expensive 10 Gbps offer
/// $2,609/month.
pub fn synthetic_catalog(seed: u64) -> Vec<ServerOffer> {
    let mut rng = SeededRng::new(seed);
    let mut offers = Vec::with_capacity(336);
    let mut id = 0u32;
    for &tier in &TIERS {
        for _ in 0..42 {
            // Anchor curve: price = a · bandwidth^0.78 — bigger pipes are
            // cheaper per Mbps (economies of scale), which is why 50
            // 1-Gbps servers cost only ~15× (not 25×) of Swiftest's 20
            // budget VMs in §5.3. Dispersion ±30% between providers.
            let base = 13.0 * (tier / 100.0).powf(0.78);
            let price = (base * rng.uniform_range(0.8, 1.35)).max(10.41);
            let price = price.min(2609.0);
            offers.push(ServerOffer {
                id,
                bandwidth_mbps: tier,
                price: (price * 100.0).round() / 100.0,
                available: 2 + rng.index(15) as u32,
            });
            id += 1;
        }
    }
    // Pin the paper's exact endpoints.
    offers[0].price = 10.41;
    let last = offers.len() - 1;
    offers[last].price = 2609.0;
    offers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_336_offers_with_paper_ranges() {
        let cat = synthetic_catalog(1);
        assert_eq!(cat.len(), 336);
        let min_bw = cat
            .iter()
            .map(|o| o.bandwidth_mbps)
            .fold(f64::INFINITY, f64::min);
        let max_bw = cat.iter().map(|o| o.bandwidth_mbps).fold(0.0, f64::max);
        assert_eq!(min_bw, 100.0);
        assert_eq!(max_bw, 10000.0);
        let min_p = cat.iter().map(|o| o.price).fold(f64::INFINITY, f64::min);
        let max_p = cat.iter().map(|o| o.price).fold(0.0, f64::max);
        assert_eq!(min_p, 10.41);
        assert_eq!(max_p, 2609.0);
    }

    #[test]
    fn all_offers_have_stock_and_positive_price() {
        for o in synthetic_catalog(2) {
            assert!(o.available >= 1);
            assert!(o.price > 0.0);
            assert!(o.price_per_mbps() > 0.0);
        }
    }

    #[test]
    fn bigger_servers_cost_more_in_total_but_less_per_mbps() {
        let cat = synthetic_catalog(3);
        let avg = |tier: f64| {
            let v: Vec<f64> = cat
                .iter()
                .filter(|o| o.bandwidth_mbps == tier)
                .map(|o| o.price)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        // Total price rises with size…
        assert!(avg(1000.0) > avg(100.0) * 4.0);
        assert!(avg(10000.0) > avg(1000.0) * 4.0);
        // …but the per-Mbps price falls (economies of scale).
        assert!(avg(1000.0) / 1000.0 < avg(100.0) / 100.0);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(synthetic_catalog(7), synthetic_catalog(7));
    }
}
