//! TPC-W scale: catalogue size and derived working sets.
//!
//! The paper ran at a scale factor of 10,000 items. The catalogue size
//! determines how many distinct cacheable objects exist (product pages,
//! images, static pages) and therefore how much proxy cache memory is
//! needed for a given hit ratio, and how many database tables/segments the
//! table cache must cover.

/// Catalogue scale parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogScale {
    /// Number of items the store sells (paper: 10,000).
    pub(crate) items: u64,
    /// Zipf-like skew of object popularity in [0,1). Web object popularity
    /// is classically Zipf with theta around 0.7–0.8.
    pub popularity_theta: f64,
}

impl CatalogScale {
    /// The paper's configuration: 10,000 items.
    pub fn hpdc04() -> Self {
        CatalogScale {
            items: 10_000,
            popularity_theta: 0.75,
        }
    }

    /// Number of distinct cacheable objects: one detail page and one image
    /// set per item, plus a fixed set of site-wide static pages.
    pub fn static_objects(&self) -> u64 {
        self.items * 2 + 50
    }

    /// Number of "hot" database table-cache slots the workload touches:
    /// TPC-W has 8 base tables; MySQL 3.23 opens one descriptor per table
    /// per concurrent user, so the needed cache grows with catalogue scale
    /// (modelled as 8 tables × segments of 2,000 items, bounded below).
    pub fn hot_table_slots(&self) -> u64 {
        let segments = (self.items / 2_000).max(1);
        8 * segments.max(1) * 16
    }

    /// Validate the scale parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.items == 0 {
            return Err("scale must have at least one item".into());
        }
        if !(0.0..1.0).contains(&self.popularity_theta) {
            return Err(format!(
                "popularity_theta {} outside [0,1)",
                self.popularity_theta
            ));
        }
        Ok(())
    }
}

impl Default for CatalogScale {
    fn default() -> Self {
        CatalogScale::hpdc04()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpdc04_scale() {
        let s = CatalogScale::hpdc04();
        assert_eq!(s.items, 10_000);
        assert_eq!(s.static_objects(), 20_050);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn hot_table_slots_scale_with_items() {
        let small = CatalogScale {
            items: 100,
            ..CatalogScale::hpdc04()
        };
        let big = CatalogScale::hpdc04();
        assert!(big.hot_table_slots() > small.hot_table_slots());
        // Paper's table_cache tuned to ~760-900 from default 64 — our hot
        // set at scale 10k should sit in that range so the tuner has room.
        let slots = big.hot_table_slots();
        assert!((400..1200).contains(&slots), "slots = {slots}");
    }

    #[test]
    fn validation_rejects_bad_params() {
        let mut s = CatalogScale::hpdc04();
        s.items = 0;
        assert!(s.validate().is_err());
        let mut s = CatalogScale::hpdc04();
        s.popularity_theta = 1.5;
        assert!(s.validate().is_err());
    }
}
