//! The fourteen TPC-W web interactions.
//!
//! TPC-W models an online bookstore. Every page a customer can request is
//! one of fourteen *web interactions*, each classified as either **Browse**
//! (searching/viewing the catalogue) or **Order** (anything that plays an
//! explicit role in the ordering process) — the classification used by
//! Table 1 of the paper.

use std::fmt;

/// One of the fourteen TPC-W web interactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Interaction {
    Home,
    NewProducts,
    BestSellers,
    ProductDetail,
    SearchRequest,
    SearchResults,
    ShoppingCart,
    CustomerRegistration,
    BuyRequest,
    BuyConfirm,
    OrderInquiry,
    OrderDisplay,
    AdminRequest,
    AdminConfirm,
}

/// Browse-vs-Order classification (Table 1's two groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InteractionClass {
    Browse,
    Order,
}

impl Interaction {
    /// All fourteen interactions, in Table 1 order.
    pub(crate) const ALL: [Interaction; 14] = [
        Interaction::Home,
        Interaction::NewProducts,
        Interaction::BestSellers,
        Interaction::ProductDetail,
        Interaction::SearchRequest,
        Interaction::SearchResults,
        Interaction::ShoppingCart,
        Interaction::CustomerRegistration,
        Interaction::BuyRequest,
        Interaction::BuyConfirm,
        Interaction::OrderInquiry,
        Interaction::OrderDisplay,
        Interaction::AdminRequest,
        Interaction::AdminConfirm,
    ];

    /// Number of distinct interactions.
    pub(crate) const COUNT: usize = 14;

    /// Stable dense index (Table 1 order), usable for array-indexed stats.
    #[inline]
    pub(crate) const fn index(self) -> usize {
        match self {
            Interaction::Home => 0,
            Interaction::NewProducts => 1,
            Interaction::BestSellers => 2,
            Interaction::ProductDetail => 3,
            Interaction::SearchRequest => 4,
            Interaction::SearchResults => 5,
            Interaction::ShoppingCart => 6,
            Interaction::CustomerRegistration => 7,
            Interaction::BuyRequest => 8,
            Interaction::BuyConfirm => 9,
            Interaction::OrderInquiry => 10,
            Interaction::OrderDisplay => 11,
            Interaction::AdminRequest => 12,
            Interaction::AdminConfirm => 13,
        }
    }

    /// Inverse of `Interaction::index`.
    pub fn from_index(i: usize) -> Option<Interaction> {
        Interaction::ALL.get(i).copied()
    }

    /// Browse/Order classification per Table 1.
    pub(crate) fn class(self) -> InteractionClass {
        match self {
            Interaction::Home
            | Interaction::NewProducts
            | Interaction::BestSellers
            | Interaction::ProductDetail
            | Interaction::SearchRequest
            | Interaction::SearchResults => InteractionClass::Browse,
            Interaction::ShoppingCart
            | Interaction::CustomerRegistration
            | Interaction::BuyRequest
            | Interaction::BuyConfirm
            | Interaction::OrderInquiry
            | Interaction::OrderDisplay
            | Interaction::AdminRequest
            | Interaction::AdminConfirm => InteractionClass::Order,
        }
    }

    /// Human-readable name (matches Table 1 row labels).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Interaction::Home => "Home",
            Interaction::NewProducts => "New Products",
            Interaction::BestSellers => "Best Sellers",
            Interaction::ProductDetail => "Product Detail",
            Interaction::SearchRequest => "Search Request",
            Interaction::SearchResults => "Search Results",
            Interaction::ShoppingCart => "Shopping Cart",
            Interaction::CustomerRegistration => "Customer Registration",
            Interaction::BuyRequest => "Buy Request",
            Interaction::BuyConfirm => "Buy Confirm",
            Interaction::OrderInquiry => "Order Inquiry",
            Interaction::OrderDisplay => "Order Display",
            Interaction::AdminRequest => "Admin Request",
            Interaction::AdminConfirm => "Admin Confirm",
        }
    }
}

impl fmt::Display for Interaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_fourteen_unique() {
        assert_eq!(Interaction::ALL.len(), Interaction::COUNT);
        let mut sorted = Interaction::ALL.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 14);
    }

    #[test]
    fn index_roundtrip() {
        for (i, &ix) in Interaction::ALL.iter().enumerate() {
            assert_eq!(ix.index(), i);
            assert_eq!(Interaction::from_index(i), Some(ix));
        }
        assert_eq!(Interaction::from_index(14), None);
    }

    #[test]
    fn classification_matches_table1_groups() {
        let browse: Vec<_> = Interaction::ALL
            .iter()
            .filter(|i| i.class() == InteractionClass::Browse)
            .collect();
        let order: Vec<_> = Interaction::ALL
            .iter()
            .filter(|i| i.class() == InteractionClass::Order)
            .collect();
        assert_eq!(browse.len(), 6);
        assert_eq!(order.len(), 8);
        assert_eq!(Interaction::BuyConfirm.class(), InteractionClass::Order);
        assert_eq!(Interaction::Home.class(), InteractionClass::Browse);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Interaction::ALL.iter().map(|i| i.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 14);
        assert_eq!(format!("{}", Interaction::BestSellers), "Best Sellers");
    }
}
