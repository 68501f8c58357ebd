//! Bounded FIFO queues with drop accounting.

use std::collections::VecDeque;

/// Outcome of offering an item to a bounded queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer<T> {
    /// The item was queued.
    Accepted,
    /// The queue was full; the item is handed back.
    Rejected(T),
}

/// A FIFO queue with an optional capacity bound and a rejection count.
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: Option<usize>,
    rejected: u64,
}

impl<T> BoundedQueue<T> {
    /// Unbounded queue.
    pub(crate) fn unbounded() -> Self {
        BoundedQueue {
            items: VecDeque::new(),
            capacity: None,
            rejected: 0,
        }
    }

    /// Queue holding at most `capacity` items (0 means "reject everything").
    pub fn bounded(capacity: usize) -> Self {
        BoundedQueue {
            items: VecDeque::with_capacity(capacity.min(1024)),
            capacity: Some(capacity),
            rejected: 0,
        }
    }

    /// Change the capacity bound in place (used when a tuner adjusts an
    /// accept-queue parameter). Existing queued items are never dropped,
    /// even if the new bound is below the current length.
    pub(crate) fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
    }

    /// Offer an item; rejects when full.
    pub fn offer(&mut self, item: T) -> Offer<T> {
        if let Some(cap) = self.capacity {
            if self.items.len() >= cap {
                self.rejected += 1;
                return Offer::Rejected(item);
            }
        }
        self.items.push_back(item);
        Offer::Accepted
    }

    /// Remove the oldest item.
    pub fn take(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub(crate) fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedQueue::unbounded();
        for i in 0..5 {
            assert_eq!(q.offer(i), Offer::Accepted);
        }
        let drained: Vec<_> = std::iter::from_fn(|| q.take()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn rejects_when_full() {
        let mut q = BoundedQueue::bounded(2);
        assert_eq!(q.offer('a'), Offer::Accepted);
        assert_eq!(q.offer('b'), Offer::Accepted);
        assert_eq!(q.offer('c'), Offer::Rejected('c'));
        assert_eq!(q.rejected(), 1);
    }

    #[test]
    fn zero_capacity_rejects_all() {
        let mut q = BoundedQueue::bounded(0);
        assert_eq!(q.offer(1), Offer::Rejected(1));
        assert!(q.is_empty());
    }

    #[test]
    fn shrinking_capacity_keeps_existing_items() {
        let mut q = BoundedQueue::bounded(4);
        for i in 0..4 {
            q.offer(i);
        }
        q.set_capacity(Some(2));
        assert_eq!(q.len(), 4);
        assert_eq!(q.offer(9), Offer::Rejected(9));
        q.take();
        q.take();
        q.take();
        assert_eq!(q.offer(9), Offer::Accepted);
    }
}
