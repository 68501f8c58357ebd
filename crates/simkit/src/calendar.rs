//! The event calendar: a time-ordered priority queue of scheduled events.
//!
//! Ties in time are broken by insertion order (FIFO), which makes runs with
//! identical seeds bit-for-bit reproducible regardless of heap internals.
//!
//! Internally this is a 4-ary implicit min-heap over packed
//! `(time << 64) | seq` keys. The packing turns the two-field lexicographic
//! comparison into a single `u128` compare, and the struct-of-arrays layout
//! keeps the keys dense: the four children examined by one sift-down step
//! share a cache line, and payloads are only touched when an entry actually
//! moves. Compared to `std::collections::BinaryHeap` this halves the tree
//! depth and removes the per-level branch on the tie-break field, which is
//! worth ~2x on the schedule/pop cycle that bounds DES throughput (see
//! `benches/engine.rs`).

use crate::time::SimTime;

/// Pack `(time, seq)` into one totally-ordered key. `seq` is unique per
/// calendar, so keys never collide and FIFO tie-breaking is exact.
#[inline(always)]
fn pack(time: SimTime, seq: u64) -> u128 {
    ((time.as_micros() as u128) << 64) | seq as u128
}

#[inline(always)]
fn key_time(key: u128) -> SimTime {
    SimTime::from_micros((key >> 64) as u64)
}

/// Time-ordered event queue with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventCalendar<E> {
    /// Heap-ordered packed keys; `events[i]` is the payload of `keys[i]`.
    keys: Vec<u128>,
    events: Vec<E>,
    next_seq: u64,
}

impl<E> Default for EventCalendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventCalendar<E> {
    pub fn new() -> Self {
        EventCalendar {
            keys: Vec::new(),
            events: Vec::new(),
            next_seq: 0,
        }
    }

    pub fn with_capacity(cap: usize) -> Self {
        EventCalendar {
            keys: Vec::with_capacity(cap),
            events: Vec::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedule `event` at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.keys.push(pack(time, seq));
        self.events.push(event);
        self.sift_up(self.keys.len() - 1);
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.keys.is_empty() {
            return None;
        }
        let key = self.keys.swap_remove(0);
        let event = self.events.swap_remove(0);
        if self.keys.len() > 1 {
            self.sift_down(0);
        }
        Some((key_time(key), event))
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Move the entry at `i` up to its heap position. The key rides in a
    /// register (hole insertion — one store per level); the payload chases
    /// it with swaps so the two arrays stay aligned without `unsafe`.
    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let key = self.keys[i];
        while i > 0 {
            let parent = (i - 1) >> 2;
            if key >= self.keys[parent] {
                break;
            }
            self.keys[i] = self.keys[parent];
            self.events.swap(i, parent);
            i = parent;
        }
        self.keys[i] = key;
    }

    /// Move the entry at `i` down to its heap position (same hole scheme).
    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let n = self.keys.len();
        let key = self.keys[i];
        loop {
            let first = 4 * i + 1;
            if first >= n {
                break;
            }
            let last = (first + 4).min(n);
            // Scan the (up to four) contiguous children for the minimum.
            let mut min = first;
            let mut min_key = self.keys[first];
            for c in first + 1..last {
                let k = self.keys[c];
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            if min_key >= key {
                break;
            }
            self.keys[i] = min_key;
            self.events.swap(i, min);
            i = min;
        }
        self.keys[i] = key;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut c = EventCalendar::new();
        c.schedule(SimTime::from_secs(3), "c");
        c.schedule(SimTime::from_secs(1), "a");
        c.schedule(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| c.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut c = EventCalendar::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            c.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| c.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut c = EventCalendar::new();
        c.schedule(SimTime::from_secs(5), 5);
        c.schedule(SimTime::from_secs(1), 1);
        assert_eq!(c.pop(), Some((SimTime::from_secs(1), 1)));
        c.schedule(SimTime::from_secs(2), 2);
        assert_eq!(c.pop(), Some((SimTime::from_secs(2), 2)));
        assert_eq!(c.pop(), Some((SimTime::from_secs(5), 5)));
        assert!(c.pop().is_none());
    }

    /// The 4-ary heap must order exactly like a reference sort on
    /// (time, insertion order) under mixed schedule/pop churn.
    #[test]
    fn matches_reference_order_on_random_churn() {
        let mut rng = SimRng::new(71);
        let mut cal = EventCalendar::new();
        let mut reference: Vec<(u64, u64, u64)> = Vec::new(); // (time, seq, id)
        let mut clock = 0u64;
        for i in 0..30_000u64 {
            // Coarse time quantization forces plenty of exact ties.
            let t = clock + rng.next_below(50) * 1_000;
            cal.schedule(SimTime::from_micros(t), i);
            reference.push((t, i, i)); // insertion order == id here
            if i % 3 == 0 {
                reference.sort();
                let (t, _, id) = reference.remove(0);
                assert_eq!(cal.pop(), Some((SimTime::from_micros(t), id)));
                clock = t;
            }
        }
        reference.sort();
        for (t, _, id) in reference {
            assert_eq!(cal.pop(), Some((SimTime::from_micros(t), id)));
        }
        assert!(cal.pop().is_none());
    }
}
