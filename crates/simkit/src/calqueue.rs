//! A calendar queue: the classic O(1)-amortised event set for
//! discrete-event simulation (Brown, CACM 1988), tuned for branch-light
//! steady-state operation.
//!
//! Events hash into day buckets by time; a year is `days × day_width`.
//! Both `days` and `day_width` are powers of two, so the hot-path bucket
//! index is a shift and a mask — no division, no modulo. Each bucket is
//! kept sorted *descending* by the packed `(time << 64) | seq` key, which
//! makes the bucket minimum a `Vec` tail: dequeue is a bounds check and a
//! `pop()`. A cached front pointer remembers where the global minimum
//! lives, so the engine's peek-then-pop loop pays the day scan once.
//!
//! The bucket width adapts on resize from the inter-quartile span of the
//! pending set rather than its full range: a handful of far-future timers
//! (browser think times, fault injections) can be thousands of days ahead
//! of the service-time cluster, and sizing the year to the full span would
//! smear the dense near-term events into a single bucket. Far-future
//! events simply wait in their day bucket until the cursor's year catches
//! up; a full fruitless year scan short-circuits by jumping straight to
//! the global minimum.
//!
//! Ordering contract: identical to [`crate::calendar::EventCalendar`] —
//! strict `(time, insertion order)` FIFO, so the two are interchangeable
//! without perturbing a single event of a seeded run. The engine uses this
//! queue; the heap remains as the reference implementation the randomized
//! cross-check tests compare against (see `benches/engine.rs` for the
//! performance comparison).

use crate::time::SimTime;

/// Packed totally-ordered key: `seq` is unique per queue, so keys never
/// collide and FIFO tie-breaking is exact.
#[inline(always)]
fn pack(time: SimTime, seq: u64) -> u128 {
    ((time.as_micros() as u128) << 64) | seq as u128
}

#[inline(always)]
fn key_time(key: u128) -> u64 {
    (key >> 64) as u64
}

const INITIAL_DAYS: usize = 16;
const MAX_DAYS: usize = 1 << 20;
/// 1.024 ms — the power-of-two neighbour of the old 1 ms default.
const INITIAL_SHIFT: u32 = 10;

/// Calendar queue with FIFO tie-breaking.
#[derive(Debug)]
pub struct CalendarQueue<E> {
    /// `buckets[d]` holds entries of every year whose time hashes to day
    /// `d`, sorted descending by key (minimum at the tail).
    buckets: Vec<Vec<(u128, E)>>,
    /// log2 of the day width in microseconds.
    width_shift: u32,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    day_mask: u64,
    /// Virtual day the dequeue cursor stands on (`time >> width_shift`,
    /// not wrapped). The cursor's bucket is `cursor_slot & day_mask`.
    cursor_slot: u64,
    /// Located global minimum: `(virtual day, key)` of the entry the next
    /// `pop` will take. `None` means the next peek/pop must search.
    front: Option<(u64, u128)>,
    len: usize,
    next_seq: u64,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..INITIAL_DAYS).map(|_| Vec::new()).collect(),
            width_shift: INITIAL_SHIFT,
            day_mask: INITIAL_DAYS as u64 - 1,
            cursor_slot: 0,
            front: None,
            len: 0,
            next_seq: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `event` at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = pack(time, seq);
        let slot = time.as_micros() >> self.width_shift;
        let bucket = &mut self.buckets[(slot & self.day_mask) as usize];
        // Insert keeping the bucket sorted descending; new events are
        // usually the nearest-future entries of their bucket, i.e. they
        // belong at or near the tail, so scan from the tail.
        let mut pos = bucket.len();
        while pos > 0 && bucket[pos - 1].0 < key {
            pos -= 1;
        }
        bucket.insert(pos, (key, event));
        self.len += 1;
        // An event earlier than the cursor (or the located front) moves
        // the search state back; same-or-later events leave it untouched.
        if slot < self.cursor_slot {
            self.cursor_slot = slot;
        }
        if let Some((_, fkey)) = self.front {
            if key < fkey {
                self.front = Some((slot, key));
            }
        }
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_DAYS {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// Locate the global minimum, advancing the cursor. Amortised O(1):
    /// the cursor never moves backwards except for out-of-order schedules,
    /// and a fruitless full-year scan jumps straight to the minimum.
    fn locate_front(&mut self) -> Option<(u64, u128)> {
        if let Some(f) = self.front {
            return Some(f);
        }
        if self.len == 0 {
            return None;
        }
        let mut scanned = 0usize;
        loop {
            let bucket = &self.buckets[(self.cursor_slot & self.day_mask) as usize];
            if let Some(&(key, _)) = bucket.last() {
                // All events of this day window share this bucket, so an
                // in-window tail is the global minimum.
                let window_end = ((self.cursor_slot + 1) as u128) << self.width_shift;
                if (key >> 64) < window_end {
                    let f = (self.cursor_slot, key);
                    self.front = Some(f);
                    return Some(f);
                }
            }
            self.cursor_slot += 1;
            scanned += 1;
            if scanned >= self.buckets.len() {
                // A whole year without a hit: the pending set is sparse
                // and far away. Jump the cursor to the true minimum
                // (guaranteed present: len > 0 was checked above).
                let min = self
                    .buckets
                    .iter()
                    .filter_map(|b| b.last())
                    .map(|&(k, _)| k)
                    .min()?;
                self.cursor_slot = key_time(min) >> self.width_shift;
                scanned = 0;
            }
        }
    }

    /// Time of the earliest pending event (amortised O(1); the located
    /// position is cached for the following `pop`).
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        self.locate_front()
            .map(|(_, key)| SimTime::from_micros(key_time(key)))
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (slot, key) = self.locate_front()?;
        self.front = None;
        let bucket = &mut self.buckets[(slot & self.day_mask) as usize];
        debug_assert_eq!(bucket.last().map(|&(k, _)| k), Some(key));
        let (_, event) = bucket.pop()?;
        self.len -= 1;
        if self.len < self.buckets.len() / 4 && self.buckets.len() > INITIAL_DAYS {
            self.resize(self.buckets.len() / 2);
        }
        Some((SimTime::from_micros(key_time(key)), event))
    }

    /// Rebuild with `new_days` buckets, re-deriving the day width from the
    /// inter-quartile spread of the pending set so outlier far-future
    /// timers don't dictate the year length.
    fn resize(&mut self, new_days: usize) {
        let mut entries: Vec<(u128, E)> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            entries.append(b);
        }
        entries.sort_unstable_by_key(|&(k, _)| k);
        if entries.len() >= 4 {
            // Width follows the average gap across the *head* of the queue
            // (Brown's "average separation of the first events"): that is
            // the region every pop walks through, so it is what the bucket
            // granularity must match. Far-future outliers (think timers,
            // fault injections) deliberately don't dilute it — they alias
            // into later years and wait there. The head quarter (capped)
            // smooths over a same-instant burst at the very front.
            let k = (entries.len() / 4).clamp(4, 256).min(entries.len());
            let span = key_time(entries[k - 1].0) - key_time(entries[0].0);
            let target = (span * 2 / (k as u64 - 1)).max(1);
            // Round down to a power of two via the leading bit.
            self.width_shift = 63 - target.leading_zeros();
        }
        self.buckets = (0..new_days).map(|_| Vec::new()).collect();
        self.day_mask = new_days as u64 - 1;
        // Entries arrive in ascending key order; pushing reversed keeps
        // every bucket sorted descending without re-sorting.
        for (key, event) in entries.into_iter().rev() {
            let slot = key_time(key) >> self.width_shift;
            self.buckets[(slot & self.day_mask) as usize].push((key, event));
        }
        self.cursor_slot = self
            .buckets
            .iter()
            .filter_map(|b| b.last())
            .map(|&(k, _)| key_time(k) >> self.width_shift)
            .min()
            .unwrap_or(0);
        self.front = None;
    }

    /// Current bucket count (resize tests).
    #[cfg(test)]
    fn days(&self) -> usize {
        self.buckets.len()
    }

    /// Current day width in microseconds (always a power of two).
    #[cfg(test)]
    fn day_width_micros(&self) -> u64 {
        1 << self.width_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order_fifo_ties() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_micros(30), "c");
        q.schedule(SimTime::from_micros(10), "a");
        q.schedule(SimTime::from_micros(10), "a2");
        q.schedule(SimTime::from_micros(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "a2", "b", "c"]);
    }

    #[test]
    fn matches_binary_heap_on_random_workload() {
        use crate::calendar::EventCalendar;
        let mut rng = SimRng::new(99);
        let mut cal = EventCalendar::new();
        let mut cq = CalendarQueue::new();
        // Mixed schedule/pop churn, like a running simulation.
        let mut clock = 0u64;
        for i in 0..20_000u64 {
            let t = clock + rng.next_below(50_000);
            cal.schedule(SimTime::from_micros(t), i);
            cq.schedule(SimTime::from_micros(t), i);
            if i % 3 == 0 {
                let a = cal.pop();
                let b = cq.pop();
                assert_eq!(a, b, "diverged at step {i}");
                if let Some((t, _)) = a {
                    clock = t.as_micros();
                }
            }
        }
        // Drain both.
        loop {
            let a = cal.pop();
            let b = cq.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// The cluster workload shape: a dense cluster of near-term service
    /// events plus a long exponential tail of think-time timers. The
    /// adaptive width must keep this exact-ordered too.
    #[test]
    fn matches_binary_heap_on_bimodal_workload() {
        use crate::calendar::EventCalendar;
        let mut rng = SimRng::new(7);
        let mut cal = EventCalendar::new();
        let mut cq = CalendarQueue::new();
        let mut clock = 0u64;
        for i in 0..30_000u64 {
            let t = if rng.chance(0.3) {
                clock + 7_000_000 + rng.next_below(20_000_000) // think: seconds out
            } else {
                clock + rng.next_below(3_000) // service: microseconds out
            };
            cal.schedule(SimTime::from_micros(t), i);
            cq.schedule(SimTime::from_micros(t), i);
            if i % 2 == 0 {
                let a = cal.pop();
                assert_eq!(a, cq.pop(), "diverged at step {i}");
                if let Some((t, _)) = a {
                    clock = t.as_micros();
                }
            }
        }
        loop {
            let a = cal.pop();
            assert_eq!(a, cq.pop());
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn sparse_far_future_events_found() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_secs(3_600), 1); // one event, far away
        assert_eq!(q.pop(), Some((SimTime::from_secs(3_600), 1)));
        assert!(q.pop().is_none());
    }

    /// Satellite regression: events landing whole years past the cursor
    /// must surface in exact order even when interleaved with near events
    /// (the year-scan short-circuit and the day-wrap must agree).
    #[test]
    fn far_future_events_past_current_year_in_order() {
        let mut q = CalendarQueue::new();
        // One year at the initial geometry is 16 * 1.024 ms; schedule
        // events 0, 1, 10, and 1000 years ahead plus a same-day tie.
        let year = 16 * 1_024u64;
        q.schedule(SimTime::from_micros(3 * year / 2), "next-year");
        q.schedule(SimTime::from_micros(10 * year), "decade");
        q.schedule(SimTime::from_micros(100), "now");
        q.schedule(SimTime::from_micros(1_000 * year), "millennium");
        q.schedule(SimTime::from_micros(100), "now-tie");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec!["now", "now-tie", "next-year", "decade", "millennium"]
        );
    }

    /// Satellite regression: growth doubles and shrink halves exactly at
    /// the power-of-two occupancy boundaries, and no entry is lost or
    /// reordered across either edge.
    #[test]
    fn resize_at_power_of_two_boundaries() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.days(), 16);
        // Fill to exactly 2 * days: the next schedule must double.
        for i in 0..32u64 {
            q.schedule(SimTime::from_micros(i * 97), i);
        }
        assert_eq!(q.days(), 16, "at the boundary, not past it");
        q.schedule(SimTime::from_micros(32 * 97), 32);
        assert_eq!(q.days(), 32, "33rd entry crosses 2*16");
        assert!(q.day_width_micros().is_power_of_two());
        // Keep growing through another doubling.
        for i in 33..70u64 {
            q.schedule(SimTime::from_micros(i * 97), i);
        }
        assert_eq!(q.days(), 64);
        // Drain: shrink must step back down through the same powers.
        let mut seen = Vec::new();
        while let Some((_, e)) = q.pop() {
            seen.push(e);
        }
        assert_eq!(
            seen,
            (0..70).collect::<Vec<_>>(),
            "exact order across resizes"
        );
        assert_eq!(q.days(), 16, "shrunk back to the floor");
    }

    /// Satellite regression: same-timestamp events keep insertion order
    /// across bucket growth, a cursor year-wrap, and interleaved pops.
    #[test]
    fn same_timestamp_fifo_across_resize_and_wrap() {
        let mut q = CalendarQueue::new();
        let t = SimTime::from_micros(5_000_000);
        for i in 0..100u64 {
            q.schedule(t, i);
            // Interleave far decoys to force growth + a year scan.
            q.schedule(SimTime::from_micros(10_000_000 + i * 1_000_000), 1_000 + i);
        }
        for want in 0..100u64 {
            assert_eq!(q.pop(), Some((t, want)));
        }
    }

    #[test]
    fn growth_and_shrink_preserve_contents() {
        let mut q = CalendarQueue::new();
        for i in 0..1_000u64 {
            q.schedule(SimTime::from_micros(i * 7), i);
        }
        assert_eq!(q.len(), 1_000);
        let mut last = 0;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t.as_micros() >= last);
            last = t.as_micros();
            count += 1;
        }
        assert_eq!(count, 1_000);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        let mut rng = SimRng::new(4);
        for i in 0..500u64 {
            q.schedule(SimTime::from_micros(rng.next_below(10_000)), i);
        }
        while let Some(pt) = q.peek_time() {
            let (t, _) = q.pop().unwrap();
            assert_eq!(t, pt);
        }
    }

    #[test]
    fn peek_then_schedule_earlier_then_pop_is_exact() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_micros(500), "late");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(500)));
        // The cached front must yield to a newly scheduled earlier event.
        q.schedule(SimTime::from_micros(20), "early");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(20)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(20), "early")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(500), "late")));
    }
}
