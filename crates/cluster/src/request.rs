//! In-flight request state.
//!
//! Each web interaction in flight is one [`Request`] in a slab (free-list
//! recycled, so steady-state operation allocates nothing). Events carry a
//! [`ReqId`]; the request records where it is in the pipeline and which
//! tier resources it currently holds.

use crate::config::NodeId;
use crate::proxy::CacheOutcome;
use simkit::time::{SimDuration, SimTime};
use tpcw::browser::BrowserId;
use tpcw::interaction::Interaction;

/// Slab index of an in-flight request.
pub(crate) type ReqId = u32;

/// Where the request is in the pipeline — interpreted together with the
/// resource-completion event that carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReqPhase {
    /// Proxy CPU: cache lookup / request parsing.
    ProxyLookup,
    /// Proxy disk: reading a disk-store hit.
    ProxyDiskRead,
    /// Proxy NIC: sending the response to the browser.
    ProxySend,
    /// App CPU: servlet / static handler execution.
    AppCpu,
    /// DB CPU: query execution.
    DbCpu,
    /// DB disk: data page read.
    DbDiskRead,
    /// DB disk: binlog spill flush for an oversized transaction.
    DbBinlogFlush,
}

/// One in-flight web interaction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Request {
    pub(crate) browser: BrowserId,
    pub(crate) interaction: Interaction,
    pub(crate) issued_at: SimTime,
    /// Think time after this interaction completes (or fails). Drawn up
    /// front at admission so the browser stream's draws batch into one
    /// contiguous run (see `ClusterModel::issue_request`).
    pub(crate) think: SimDuration,
    /// Proxy node that accepted the request.
    pub(crate) proxy_node: NodeId,
    /// App node chosen when forwarded (meaningless for proxy hits).
    pub(crate) app_node: NodeId,
    /// DB node chosen for this request's queries.
    pub(crate) db_node: NodeId,
    /// Work line the request belongs to (0 when unpartitioned).
    pub(crate) line: u32,
    /// Which tiers this request was assigned a node in (for
    /// load-balancer accounting release).
    pub(crate) assigned_app: bool,
    pub(crate) assigned_db: bool,
    /// Cacheable object requested, if any.
    pub(crate) object: Option<u64>,
    /// Response size in bytes.
    pub(crate) response_bytes: u64,
    /// How the proxy resolved it.
    pub(crate) cache_outcome: CacheOutcome,
    /// True if the page needs servlet (AJP) execution.
    pub(crate) needs_servlet: bool,
    /// Database queries still to run.
    pub(crate) queries_remaining: u32,
    /// Pipeline position.
    pub(crate) phase: ReqPhase,
    /// Resources currently held (released on completion or failure).
    pub(crate) holds_http: bool,
    pub(crate) holds_ajp: bool,
    pub(crate) holds_db_conn: bool,
    pub(crate) holds_db_sched: bool,
    /// The current DB query needs a data-page disk read after its CPU
    /// slice.
    pub(crate) pending_disk: bool,
    /// Pending binlog spill after the current disk read (write queries
    /// whose transaction log overflowed `binlog_cache_size`).
    pub(crate) binlog_spill: bool,
    /// Generation counter guarding against stale events after slot reuse.
    pub(crate) generation: u32,
    /// How many browsers this request stands for (1 in the per-browser
    /// load model; the cohort token weight otherwise). Service demand is
    /// scaled and completions counted by this factor.
    pub(crate) weight: u32,
}

impl Request {
    pub(crate) fn new(browser: BrowserId, interaction: Interaction, issued_at: SimTime) -> Self {
        Request {
            browser,
            interaction,
            issued_at,
            think: SimDuration::ZERO,
            proxy_node: 0,
            app_node: 0,
            db_node: 0,
            line: 0,
            assigned_app: false,
            assigned_db: false,
            object: None,
            response_bytes: 0,
            cache_outcome: CacheOutcome::Miss,
            needs_servlet: false,
            queries_remaining: 0,
            phase: ReqPhase::ProxyLookup,
            holds_http: false,
            holds_ajp: false,
            holds_db_conn: false,
            holds_db_sched: false,
            pending_disk: false,
            binlog_spill: false,
            generation: 0,
            weight: 1,
        }
    }

    /// Response time so far.
    pub(crate) fn elapsed(&self, now: SimTime) -> SimDuration {
        now.since(self.issued_at)
    }
}

/// Free-list slab of requests.
///
/// Storage is a dense `Vec<Request>` — no `Option` wrapper, no boxing.
/// Liveness is carried entirely by the generation counters: a slot is
/// live iff its occupant's stamped `generation` equals the slot's current
/// generation, and the counter bumps exactly once per [`Self::remove`],
/// so a freed slot's stale occupant can never alias a live one. This is
/// what lets the event handlers use the unchecked [`Self::req`] accessors
/// after a single liveness check (one bounds check, no discriminant).
#[derive(Debug, Default)]
pub(crate) struct RequestSlab {
    slots: Vec<Request>,
    generations: Vec<u32>,
    free: Vec<ReqId>,
}

impl RequestSlab {
    pub(crate) fn new() -> Self {
        RequestSlab::default()
    }

    /// Insert a request, returning its id. The request's generation is
    /// stamped from the slot's generation counter.
    pub(crate) fn insert(&mut self, mut req: Request) -> ReqId {
        match self.free.pop() {
            Some(id) => {
                req.generation = self.generations[id as usize];
                self.slots[id as usize] = req;
                id
            }
            None => {
                let id = self.slots.len() as ReqId;
                req.generation = 0;
                self.generations.push(0);
                self.slots.push(req);
                id
            }
        }
    }

    /// Access a live request.
    pub(crate) fn get(&self, id: ReqId) -> Option<&Request> {
        let r = self.slots.get(id as usize)?;
        (r.generation == self.generations[id as usize]).then_some(r)
    }

    /// Direct access to a request known to be live (hot path; callers
    /// have already passed a generation check this event).
    #[inline(always)]
    pub(crate) fn req(&self, id: ReqId) -> &Request {
        debug_assert!(self.get(id).is_some(), "req() on dead slot {id}");
        &self.slots[id as usize]
    }

    /// Direct mutable access to a request known to be live.
    #[inline(always)]
    pub(crate) fn req_mut(&mut self, id: ReqId) -> &mut Request {
        debug_assert!(self.get(id).is_some(), "req_mut() on dead slot {id}");
        &mut self.slots[id as usize]
    }

    /// Remove a request, recycling its slot (generation bumps so stale
    /// events referencing the old occupant can be detected).
    pub(crate) fn remove(&mut self, id: ReqId) -> Option<Request> {
        let r = *self.slots.get(id as usize)?;
        if r.generation != self.generations[id as usize] {
            return None;
        }
        self.generations[id as usize] = self.generations[id as usize].wrapping_add(1);
        self.free.push(id);
        Some(r)
    }

    /// Generation of a request known to be live (hot path).
    #[inline(always)]
    pub(crate) fn stamp_of(&self, id: ReqId) -> u32 {
        debug_assert!(self.get(id).is_some(), "stamp_of() on dead slot {id}");
        self.generations[id as usize]
    }

    /// Requests currently live.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> Request {
        Request::new(3, Interaction::Home, SimTime::from_secs(1))
    }

    #[test]
    fn insert_get_remove() {
        let mut slab = RequestSlab::new();
        let id = slab.insert(req());
        assert_eq!(slab.live(), 1);
        assert_eq!(slab.get(id).unwrap().browser, 3);
        let removed = slab.remove(id).unwrap();
        assert_eq!(removed.interaction, Interaction::Home);
        assert_eq!(slab.live(), 0);
        assert!(slab.get(id).is_none());
        assert!(slab.remove(id).is_none());
    }

    #[test]
    fn slots_are_recycled_with_new_generation() {
        let mut slab = RequestSlab::new();
        let a = slab.insert(req());
        let gen_a = slab.get(a).unwrap().generation;
        slab.remove(a);
        let b = slab.insert(req());
        assert_eq!(a, b, "slot must be reused");
        let gen_b = slab.get(b).unwrap().generation;
        assert_ne!(gen_a, gen_b, "generation must change on reuse");
        assert_eq!(slab.stamp_of(b), gen_b);
    }

    #[test]
    fn dead_slot_is_invisible_until_reinserted() {
        let mut slab = RequestSlab::new();
        let a = slab.insert(req());
        slab.remove(a);
        // The dense slot still physically holds the old bytes, but every
        // checked accessor must treat it as vacant.
        assert!(slab.get(a).is_none());
        assert!(slab.remove(a).is_none(), "double-remove must be a no-op");
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn elapsed_measures_from_issue() {
        let r = req();
        assert_eq!(r.elapsed(SimTime::from_secs(3)), SimDuration::from_secs(2));
    }

    #[test]
    fn get_out_of_range_is_none() {
        let slab = RequestSlab::new();
        assert!(slab.get(42).is_none());
    }
}
