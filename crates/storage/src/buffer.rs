//! A capacity-bounded LRU buffer pool of disk pages.
//!
//! A resident [`crate::SeriesStore`] tracks page *identifiers* only
//! ([`BufferPool::access`]) — enough to decide whether an access would
//! have cost an I/O; a file-backed one caches the page *contents* as shared
//! frames ([`BufferPool::fetch`] / [`BufferPool::install`]), and an
//! eviction really drops bytes the next access must read back. Both entry
//! points share one LRU, so the hit/miss/eviction sequence for a given
//! access pattern and capacity is identical whether frames are cached or
//! not.

use std::sync::Arc;

use crate::coded::CodedPage;

/// The cached contents of one page. A store caches either raw f32 frames
/// (the f32 codec) or coded pages (the u8/f16 codecs) — one kind per
/// store, but the pool itself is agnostic: hit/miss/eviction decisions
/// depend only on page identity, never on the frame representation.
#[derive(Debug, Clone)]
pub enum Frame {
    /// A raw page frame of f32 values.
    Raw(Arc<[f32]>),
    /// A compressed page (u8/f16 codes plus residual norms).
    Coded(Arc<CodedPage>),
}

impl Frame {
    /// Approximate footprint in f32-equivalents, for
    /// [`BufferPool::resident_values`].
    fn values(&self) -> usize {
        match self {
            Frame::Raw(f) => f.len(),
            Frame::Coded(p) => p.footprint_values(),
        }
    }

    /// The raw f32 frame, if this is one.
    pub fn as_raw(&self) -> Option<Arc<[f32]>> {
        match self {
            Frame::Raw(f) => Some(Arc::clone(f)),
            Frame::Coded(_) => None,
        }
    }

    /// The coded page, if this is one.
    pub fn as_coded(&self) -> Option<Arc<CodedPage>> {
        match self {
            Frame::Coded(p) => Some(Arc::clone(p)),
            Frame::Raw(_) => None,
        }
    }
}

/// "No neighbour" in the intrusive recency list.
const NIL: usize = usize::MAX;

/// Everything the pool knows about one page id: its place in the recency
/// list while resident, its pin count (independent of residency) and, for
/// file-backed stores, the cached frame contents.
#[derive(Debug)]
struct Slot {
    /// Neighbour towards the least recently used end ([`NIL`] at the
    /// end); like `next`, meaningful only while the page is resident.
    prev: usize,
    /// Neighbour towards the most recently used end.
    next: usize,
    pins: u32,
    resident: bool,
    frame: Option<Frame>,
}

impl Slot {
    const VACANT: Slot = Slot {
        prev: NIL,
        next: NIL,
        pins: 0,
        resident: false,
        frame: None,
    };
}

/// LRU set of pages with a fixed capacity, optionally caching page bytes.
///
/// Pages can additionally be **pinned** ([`BufferPool::pin`]): a batch that
/// knows its working set up front pins those pages so that its own
/// scattered accesses cannot evict them mid-batch. Pinning never changes
/// the hit/miss accounting of an access — it only constrains the *victim
/// choice*: eviction takes the least recently used unpinned page, and if
/// every resident page is pinned the pool degrades to read-through (the
/// new page is served but not cached). Pins are reference-counted so
/// concurrent batches compose.
///
/// Page ids are expected to be **dense** — a store numbers its pages
/// `0..num_pages` — because the pool is one slab indexed by page id: a
/// hit, a miss, a pin and an invalidation are each an array index plus a
/// few link updates, with no hashing and no ordered map. The slab grows to
/// the largest id ever cached or pinned and costs a few words per page.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    /// One slot per page id; resident slots are threaded into a doubly
    /// linked recency list through their `prev`/`next` fields.
    slots: Vec<Slot>,
    /// Least recently used resident page ([`NIL`] when empty).
    head: usize,
    /// Most recently used resident page.
    tail: usize,
    /// Number of resident pages.
    len: usize,
    /// Number of distinct pages holding at least one pin.
    pinned: usize,
    evictions: u64,
    /// Total `f32` values held by cached frames (0 in id-only mode).
    resident_values: usize,
}

impl BufferPool {
    /// Creates a pool able to hold `capacity` pages. A capacity of zero
    /// means every access misses (pure cold-cache disk behaviour).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            pinned: 0,
            evictions: 0,
            resident_values: 0,
        }
    }

    /// Capacity in pages.
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident pages.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pool is empty.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages evicted since creation (or the last [`BufferPool::clear`]).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total `f32` values held by cached frames — the pool's real memory
    /// footprint in file-backed mode (always 0 in id-only mode).
    #[cfg(test)]
    pub fn resident_values(&self) -> usize {
        self.resident_values
    }

    /// The slot of `page`, if the slab ever grew to cover it.
    fn slot(&self, page: u64) -> Option<&Slot> {
        self.slots.get(usize::try_from(page).ok()?)
    }

    /// The slab index of `page`, growing the slab to cover it.
    fn slot_index(&mut self, page: u64) -> usize {
        let idx = usize::try_from(page).expect("page ids are dense and fit the address space");
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || Slot::VACANT);
        }
        idx
    }

    /// Takes slot `idx` out of the recency list.
    fn unlink(&mut self, idx: usize) {
        let Slot { prev, next, .. } = self.slots[idx];
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Appends slot `idx` at the most recently used end.
    fn link_most_recent(&mut self, idx: usize) {
        self.slots[idx].prev = self.tail;
        self.slots[idx].next = NIL;
        match self.tail {
            NIL => self.head = idx,
            t => self.slots[t].next = idx,
        }
        self.tail = idx;
    }

    /// Drops the resident page in slot `idx` (its pins stay).
    fn vacate(&mut self, idx: usize) {
        self.unlink(idx);
        let slot = &mut self.slots[idx];
        slot.resident = false;
        if let Some(frame) = slot.frame.take() {
            self.resident_values -= frame.values();
        }
        self.len -= 1;
    }

    /// Marks `page` as most recently used. Returns its slab index if it
    /// was resident.
    fn touch(&mut self, page: u64) -> Option<usize> {
        let idx = usize::try_from(page).ok()?;
        if !self.slots.get(idx)?.resident {
            return None;
        }
        if self.tail != idx {
            self.unlink(idx);
            self.link_most_recent(idx);
        }
        Some(idx)
    }

    /// Makes a slot available, evicting the least recently used *unpinned*
    /// page if the pool is full. Returns `false` when no slot could be
    /// freed because every resident page is pinned — the caller then skips
    /// caching (read-through).
    fn make_room(&mut self) -> bool {
        if self.len < self.capacity {
            return true;
        }
        let mut victim = self.head;
        while victim != NIL && self.slots[victim].pins > 0 {
            victim = self.slots[victim].next;
        }
        if victim == NIL {
            return false;
        }
        self.vacate(victim);
        self.evictions += 1;
        true
    }

    fn insert_slot(&mut self, page: u64, frame: Option<Frame>) {
        if self.capacity == 0 || !self.make_room() {
            return;
        }
        if let Some(frame) = &frame {
            self.resident_values += frame.values();
        }
        let idx = self.slot_index(page);
        let slot = &mut self.slots[idx];
        slot.resident = true;
        slot.frame = frame;
        self.link_most_recent(idx);
        self.len += 1;
    }

    /// Records an id-only access to `page` (resident/simulated stores).
    /// Returns `true` if the page was already resident (hit), `false` if it
    /// had to be "read from disk" (miss, now cached).
    pub fn access(&mut self, page: u64) -> bool {
        if self.touch(page).is_some() {
            return true;
        }
        self.insert_slot(page, None);
        false
    }

    /// Looks up the cached frame of `page` (file-backed stores). A hit
    /// touches recency and returns a shared handle to the frame; a miss
    /// returns `None` — the caller reads the page from disk and
    /// [`BufferPool::install`]s it.
    pub fn fetch(&mut self, page: u64) -> Option<Frame> {
        let idx = self.touch(page)?;
        self.slots[idx].frame.clone()
    }

    /// Caches the frame a [`BufferPool::fetch`] miss loaded from disk,
    /// evicting the least recently used page if the pool is full. A
    /// zero-capacity pool caches nothing. If `page` became resident while
    /// the frame was being read (another reader missed it too and
    /// installed first), the resident frame stays and `frame` is dropped.
    pub fn install(&mut self, page: u64, frame: Frame) {
        if !self.contains(page) {
            self.insert_slot(page, Some(frame));
        }
    }

    /// Whether `page` is currently resident (without touching recency).
    pub fn contains(&self, page: u64) -> bool {
        self.slot(page).is_some_and(|slot| slot.resident)
    }

    /// Pins `page`: while pinned it is never chosen as an eviction victim.
    /// Pinning is reference-counted ([`BufferPool::unpin`] releases one
    /// count) and independent of residency — pinning a non-resident page
    /// protects it from the moment it is cached. Pins never change
    /// hit/miss accounting, only victim choice.
    pub fn pin(&mut self, page: u64) {
        let idx = self.slot_index(page);
        if self.slots[idx].pins == 0 {
            self.pinned += 1;
        }
        self.slots[idx].pins += 1;
    }

    /// Releases one pin count of `page`; at zero the page rejoins the
    /// plain LRU victim order at its current recency. Unpinning a page
    /// that was never pinned is a no-op.
    pub fn unpin(&mut self, page: u64) {
        let Some(slot) = usize::try_from(page)
            .ok()
            .and_then(|idx| self.slots.get_mut(idx))
        else {
            return;
        };
        if slot.pins > 0 {
            slot.pins -= 1;
            if slot.pins == 0 {
                self.pinned -= 1;
            }
        }
    }

    /// Whether `page` currently holds at least one pin.
    #[cfg(test)]
    pub fn is_pinned(&self, page: u64) -> bool {
        self.slot(page).is_some_and(|slot| slot.pins > 0)
    }

    /// Number of distinct currently pinned pages.
    #[cfg(test)]
    pub fn pinned_pages(&self) -> usize {
        self.pinned
    }

    /// Drops `page` from the pool if resident, without counting an
    /// eviction — this is an *invalidation* (the cached frame no longer
    /// reflects the store, e.g. because an append extended the page), not a
    /// capacity decision. The next access misses and reloads fresh bytes.
    pub fn remove(&mut self, page: u64) {
        if self.contains(page) {
            self.vacate(page as usize);
        }
    }

    /// Drops every resident page and zeroes the eviction counter (the paper
    /// clears OS caches between the index-building and query-answering
    /// steps). Pins are left in place: they belong to an in-flight batch,
    /// not to the cache contents.
    pub fn clear(&mut self) {
        while self.head != NIL {
            self.vacate(self.head);
        }
        self.evictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits() {
        let mut p = BufferPool::new(4);
        assert!(!p.access(1));
        assert!(p.access(1));
        assert_eq!(p.len(), 1);
        assert!(p.contains(1));
        assert!(!p.is_empty());
        assert_eq!(p.capacity(), 4);
        assert_eq!(p.evictions(), 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = BufferPool::new(2);
        p.access(1);
        p.access(2);
        p.access(1); // 1 is now more recent than 2
        p.access(3); // evicts 2
        assert!(p.contains(1));
        assert!(!p.contains(2));
        assert!(p.contains(3));
        assert_eq!(p.len(), 2);
        assert_eq!(p.evictions(), 1);
    }

    #[test]
    fn zero_capacity_always_misses() {
        let mut p = BufferPool::new(0);
        assert!(!p.access(7));
        assert!(!p.access(7));
        assert!(p.is_empty());
        assert_eq!(p.evictions(), 0);
    }

    #[test]
    fn clear_empties_the_pool() {
        let mut p = BufferPool::new(8);
        for i in 0..5 {
            p.access(i);
        }
        p.clear();
        assert!(p.is_empty());
        assert!(!p.access(0), "after clear, accesses miss again");
    }

    #[test]
    fn large_workload_respects_capacity() {
        let mut p = BufferPool::new(16);
        for i in 0..10_000u64 {
            p.access(i % 64);
        }
        assert!(p.len() <= 16);
        assert!(p.evictions() > 0);
    }

    fn frame(values: &[f32]) -> Frame {
        Frame::Raw(Arc::from(values.to_vec()))
    }

    #[test]
    fn fetch_and_install_cache_real_frames() {
        let mut p = BufferPool::new(2);
        assert!(p.fetch(0).is_none(), "cold pool misses");
        p.install(0, frame(&[1.0, 2.0]));
        assert_eq!(
            p.fetch(0).and_then(|f| f.as_raw()).as_deref(),
            Some(&[1.0f32, 2.0][..])
        );
        assert_eq!(p.resident_values(), 2);
        p.install(1, frame(&[3.0]));
        assert_eq!(p.resident_values(), 3);
        // Touch 0, then install 2: the LRU victim is 1 and its bytes are
        // genuinely dropped.
        assert!(p.fetch(0).is_some());
        p.install(2, frame(&[4.0, 5.0, 6.0]));
        assert!(p.fetch(1).is_none(), "evicted frame is gone");
        assert_eq!(p.evictions(), 1);
        assert_eq!(p.resident_values(), 5);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn capacity_one_pool_holds_exactly_the_last_frame() {
        let mut p = BufferPool::new(1);
        // Pinned hit/miss/eviction sequence for pages 0,0,1,0 at capacity 1:
        // miss, hit, miss(evict 0), miss(evict 1).
        assert!(p.fetch(0).is_none());
        p.install(0, frame(&[0.0]));
        assert!(p.fetch(0).is_some());
        assert!(p.fetch(1).is_none());
        p.install(1, frame(&[1.0]));
        assert!(p.fetch(0).is_none());
        p.install(0, frame(&[0.0]));
        assert_eq!(p.evictions(), 2);
        assert_eq!(p.len(), 1);
        assert_eq!(p.resident_values(), 1);
    }

    #[test]
    fn zero_capacity_never_caches_frames() {
        let mut p = BufferPool::new(0);
        assert!(p.fetch(3).is_none());
        p.install(3, frame(&[9.0]));
        assert!(p.fetch(3).is_none());
        assert_eq!(p.resident_values(), 0);
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn install_over_a_resident_page_keeps_the_first_frame() {
        // Two readers missed page 0 at once; the second to finish finds it
        // installed and its frame is dropped, with no eviction and no
        // change to the footprint.
        let mut p = BufferPool::new(2);
        p.install(0, frame(&[1.0, 2.0]));
        p.install(0, frame(&[9.0]));
        assert_eq!(
            p.fetch(0).and_then(|f| f.as_raw()).as_deref(),
            Some(&[1.0f32, 2.0][..])
        );
        assert_eq!((p.len(), p.evictions(), p.resident_values()), (1, 0, 2));
    }

    #[test]
    fn remove_invalidates_without_counting_an_eviction() {
        let mut p = BufferPool::new(2);
        p.install(0, frame(&[1.0, 2.0]));
        p.install(1, frame(&[3.0]));
        p.remove(0);
        assert!(!p.contains(0));
        assert!(p.fetch(0).is_none(), "an invalidated page must miss");
        assert_eq!(p.evictions(), 0, "invalidation is not an eviction");
        assert_eq!(p.resident_values(), 1);
        assert_eq!(p.len(), 1);
        // Removing an absent page is a no-op.
        p.remove(42);
        assert_eq!(p.len(), 1);
        // The freed slot is genuinely reusable without evicting.
        p.install(2, frame(&[4.0]));
        assert_eq!(p.evictions(), 0);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn id_only_and_frame_modes_share_one_lru_policy() {
        // The same access pattern at the same capacity produces the same
        // hit/miss sequence through both entry points.
        let pattern = [0u64, 1, 2, 0, 3, 1, 1, 4, 0];
        let capacity = 2;
        let mut id_only = BufferPool::new(capacity);
        let id_hits: Vec<bool> = pattern.iter().map(|&pg| id_only.access(pg)).collect();
        let mut framed = BufferPool::new(capacity);
        let frame_hits: Vec<bool> = pattern
            .iter()
            .map(|&pg| {
                if framed.fetch(pg).is_some() {
                    true
                } else {
                    framed.install(pg, frame(&[pg as f32]));
                    false
                }
            })
            .collect();
        assert_eq!(id_hits, frame_hits);
        assert_eq!(id_only.evictions(), framed.evictions());
    }

    #[test]
    fn pinned_pages_are_never_evicted() {
        let mut p = BufferPool::new(2);
        p.pin(0);
        p.access(0);
        for page in 1..20u64 {
            p.access(page);
        }
        assert!(p.contains(0), "pinned page survived the sweep");
        assert!(p.is_pinned(0));
        assert_eq!(p.len(), 2);
        p.unpin(0);
        // Unpinned, it is the LRU victim again.
        p.access(100);
        assert!(!p.contains(0), "after release the plain LRU order applies");
    }

    #[test]
    fn fully_pinned_pool_degrades_to_read_through() {
        let mut p = BufferPool::new(1);
        p.pin(0);
        assert!(!p.access(0));
        let evictions_before = p.evictions();
        // The only slot is pinned: new pages are served but not cached,
        // and nothing is evicted.
        assert!(!p.access(1));
        assert!(!p.access(1), "read-through pages keep missing");
        assert!(p.access(0), "the pinned page is still resident");
        assert_eq!(p.evictions(), evictions_before);
        assert_eq!(p.len(), 1);
        p.unpin(0);
        assert!(!p.access(2));
        assert!(!p.contains(0), "release re-enables eviction");
    }

    #[test]
    fn pins_are_reference_counted() {
        let mut p = BufferPool::new(1);
        p.pin(3);
        p.pin(3);
        p.access(3);
        p.unpin(3);
        assert!(p.is_pinned(3), "one of two pins released");
        p.access(4);
        assert!(p.contains(3));
        p.unpin(3);
        assert!(!p.is_pinned(3));
        assert_eq!(p.pinned_pages(), 0);
        // Unpinning a never-pinned page is a no-op.
        p.unpin(77);
        p.access(5);
        assert!(!p.contains(3));
    }

    #[test]
    fn pinning_never_changes_hit_or_miss_accounting() {
        // The same access pattern with and without pins yields the same
        // hit/miss sequence whenever the pinned pages are the ones LRU
        // would have kept anyway.
        let pattern = [0u64, 1, 0, 1, 0, 1];
        let mut plain = BufferPool::new(2);
        let plain_hits: Vec<bool> = pattern.iter().map(|&pg| plain.access(pg)).collect();
        let mut pinned = BufferPool::new(2);
        pinned.pin(0);
        pinned.pin(1);
        let pinned_hits: Vec<bool> = pattern.iter().map(|&pg| pinned.access(pg)).collect();
        assert_eq!(plain_hits, pinned_hits);
        assert_eq!(plain.evictions(), pinned.evictions());
    }

    /// Reference LRU-with-pins model, mirroring the documented pool
    /// semantics move for move. The proptests below replay random op
    /// sequences against both and require identical observable state.
    struct ModelPool {
        capacity: usize,
        /// Resident pages, least recently used first.
        recency: Vec<u64>,
        pins: Vec<u64>,
        evictions: u64,
    }

    impl ModelPool {
        fn new(capacity: usize) -> Self {
            Self {
                capacity,
                recency: Vec::new(),
                pins: Vec::new(),
                evictions: 0,
            }
        }

        fn access(&mut self, page: u64) -> bool {
            if let Some(pos) = self.recency.iter().position(|&p| p == page) {
                self.recency.remove(pos);
                self.recency.push(page);
                return true;
            }
            if self.capacity == 0 {
                return false;
            }
            if self.recency.len() >= self.capacity {
                let victim = self
                    .recency
                    .iter()
                    .position(|p| !self.pins.contains(p));
                match victim {
                    Some(pos) => {
                        self.recency.remove(pos);
                        self.evictions += 1;
                    }
                    None => return false, // read-through: not cached
                }
            }
            self.recency.push(page);
            false
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random op sequences (accesses, pins, unpins, invalidations) keep
        /// the pool in lock-step with the reference model: same residency,
        /// same eviction count, pinned pages never evicted, and the
        /// counting invariants `hits + misses == reads` and
        /// `evictions <= misses` hold throughout.
        #[test]
        fn random_ops_match_the_lru_pin_model(
            ops in collection::vec(0usize..96, 1..256),
            cap in 0usize..5,
        ) {
            let mut pool = BufferPool::new(cap);
            let mut model = ModelPool::new(cap);
            let (mut reads, mut hits, mut misses) = (0u64, 0u64, 0u64);
            for op in ops {
                let page = (op % 8) as u64;
                match op / 8 {
                    0..=7 => {
                        reads += 1;
                        let hit = pool.access(page);
                        prop_assert_eq!(hit, model.access(page));
                        if hit { hits += 1 } else { misses += 1 }
                    }
                    8 | 9 => {
                        pool.pin(page);
                        model.pins.push(page);
                    }
                    10 => {
                        if model.pins.contains(&page) {
                            pool.unpin(page);
                            let pos = model.pins.iter().position(|&p| p == page).unwrap();
                            model.pins.swap_remove(pos);
                        }
                    }
                    _ => {
                        pool.remove(page);
                        model.recency.retain(|&p| p != page);
                    }
                }
                // Residency and eviction totals agree with the model after
                // every single op — this subsumes "a pinned page is never
                // evicted" and "release restores plain LRU order".
                for probe in 0..8u64 {
                    prop_assert_eq!(
                        pool.contains(probe),
                        model.recency.contains(&probe),
                        "page {} residency drifted from the model", probe
                    );
                }
                prop_assert_eq!(pool.evictions(), model.evictions);
                prop_assert!(pool.len() <= cap);
            }
            prop_assert_eq!(hits + misses, reads);
            prop_assert!(pool.evictions() <= misses, "an eviction implies an earlier miss");
        }

        /// The id-only and frame entry points agree on hits, misses and
        /// evictions under pins too — the property that keeps resident and
        /// file-backed stores' I/O accounting identical during pinned
        /// batches.
        #[test]
        fn id_only_and_frame_modes_agree_under_pins(
            ops in collection::vec(0usize..48, 1..128),
            cap in 0usize..4,
        ) {
            let mut id_only = BufferPool::new(cap);
            let mut framed = BufferPool::new(cap);
            for op in ops {
                let page = (op % 8) as u64;
                match op / 8 {
                    0..=3 => {
                        let id_hit = id_only.access(page);
                        let frame_hit = if framed.fetch(page).is_some() {
                            true
                        } else {
                            framed.install(page, frame(&[page as f32]));
                            false
                        };
                        prop_assert_eq!(id_hit, frame_hit);
                    }
                    4 => {
                        id_only.pin(page);
                        framed.pin(page);
                    }
                    _ => {
                        id_only.unpin(page);
                        framed.unpin(page);
                    }
                }
                prop_assert_eq!(id_only.evictions(), framed.evictions());
                prop_assert_eq!(id_only.len(), framed.len());
            }
        }
    }

    /// The map-based pool this slab replaced (a `HashMap` of slots, a
    /// `BTreeMap` from last-use timestamp to page, a `HashMap` of pin
    /// counts), kept verbatim as the behavioural reference: the slab must
    /// reproduce its hit/miss/eviction/victim-choice sequence move for
    /// move, because every I/O counter the stores report derives from it.
    mod map_pool {
        use super::Frame;
        use std::collections::{BTreeMap, HashMap};

        struct Slot {
            ts: u64,
            frame: Option<Frame>,
        }

        pub struct MapPool {
            capacity: usize,
            pages: HashMap<u64, Slot>,
            lru: BTreeMap<u64, u64>,
            pins: HashMap<u64, u32>,
            clock: u64,
            evictions: u64,
        }

        impl MapPool {
            pub fn new(capacity: usize) -> Self {
                Self {
                    capacity,
                    pages: HashMap::new(),
                    lru: BTreeMap::new(),
                    pins: HashMap::new(),
                    clock: 0,
                    evictions: 0,
                }
            }

            pub fn len(&self) -> usize {
                self.pages.len()
            }

            pub fn evictions(&self) -> u64 {
                self.evictions
            }

            fn touch(&mut self, page: u64) -> bool {
                self.clock += 1;
                if let Some(slot) = self.pages.get_mut(&page) {
                    self.lru.remove(&slot.ts);
                    slot.ts = self.clock;
                    self.lru.insert(self.clock, page);
                    true
                } else {
                    false
                }
            }

            fn make_room(&mut self) -> bool {
                if self.pages.len() < self.capacity {
                    return true;
                }
                let victim = self
                    .lru
                    .iter()
                    .find(|(_, page)| !self.pins.contains_key(page))
                    .map(|(&ts, &page)| (ts, page));
                let Some((oldest_ts, victim)) = victim else {
                    return false;
                };
                self.lru.remove(&oldest_ts);
                self.pages.remove(&victim);
                self.evictions += 1;
                true
            }

            fn insert_slot(&mut self, page: u64, frame: Option<Frame>) {
                if self.capacity == 0 {
                    return;
                }
                self.clock += 1;
                if !self.make_room() {
                    return;
                }
                self.pages.insert(
                    page,
                    Slot {
                        ts: self.clock,
                        frame,
                    },
                );
                self.lru.insert(self.clock, page);
            }

            pub fn access(&mut self, page: u64) -> bool {
                if self.touch(page) {
                    return true;
                }
                self.insert_slot(page, None);
                false
            }

            pub fn fetch(&mut self, page: u64) -> Option<Frame> {
                if self.touch(page) {
                    self.pages.get(&page).and_then(|slot| slot.frame.clone())
                } else {
                    None
                }
            }

            pub fn install(&mut self, page: u64, frame: Frame) {
                assert!(!self.pages.contains_key(&page));
                self.insert_slot(page, Some(frame));
            }

            pub fn contains(&self, page: u64) -> bool {
                self.pages.contains_key(&page)
            }

            pub fn pin(&mut self, page: u64) {
                *self.pins.entry(page).or_insert(0) += 1;
            }

            pub fn unpin(&mut self, page: u64) {
                if let Some(count) = self.pins.get_mut(&page) {
                    *count -= 1;
                    if *count == 0 {
                        self.pins.remove(&page);
                    }
                }
            }

            pub fn is_pinned(&self, page: u64) -> bool {
                self.pins.contains_key(&page)
            }

            pub fn pinned_pages(&self) -> usize {
                self.pins.len()
            }

            pub fn remove(&mut self, page: u64) {
                if let Some(slot) = self.pages.remove(&page) {
                    self.lru.remove(&slot.ts);
                }
            }

            pub fn clear(&mut self) {
                self.pages.clear();
                self.lru.clear();
                self.evictions = 0;
            }
        }
    }

    /// Page ids the lock-step script draws from: more than the largest
    /// capacity under test, so even the 32-page pool evicts.
    const PAGES: usize = 48;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The slab and the map-based pool it replaced, driven by one
        /// random script over every public mutator, agree on every return
        /// value and on `len`, `evictions`, `contains`, `is_pinned` and
        /// `pinned_pages` after every single step — at a capacity that
        /// caches nothing, one that thrashes, a small one and the
        /// benchmark's 32.
        #[test]
        fn the_slab_replays_the_map_based_pool_move_for_move(
            ops in collection::vec(0usize..(PAGES * 16), 1..400),
            cap in 0usize..4,
        ) {
            let cap = [0usize, 1, 3, 32][cap];
            let mut slab = BufferPool::new(cap);
            let mut maps = map_pool::MapPool::new(cap);
            let values = |frame: Option<Frame>| frame.and_then(|f| f.as_raw()).map(|f| f.to_vec());
            for (step, op) in ops.into_iter().enumerate() {
                let page = (op % PAGES) as u64;
                match op / PAGES {
                    0..=3 => prop_assert_eq!(slab.access(page), maps.access(page)),
                    4..=7 => {
                        // The store's miss path: fetch, and install on a miss.
                        let (a, b) = (slab.fetch(page), maps.fetch(page));
                        prop_assert_eq!(a.is_some(), b.is_some());
                        prop_assert_eq!(values(a), values(b));
                        if !maps.contains(page) {
                            let loaded = [page as f32, step as f32];
                            slab.install(page, frame(&loaded));
                            maps.install(page, frame(&loaded));
                        }
                    }
                    8 | 9 => {
                        // A bare fetch (touches recency, installs nothing).
                        let (a, b) = (slab.fetch(page), maps.fetch(page));
                        prop_assert_eq!(values(a), values(b));
                    }
                    10 | 11 => {
                        slab.pin(page);
                        maps.pin(page);
                    }
                    12 | 13 => {
                        slab.unpin(page);
                        maps.unpin(page);
                    }
                    14 => {
                        slab.remove(page);
                        maps.remove(page);
                    }
                    _ => {
                        // `clear` is rare in real runs; keep it rare here so
                        // scripts still fill the larger capacities.
                        if page == 0 {
                            slab.clear();
                            maps.clear();
                        }
                    }
                }
                prop_assert_eq!(slab.len(), maps.len());
                prop_assert_eq!(slab.is_empty(), maps.len() == 0);
                prop_assert_eq!(slab.evictions(), maps.evictions());
                prop_assert_eq!(slab.pinned_pages(), maps.pinned_pages());
                for probe in 0..PAGES as u64 {
                    prop_assert_eq!(slab.contains(probe), maps.contains(probe), "page {}", probe);
                    prop_assert_eq!(slab.is_pinned(probe), maps.is_pinned(probe), "page {}", probe);
                }
            }
        }
    }

    #[test]
    fn resident_values_balance_across_eviction_invalidation_and_clear() {
        let mut p = BufferPool::new(2);
        p.install(0, frame(&[1.0, 2.0]));
        p.install(5, frame(&[3.0]));
        p.install(9, frame(&[4.0, 5.0, 6.0])); // evicts 0
        assert_eq!(p.resident_values(), 4);
        p.pin(9);
        p.clear();
        assert_eq!(p.resident_values(), 0);
        assert!(p.is_empty());
        assert_eq!(p.evictions(), 0);
        assert!(p.is_pinned(9), "clear leaves pins in place");
        // The cleared pool is fully usable again.
        assert!(p.fetch(9).is_none());
        p.install(9, frame(&[7.0]));
        assert_eq!(
            p.fetch(9).and_then(|f| f.as_raw()).as_deref(),
            Some(&[7.0f32][..])
        );
    }

    #[test]
    fn coded_frames_share_the_pool_and_its_accounting() {
        use crate::coded::{CodedPage, PageCodec};
        let mut p = BufferPool::new(1);
        let page = Arc::new(CodedPage::encode(&[1.0, 2.0, 3.0, 4.0], 2, PageCodec::U8));
        p.install(0, Frame::Coded(Arc::clone(&page)));
        let hit = p.fetch(0).expect("installed frame is resident");
        assert!(hit.as_coded().is_some());
        assert!(hit.as_raw().is_none(), "a coded frame is not a raw one");
        assert!(p.resident_values() > 0);
        p.remove(0);
        assert_eq!(p.resident_values(), 0, "footprint accounting balances");
    }
}
