//! Hierarchical timing wheel with O(1) arm and cancel.
//!
//! The engine used to route every timer *and every packet* through the
//! global `BinaryHeap` and suppress timer cancellations with a side
//! `BTreeSet` — O(log n) per operation plus allocation churn. This wheel
//! delivers the same *exact* event order at O(1) amortized cost and now
//! carries both event classes ([`WheelItem`]); only rare control
//! closures remain in the heap:
//!
//! * **L0** — 256 slots of 1 µs each: the current 256 µs window at full
//!   resolution. All entries in one L0 slot share one deadline.
//! * **L1–L5** — 64 slots each, covering windows of 2^14, 2^20, 2^26,
//!   2^32, and 2^38 µs (≈16 ms, ≈1 s, ≈67 s, ≈71 min, ≈76 h). A slot
//!   holds every pending entry in its time range.
//! * **overflow** — the rare entry beyond ≈76 hours of simulated time.
//!
//! An entry is placed by the highest-resolution level whose current
//! window contains its deadline. When the clock crosses a slot boundary
//! ([`TimerWheel::advance`]), the newly current slot of each affected
//! level *cascades*: its entries re-place into finer levels. Because the
//! wheel only ever advances to the deadline of the minimum pending entry
//! (or to a quiet deadline with nothing pending before it), every slot
//! skipped by an advance is provably empty, so cascades touch only one
//! slot per level.
//!
//! # Determinism
//!
//! The engine's event order is `(time, seq)` — the wheel must reproduce
//! the old heap's order bit-for-bit. Slot lists are intrusively linked
//! and kept **ascending in `seq`**: [`TimerWheel::arm`] requires
//! strictly increasing `seq` across calls (the engine allocates `seq`
//! from one global counter at arm time, so this holds by construction),
//! lists append at the tail, and cascades traverse head-to-tail, so
//! re-placed entries stay ascending and always precede later direct
//! arms. Within an L0 slot all deadlines are equal, so the head is the
//! slot minimum and a packet wave of thousands of same-deadline entries
//! pops O(1) each; coarser slots mix deadlines and are scanned (the
//! first occupied slot of the finest occupied level contains the global
//! minimum, so at most one list is scanned per lookup). Scans depend
//! only on list membership, never on memory addresses.
//!
//! Cancellation marks the slab entry in place; the entry still *pops* at
//! its deadline — the engine folds every popped event into its digest
//! before deciding whether to deliver it, and cancelled timers must keep
//! contributing exactly as they did when they sat in the heap — but it
//! pops with `cancelled: true` and the engine drops it. The slab slot is
//! reclaimed at pop, so cancelled timers cannot leak.
//!
//! # Panic freedom
//!
//! Slot-array indices are masked (`& 63`, `& 255`) and slab indices come
//! only from the wheel's own lists, so indexing cannot go out of bounds;
//! yoda-tidy waives its hot-path indexing rule for this module on that
//! basis (see `MASKED_INDEX_FILES` in `crates/tidy`).

use crate::node::TimerToken;
use crate::packet::Packet;

/// Sentinel for "no entry" in the intrusive lists.
const NIL: u32 = u32::MAX;

/// Bit offset of each level's slot index within a deadline; level `k`
/// (0-based, L1..L5) uses bits `SLOT_SHIFT[k] .. SLOT_SHIFT[k] + 6`.
const SLOT_SHIFT: [u32; 5] = [8, 14, 20, 26, 32];

/// A level's window is the deadline with these low bits masked off; an
/// entry belongs to the finest level whose window contains it.
const EPOCH_SHIFT: [u32; 5] = [14, 20, 26, 32, 38];

/// What a wheel entry delivers when it pops.
#[derive(Debug)]
pub enum WheelItem {
    /// A node timer.
    Timer {
        /// Owning node index.
        node: usize,
        /// Node generation at arm time (stale-after-restore suppression).
        generation: u64,
        /// Application payload.
        token: TimerToken,
    },
    /// A packet in flight, stored inline so delivery costs one slab read
    /// with no side allocation, paired with its destination node (`dst`)
    /// resolved at send time. Packets are never cancelled.
    Packet {
        /// The packet itself.
        pkt: Packet,
        /// Destination node index.
        dst: u32,
    },
}

/// One pending (or cancelled-pending) entry.
#[derive(Debug)]
struct Entry {
    /// Absolute deadline, µs.
    deadline: u64,
    /// Global event sequence number — the tie-breaker at equal deadlines.
    seq: u64,
    /// Engine-wide timer id; lets [`TimerWheel::cancel`] reject a stale
    /// handle whose slab slot has been recycled. Unused for packets.
    id: u64,
    /// `None` only transiently, after the entry popped and before the
    /// slot is recycled.
    item: Option<WheelItem>,
    /// Next entry in the same slot list (or [`NIL`]).
    next: u32,
    cancelled: bool,
    /// False once popped and returned to the free list.
    live: bool,
}

/// A popped entry, in exact `(time, seq)` event order.
#[derive(Debug)]
pub struct Fired {
    /// Absolute deadline, µs.
    pub time: u64,
    /// Global event sequence number.
    pub seq: u64,
    /// Engine-wide timer id (0 for packets) — the digest-visible id.
    pub id: u64,
    /// What fired.
    pub item: WheelItem,
    /// True when a timer was cancelled before its deadline; the engine
    /// accounts for the pop but must not deliver it.
    pub cancelled: bool,
}

/// Which list a deadline belongs in at the current wheel time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// L0 slot index.
    L0(usize),
    /// (level 0..5 for L1..L5, slot index).
    Level(usize, usize),
    Overflow,
}

/// Where the current minimum entry lives.
#[derive(Debug, Clone, Copy)]
enum Loc {
    /// L0 slot index.
    L0(usize),
    /// (level 0..5 for L1..L5, slot index).
    Level(usize, usize),
    Overflow,
}

/// The wheel. See the module docs for the level layout and the
/// determinism contract.
pub struct TimerWheel {
    now: u64,
    /// Live entries (pending + cancelled-pending), packets included.
    len: usize,
    /// Memoized [`TimerWheel::find_min`] result, so the engine's
    /// peek-then-pop sequence walks the lists once per event. Cleared by
    /// anything that can move entries or change the minimum (`arm`,
    /// `pop`, `advance`); `cancel` keeps it — cancelled entries still
    /// pop in place.
    cached_min: Option<(u64, u64, u32, Loc)>,
    /// Live timer entries only (the engine's timer-backlog metric).
    timers: usize,
    /// Lower bound on the next acceptable `seq` (monotonicity contract).
    next_min_seq: u64,
    slab: Vec<Entry>,
    /// Head of the LIFO free list, threaded through `Entry::next` of dead
    /// slots (no side vector, no per-event capacity checks).
    free_head: u32,
    l0_head: [u32; 256],
    l0_tail: [u32; 256],
    l0_bits: [u64; 4],
    lk_head: [[u32; 64]; 5],
    lk_tail: [[u32; 64]; 5],
    lk_bits: [u64; 5],
    overflow: Vec<u32>,
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl TimerWheel {
    /// An empty wheel at time 0.
    pub fn new() -> Self {
        TimerWheel {
            now: 0,
            len: 0,
            cached_min: None,
            timers: 0,
            next_min_seq: 0,
            slab: Vec::new(),
            free_head: NIL,
            l0_head: [NIL; 256],
            l0_tail: [NIL; 256],
            l0_bits: [0; 4],
            lk_head: [[NIL; 64]; 5],
            lk_tail: [[NIL; 64]; 5],
            lk_bits: [0; 5],
            overflow: Vec::new(),
        }
    }

    /// Pending entries of both kinds, including cancelled timers not yet
    /// reclaimed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pending timers only (cancelled-pending included), excluding
    /// packets.
    pub fn timer_len(&self) -> usize {
        self.timers
    }

    /// Current wheel time, µs.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Arms an entry at absolute time `deadline` (clamped to now) with
    /// the given engine-assigned `seq` and `id`. Returns the slab slot to
    /// embed in the caller's timer handle for O(1) cancellation.
    ///
    /// `seq` must be strictly greater than every previously armed `seq`
    /// — the sorted-slot-list invariant the pop order relies on. The
    /// engine satisfies this by construction (one global counter,
    /// allocated at arm time).
    pub fn arm(&mut self, deadline: u64, seq: u64, id: u64, item: WheelItem) -> u32 {
        debug_assert!(seq >= self.next_min_seq, "seq must be strictly increasing");
        self.next_min_seq = seq + 1;
        if matches!(item, WheelItem::Timer { .. }) {
            self.timers += 1;
        }
        let entry = Entry {
            deadline: deadline.max(self.now),
            seq,
            id,
            item: Some(item),
            next: NIL,
            cancelled: false,
            live: true,
        };
        let d = entry.deadline;
        let slot = if self.free_head != NIL {
            let s = self.free_head;
            if let Some(e) = self.slab.get_mut(s as usize) {
                self.free_head = e.next;
                *e = entry;
            }
            s
        } else {
            self.slab.push(entry);
            (self.slab.len() - 1) as u32
        };
        self.len += 1;
        let target = self.target_for(d);
        match target {
            Target::L0(i) => self.splice_l0(i, slot, slot),
            Target::Level(k, i) => self.splice_lk(k, i, slot, slot),
            Target::Overflow => self.overflow.push(slot),
        }
        // Keep (don't blindly clear) the min memo: the common hot-path
        // pattern is pop → deliver → arm-a-later-entry, and a memo that
        // survives such arms lets the next peek skip find_min entirely.
        // Only an entry that beats the memoized minimum invalidates it
        // (seq is fresh, so ties are impossible).
        if let Some((t, s, _, _)) = self.cached_min {
            if (d, seq) < (t, s) {
                self.cached_min = None;
            }
        }
        slot
    }

    /// Marks the timer in `slot` cancelled iff it is still pending and
    /// its id matches (a recycled slot has a different id — or holds a
    /// packet, whose `id` field is meaningless — so stale handles are
    /// rejected). Returns whether anything was cancelled. O(1); the
    /// entry is reclaimed when its deadline pops.
    pub fn cancel(&mut self, slot: u32, id: u64) -> bool {
        match self.slab.get_mut(slot as usize) {
            Some(e)
                if e.live
                    && e.id == id
                    && !e.cancelled
                    && matches!(e.item, Some(WheelItem::Timer { .. })) =>
            {
                e.cancelled = true;
                true
            }
            _ => false,
        }
    }

    /// The `(time, seq)` of the next entry to pop, if any. The engine
    /// compares this against its control heap to pick the global minimum
    /// event.
    pub fn peek(&mut self) -> Option<(u64, u64)> {
        if self.len == 0 {
            return None;
        }
        if let Some((t, s, _, _)) = self.cached_min {
            return Some((t, s));
        }
        self.cached_min = self.find_min();
        self.cached_min.map(|(t, s, _, _)| (t, s))
    }

    /// Removes and returns the minimum `(deadline, seq)` entry, advancing
    /// the wheel clock to its deadline (cascading as needed).
    pub fn pop(&mut self) -> Option<Fired> {
        let (_, _, slot, loc) = match self.cached_min.take() {
            Some(m) => m,
            None => self.find_min()?,
        };
        self.unlink(slot, loc);
        let free_head = self.free_head;
        let fired = match self.slab.get_mut(slot as usize) {
            Some(e) => {
                e.live = false;
                e.next = free_head;
                let item = e.item.take()?; // always Some: set at arm, taken once here
                Fired {
                    time: e.deadline,
                    seq: e.seq,
                    id: e.id,
                    item,
                    cancelled: e.cancelled,
                }
            }
            None => return None, // unreachable: find_min only yields live slots
        };
        self.free_head = slot;
        self.len -= 1;
        if matches!(fired.item, WheelItem::Timer { .. }) {
            self.timers -= 1;
        }
        self.advance(fired.time);
        if let Loc::L0(idx) = loc {
            // The slot's new head is the next global minimum: all entries
            // in an L0 slot share one deadline (fully determined by the
            // slot index within the current window) and ascend in seq,
            // and everything else pending is strictly later. An L0 pop
            // never crosses a slot boundary, so the advance above cannot
            // have cascaded anything into this slot. Seeding the memo
            // here makes same-deadline packet waves skip find_min
            // entirely.
            let head = self.l0_head[idx & 255];
            if head != NIL {
                if let Some(e) = self.slab.get(head as usize) {
                    self.cached_min = Some((e.deadline, e.seq, head, Loc::L0(idx)));
                }
            }
        }
        Some(fired)
    }

    /// Advances the wheel clock to `to` (no-op when not in the future),
    /// cascading the newly current slot of every level whose boundary was
    /// crossed. The caller guarantees no pending entry has a deadline
    /// before `to` — true both for [`TimerWheel::pop`] (the removed entry
    /// was the minimum) and for the engine's quiet-deadline clock set
    /// (everything earlier already popped) — which is what makes
    /// single-slot cascades sufficient: skipped slots are empty.
    pub fn advance(&mut self, to: u64) {
        let old = self.now;
        if to <= old {
            return;
        }
        self.now = to;
        self.cached_min = None;
        if self.len == 0 {
            // Nothing pending anywhere (cancelled entries count until
            // reclaimed), so every slot is empty and no cascade can move
            // anything. Control-only stretches take this path per event.
            return;
        }
        if old >> 38 != to >> 38 && !self.overflow.is_empty() {
            let of = std::mem::take(&mut self.overflow);
            for slot in of {
                let epoch_matches = self
                    .slab
                    .get(slot as usize)
                    .map(|e| e.deadline >> 38 == to >> 38)
                    .unwrap_or(false);
                if epoch_matches {
                    self.place(slot);
                } else {
                    self.overflow.push(slot);
                }
            }
        }
        // Coarse to fine, so entries cascading out of L_{k} re-place into
        // an L_{k-1} slot before that slot itself cascades.
        for k in (0..5).rev() {
            if old >> SLOT_SHIFT[k] != to >> SLOT_SHIFT[k] {
                self.cascade(k, ((to >> SLOT_SHIFT[k]) & 63) as usize);
            }
        }
    }

    /// Which list owns deadline `d` at the current time: the finest level
    /// whose current window contains it, or the overflow vector.
    #[inline]
    fn target_for(&self, d: u64) -> Target {
        let now = self.now;
        if d >> 8 == now >> 8 {
            return Target::L0((d & 255) as usize);
        }
        for k in 0..5 {
            if d >> EPOCH_SHIFT[k] == now >> EPOCH_SHIFT[k] {
                return Target::Level(k, ((d >> SLOT_SHIFT[k]) & 63) as usize);
            }
        }
        Target::Overflow
    }

    /// Inserts a live slab entry into the level owning its deadline at
    /// the current time.
    fn place(&mut self, slot: u32) {
        let d = match self.slab.get(slot as usize) {
            Some(e) => e.deadline,
            None => return, // unreachable: callers pass valid slots
        };
        match self.target_for(d) {
            Target::L0(idx) => self.splice_l0(idx, slot, slot),
            Target::Level(k, idx) => self.splice_lk(k, idx, slot, slot),
            Target::Overflow => self.overflow.push(slot),
        }
    }

    /// Appends the already-linked chain `head ..= chain_tail` at the tail
    /// of L0 slot `idx`, preserving the ascending-`seq` list invariant
    /// (see the module docs). A single entry is the `head == chain_tail`
    /// case.
    fn splice_l0(&mut self, idx: usize, head: u32, chain_tail: u32) {
        if let Some(e) = self.slab.get_mut(chain_tail as usize) {
            e.next = NIL;
        }
        let tail = self.l0_tail[idx & 255];
        if tail == NIL {
            self.l0_head[idx & 255] = head;
        } else if let Some(t) = self.slab.get_mut(tail as usize) {
            t.next = head;
        }
        self.l0_tail[idx & 255] = chain_tail;
        self.l0_bits[(idx >> 6) & 3] |= 1u64 << (idx & 63);
    }

    /// Appends the already-linked chain `head ..= chain_tail` at the tail
    /// of level `k` slot `idx`.
    fn splice_lk(&mut self, k: usize, idx: usize, head: u32, chain_tail: u32) {
        if let Some(e) = self.slab.get_mut(chain_tail as usize) {
            e.next = NIL;
        }
        let tail = self.lk_tail[k % 5][idx & 63];
        if tail == NIL {
            self.lk_head[k % 5][idx & 63] = head;
        } else if let Some(t) = self.slab.get_mut(tail as usize) {
            t.next = head;
        }
        self.lk_tail[k % 5][idx & 63] = chain_tail;
        self.lk_bits[k % 5] |= 1u64 << (idx & 63);
    }

    /// Empties level `k` slot `idx`, re-placing its entries at the current
    /// time (they land in finer levels, or L0 — never back in the source:
    /// the slot is current, so its deadlines all fit a finer window).
    /// Traversal is head-to-tail, so ascending `seq` order carries over.
    ///
    /// Consecutive entries sharing a target — the common case by far,
    /// since a burst of same-deadline packets cascades as one contiguous
    /// run — are spliced as a whole chain in O(1): their `next` links are
    /// already correct, so the only writes are at run boundaries.
    fn cascade(&mut self, k: usize, idx: usize) {
        let mut cur = std::mem::replace(&mut self.lk_head[k % 5][idx & 63], NIL);
        self.lk_tail[k % 5][idx & 63] = NIL;
        self.lk_bits[k % 5] &= !(1u64 << (idx & 63));
        while cur != NIL {
            let Some(e) = self.slab.get(cur as usize) else {
                break; // unreachable: lists only hold valid slots
            };
            let target = self.target_for(e.deadline);
            let mut run_tail = cur;
            let mut next = e.next;
            while next != NIL {
                let Some(n) = self.slab.get(next as usize) else {
                    break; // unreachable as above
                };
                if self.target_for(n.deadline) != target {
                    break;
                }
                run_tail = next;
                next = n.next;
            }
            match target {
                Target::L0(i) => self.splice_l0(i, cur, run_tail),
                Target::Level(kk, i) => self.splice_lk(kk, i, cur, run_tail),
                Target::Overflow => {
                    // Unreachable from a current slot (targets are always
                    // finer), but handle it by pushing entries one by one.
                    let mut c = cur;
                    loop {
                        let nx = self.slab.get(c as usize).map(|e| e.next).unwrap_or(NIL);
                        self.overflow.push(c);
                        if c == run_tail {
                            break;
                        }
                        c = nx;
                    }
                }
            }
            cur = next;
        }
    }

    /// Locates the minimum `(deadline, seq)` entry: its key, slab slot,
    /// and which list holds it.
    fn find_min(&self) -> Option<(u64, u64, u32, Loc)> {
        // L0 first: its entries all precede every coarser level. Bits
        // below `now & 255` are necessarily clear, so the first set bit
        // is the earliest pending 1 µs tick; within a slot all deadlines
        // are equal and the list ascends in seq, so the head is the
        // minimum — no scan.
        for w in 0..4 {
            let bits = self.l0_bits[w & 3];
            if bits != 0 {
                let idx = (w << 6) | bits.trailing_zeros() as usize;
                let head = self.l0_head[idx & 255];
                let e = self.slab.get(head as usize)?;
                return Some((e.deadline, e.seq, head, Loc::L0(idx)));
            }
        }
        // L1..L5 in order: level k's window strictly precedes level
        // k+1's, and within a level the first occupied slot is the
        // earliest range. Coarse slots mix deadlines, so scan.
        for k in 0..5 {
            let bits = self.lk_bits[k % 5];
            if bits != 0 {
                let idx = bits.trailing_zeros() as usize;
                return self.scan_list(self.lk_head[k % 5][idx & 63], Loc::Level(k, idx));
            }
        }
        // Overflow last: everything there is beyond every level.
        let mut best: Option<(u64, u64, u32)> = None;
        for &slot in &self.overflow {
            if let Some(e) = self.slab.get(slot as usize) {
                let key = (e.deadline, e.seq);
                if best.map(|(t, s, _)| key < (t, s)).unwrap_or(true) {
                    best = Some((e.deadline, e.seq, slot));
                }
            }
        }
        best.map(|(t, s, slot)| (t, s, slot, Loc::Overflow))
    }

    /// Minimum `(deadline, seq)` within one slot list. Lists ascend in
    /// `seq`, so the first entry holding the minimum deadline is the
    /// slot minimum.
    fn scan_list(&self, head: u32, loc: Loc) -> Option<(u64, u64, u32, Loc)> {
        let mut best: Option<(u64, u64, u32)> = None;
        let mut cur = head;
        while cur != NIL {
            let Some(e) = self.slab.get(cur as usize) else {
                break; // unreachable: lists only hold valid slots
            };
            let key = (e.deadline, e.seq);
            if best.map(|(t, s, _)| key < (t, s)).unwrap_or(true) {
                best = Some((e.deadline, e.seq, cur));
            }
            cur = e.next;
        }
        best.map(|(t, s, slot)| (t, s, slot, loc))
    }

    /// Removes `slot` from the list identified by `loc`.
    fn unlink(&mut self, slot: u32, loc: Loc) {
        match loc {
            Loc::L0(idx) => {
                let head = self.l0_head[idx & 255];
                let (new_head, new_tail) = self.remove_from_list(head, self.l0_tail[idx & 255], slot);
                self.l0_head[idx & 255] = new_head;
                self.l0_tail[idx & 255] = new_tail;
                if new_head == NIL {
                    self.l0_bits[(idx >> 6) & 3] &= !(1u64 << (idx & 63));
                }
            }
            Loc::Level(k, idx) => {
                let head = self.lk_head[k % 5][idx & 63];
                let (new_head, new_tail) = self.remove_from_list(head, self.lk_tail[k % 5][idx & 63], slot);
                self.lk_head[k % 5][idx & 63] = new_head;
                self.lk_tail[k % 5][idx & 63] = new_tail;
                if new_head == NIL {
                    self.lk_bits[k % 5] &= !(1u64 << (idx & 63));
                }
            }
            Loc::Overflow => {
                if let Some(pos) = self.overflow.iter().position(|&s| s == slot) {
                    self.overflow.swap_remove(pos);
                }
            }
        }
    }

    /// Unlinks `slot` from the singly-linked list starting at `head`
    /// with tail `tail`, returning the new `(head, tail)`.
    fn remove_from_list(&mut self, head: u32, tail: u32, slot: u32) -> (u32, u32) {
        if head == slot {
            let next = self.slab.get(head as usize).map(|e| e.next).unwrap_or(NIL);
            let new_tail = if next == NIL { NIL } else { tail };
            return (next, new_tail);
        }
        let mut prev = head;
        loop {
            let next = self.slab.get(prev as usize).map(|e| e.next).unwrap_or(NIL);
            if next == NIL {
                return (head, tail); // unreachable: slot is always in the list
            }
            if next == slot {
                let after = self.slab.get(slot as usize).map(|e| e.next).unwrap_or(NIL);
                if let Some(e) = self.slab.get_mut(prev as usize) {
                    e.next = after;
                }
                let new_tail = if after == NIL { prev } else { tail };
                return (head, new_tail);
            }
            prev = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(kind: u32) -> TimerToken {
        TimerToken::new(kind)
    }

    fn titem() -> WheelItem {
        WheelItem::Timer {
            node: 0,
            generation: 0,
            token: tok(0),
        }
    }

    /// Arms with auto-incrementing seq/id starting at 0.
    struct Harness {
        wheel: TimerWheel,
        seq: u64,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                wheel: TimerWheel::new(),
                seq: 0,
            }
        }
        fn arm(&mut self, deadline: u64) -> (u64, u32) {
            let seq = self.seq;
            self.seq += 1;
            let slot = self.wheel.arm(deadline, seq, seq, titem());
            (seq, slot)
        }
        fn arm_packet(&mut self, deadline: u64, dst: u32) -> (u64, u32) {
            use crate::addr::{Addr, Endpoint};
            let seq = self.seq;
            self.seq += 1;
            let pkt = Packet::new(
                Endpoint::new(Addr::new(10, 0, 0, 1), 1),
                Endpoint::new(Addr::new(10, 0, 0, 2), 80),
                crate::packet::PROTO_PING,
                bytes::Bytes::new(),
            );
            let slot = self.wheel.arm(deadline, seq, 0, WheelItem::Packet { pkt, dst });
            (seq, slot)
        }
        /// Pops everything, returning (time, seq, cancelled) triples.
        fn drain(&mut self) -> Vec<(u64, u64, bool)> {
            let mut out = Vec::new();
            while let Some(f) = self.wheel.pop() {
                out.push((f.time, f.seq, f.cancelled));
            }
            out
        }
    }

    #[test]
    fn pops_in_deadline_then_seq_order() {
        let mut h = Harness::new();
        h.arm(500);
        h.arm(100);
        h.arm(300);
        h.arm(100); // same tick as the second arm: seq breaks the tie
        let order: Vec<(u64, u64)> = h.drain().iter().map(|&(t, s, _)| (t, s)).collect();
        assert_eq!(order, vec![(100, 1), (100, 3), (300, 2), (500, 0)]);
    }

    #[test]
    fn same_tick_pops_in_arm_order_under_interleaved_cancel() {
        let mut h = Harness::new();
        let (_, s0) = h.arm(777);
        let (_, _s1) = h.arm(777);
        let (_, s2) = h.arm(777);
        assert!(h.wheel.cancel(s0, 0));
        assert!(h.wheel.cancel(s2, 2));
        let got = h.drain();
        // All three still pop at the deadline, in seq order, with the
        // cancelled ones flagged: the engine's digest depends on it.
        assert_eq!(got, vec![(777, 0, true), (777, 1, false), (777, 2, true)]);
        assert_eq!(h.wheel.len(), 0, "cancelled entries reclaimed at pop");
    }

    #[test]
    fn cancel_of_recycled_slot_is_rejected() {
        let mut h = Harness::new();
        let (id0, slot0) = h.arm(10);
        assert_eq!(h.wheel.pop().map(|f| f.seq), Some(0));
        // Slot 0 is free; re-arm recycles it with a new id.
        let (_, slot1) = h.arm(20);
        assert_eq!(slot0, slot1, "slab slot recycled");
        assert!(!h.wheel.cancel(slot0, id0), "stale handle must not cancel");
        assert_eq!(h.drain(), vec![(20, 1, false)]);
    }

    #[test]
    fn packets_interleave_with_timers_and_reject_cancel() {
        let mut h = Harness::new();
        h.arm(300); // seq 0, timer
        let (_, pslot) = h.arm_packet(100, 42); // seq 1
        h.arm_packet(300, 43); // seq 2: same tick as the timer
        assert_eq!(h.wheel.len(), 3);
        assert_eq!(h.wheel.timer_len(), 1, "packets excluded from timer count");
        // A packet entry must not be cancellable, even with its id value.
        assert!(!h.wheel.cancel(pslot, 0), "packets are never cancelled");
        let first = h.wheel.pop().expect("packet pending");
        assert!(matches!(first.item, WheelItem::Packet { dst: 42, .. }));
        let order: Vec<(u64, u64)> = h.drain().iter().map(|&(t, s, _)| (t, s)).collect();
        assert_eq!(order, vec![(300, 0), (300, 2)], "seq breaks the tie");
        assert_eq!(h.wheel.timer_len(), 0);
    }

    #[test]
    fn cross_level_placement_keeps_seq_order_at_equal_deadlines() {
        // Two timers with the SAME deadline armed at different distances:
        // the first from far away (lands in a coarse level, cascades in
        // later), the second from nearby (lands in L0 directly). The heap
        // ordered them by seq; the wheel must too, even though the
        // cascaded entry joins the L0 slot list after the direct one.
        let mut h = Harness::new();
        let d = (1 << 14) + 123; // beyond L1's first window from t=0
        h.arm(d); // seq 0, placed coarse
        h.arm(5); // seq 1, fires first and advances the clock near d
        h.arm(d); // seq 2... still far
        assert_eq!(h.wheel.pop().map(|f| f.seq), Some(1));
        h.wheel.advance(d - 1); // cascade d's window into fine levels
        h.arm(d); // seq 3, placed directly in L0
        let got = h.drain();
        assert_eq!(got, vec![(d, 0, false), (d, 2, false), (d, 3, false)]);
    }

    #[test]
    fn deep_hierarchy_and_overflow_cascade_fire_in_order() {
        // One timer per level, plus one past the 2^38 µs horizon.
        let mut h = Harness::new();
        let deadlines = [
            200u64,            // L0
            (1 << 8) + 7,      // L1 (once out of L0's window)
            (1 << 14) + 3,     // L2-ish boundary
            (1 << 20) + 9,     // ~1 s
            (1 << 26) + 1,     // ~67 s
            (1 << 32) + 5,     // ~71 min
            (1 << 38) + 11,    // overflow: ~76 h
            (3u64 << 38) + 2,  // deep overflow: stays put across one epoch
        ];
        for &d in &deadlines {
            h.arm(d);
        }
        let got: Vec<u64> = h.drain().iter().map(|&(t, _, _)| t).collect();
        let mut want = deadlines.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(h.wheel.is_empty());
    }

    #[test]
    fn quiet_advance_then_arm_lands_at_full_resolution() {
        // The engine sets the clock to a quiet deadline without popping
        // anything; a timer armed right after must still fire exactly.
        let mut h = Harness::new();
        h.wheel.advance(987_654_321);
        h.arm(987_654_321 + 40);
        h.arm(987_654_321 + 4);
        let got: Vec<u64> = h.drain().iter().map(|&(t, _, _)| t).collect();
        assert_eq!(got, vec![987_654_321 + 4, 987_654_321 + 40]);
    }

    #[test]
    fn zero_delay_timer_fires_at_now() {
        let mut h = Harness::new();
        h.wheel.advance(555);
        h.arm(555);
        assert_eq!(h.wheel.peek(), Some((555, 0)));
        assert_eq!(h.drain(), vec![(555, 0, false)]);
    }

    #[test]
    fn backlog_counts_cancelled_until_reclaimed() {
        let mut h = Harness::new();
        let (id, slot) = h.arm(1_000);
        h.arm(2_000);
        assert_eq!(h.wheel.len(), 2);
        assert!(h.wheel.cancel(slot, id));
        assert_eq!(h.wheel.len(), 2, "cancelled entry still pending");
        assert_eq!(h.wheel.timer_len(), 2);
        assert_eq!(h.wheel.pop().map(|f| f.cancelled), Some(true));
        assert_eq!(h.wheel.len(), 1, "reclaimed at its deadline");
        assert!(!h.wheel.cancel(slot, id), "double cancel rejected");
    }

    #[test]
    fn same_deadline_wave_pops_head_first_in_constant_time() {
        // A packet wave: thousands of entries at one deadline, placed
        // coarse, cascaded into a single L0 slot. They must pop in exact
        // seq order, and the sorted-list invariant means each pop reads
        // only the head (this test guards the order; the bench guards
        // the speed).
        let mut h = Harness::new();
        let d = 1_000u64;
        for i in 0..2_048u32 {
            h.arm_packet(d, i);
        }
        let got = h.drain();
        assert_eq!(got.len(), 2_048);
        for (i, &(t, s, _)) in got.iter().enumerate() {
            assert_eq!((t, s), (d, i as u64));
        }
    }

    #[test]
    fn fired_entry_reports_its_armed_id() {
        let mut h = Harness::new();
        h.arm(10);
        let (id, _) = h.arm(50);
        h.wheel.pop().expect("pending");
        assert_eq!(h.wheel.pop().map(|f| f.id), Some(id));
    }

    /// Randomized (but seeded, in-test-only) differential check against a
    /// sorted reference: thousands of arms at scattered deadlines across
    /// every level must pop in exact (deadline, seq) order.
    #[test]
    fn differential_order_against_sorted_reference() {
        let mut h = Harness::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        // Simple LCG so the test needs no RNG dependency.
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = |m: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 16) % m
        };
        let mut popped = 0u64;
        for round in 0..64 {
            for _ in 0..32 {
                let spread = match round % 4 {
                    0 => 1 << 9,
                    1 => 1 << 15,
                    2 => 1 << 21,
                    _ => 1 << 33,
                };
                let d = h.wheel.now() + 1 + next(spread);
                let (seq, _) = h.arm(d);
                expect.push((d, seq));
            }
            // Pop a few each round so arms happen at many wheel times.
            for _ in 0..24 {
                let f = h.wheel.pop().expect("entries pending");
                expect.sort_unstable();
                let want = expect.remove(0);
                assert_eq!((f.time, f.seq), want, "after {popped} pops");
                popped += 1;
            }
        }
        let rest = h.drain();
        expect.sort_unstable();
        let rest_keys: Vec<(u64, u64)> = rest.iter().map(|&(t, s, _)| (t, s)).collect();
        assert_eq!(rest_keys, expect);
    }
}
