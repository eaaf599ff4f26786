//! Discrete-event kernel: a deterministic time-ordered event queue.
//!
//! The worlds in this crate step in fixed ticks. The keyless world keeps
//! its owner script (scheduled open and close actions) in an
//! [`EventQueue`], whose [`EventQueue::next_time`] is one of the wake-ups
//! of its attacker-free next-event advance. The construction world needs
//! no queue: an RSU broadcast is due when its `next_broadcast` deadline
//! passes, and a driver take-over completes at the `complete_at` carried
//! by `ControlMode::TakeOverRequested`. Attack activation times live in
//! the attacker hooks. Events at equal times dequeue in insertion order,
//! keeping runs bit-for-bit reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use saseval_types::SimTime;

/// A deterministic time-ordered event queue.
///
/// # Example
///
/// ```
/// use vehicle_sim::kernel::EventQueue;
/// use saseval_types::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(5), "b");
/// q.schedule(SimTime::from_millis(1), "a");
/// assert_eq!(q.pop_due(SimTime::from_millis(5)), vec!["a", "b"]);
/// assert!(q.is_empty());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    events: Vec<Option<E>>,
    /// Indices of `events` slots vacated by pops, reused by the next
    /// schedules. Without this, `events` grows by one slot per schedule
    /// for the lifetime of the queue — unbounded for long-running worlds
    /// that keep a steady-state number of pending events.
    free_slots: Vec<usize>,
    seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Snapshot forking requires queue clones to be *deep*: a fork sharing
/// `free_slots` or `seq` with its parent would hand both worlds the same
/// insertion-order counters, breaking FIFO-at-equal-time determinism the
/// moment they diverge. Every field here is owned data, so the
/// field-by-field clone copies the heap, the slot storage, the free list
/// and both counters independently; `clone_from` does the same into the
/// target's existing buffers.
impl<E: Clone> Clone for EventQueue<E> {
    fn clone(&self) -> Self {
        EventQueue {
            heap: self.heap.clone(),
            events: self.events.clone(),
            free_slots: self.free_slots.clone(),
            seq: self.seq,
            popped: self.popped,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let EventQueue { heap, events, free_slots, seq, popped } = self;
        heap.clone_from(&source.heap);
        events.clone_from(&source.events);
        free_slots.clone_from(&source.free_slots);
        *seq = source.seq;
        *popped = source.popped;
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue").field("pending", &self.heap.len()).finish()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            events: Vec::new(),
            free_slots: Vec::new(),
            seq: 0,
            popped: 0,
        }
    }

    /// Schedules `event` at time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                debug_assert!(self.events[slot].is_none(), "free slot still occupied");
                self.events[slot] = Some(event);
                slot
            }
            None => {
                self.events.push(Some(event));
                self.events.len() - 1
            }
        };
        self.heap.push(Reverse((at, self.seq, slot)));
        self.seq += 1;
    }

    /// The time of the earliest pending event.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `now`.
    pub fn pop_next_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        match self.heap.peek() {
            Some(Reverse((t, _, _))) if *t <= now => {
                let Reverse((t, _, slot)) = self.heap.pop().expect("peeked");
                let event = self.events[slot].take().expect("event slot");
                self.free_slots.push(slot);
                self.popped += 1;
                Some((t, event))
            }
            _ => None,
        }
    }

    /// Removes and returns all events due at or before `now`, in time then
    /// insertion order.
    pub fn pop_due(&mut self, now: SimTime) -> Vec<E> {
        let mut due = Vec::new();
        self.pop_due_into(now, &mut due);
        due
    }

    /// [`EventQueue::pop_due`] writing into a caller-owned buffer. `due`
    /// is cleared first. Step loops that drain the queue every tick keep
    /// one buffer alive across ticks, so steady-state stepping performs
    /// no per-tick allocation once the buffer has warmed up.
    pub fn pop_due_into(&mut self, now: SimTime, due: &mut Vec<E>) {
        due.clear();
        while let Some((_, event)) = self.pop_next_due(now) {
            due.push(event);
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of event slots ever allocated (diagnostics). Stays bounded
    /// by the peak number of simultaneously pending events, not by the
    /// total number of schedules.
    pub fn slot_capacity(&self) -> usize {
        self.events.len()
    }

    /// Total events ever scheduled. Worlds flush this (with
    /// [`EventQueue::popped_total`]) into their metrics recorder at run
    /// end, keeping the hot scheduling path free of dynamic dispatch.
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }

    /// Total events ever popped.
    pub fn popped_total(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3), 3);
        q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(2), 2);
        assert_eq!(q.pop_due(SimTime::from_secs(1)), vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime::from_millis(5), i);
        }
        assert_eq!(q.pop_due(SimTime::from_millis(5)), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn respects_due_boundary() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "late");
        q.schedule(SimTime::from_millis(1), "early");
        assert_eq!(q.pop_due(SimTime::from_millis(9)), vec!["early"]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_time(), Some(SimTime::from_millis(10)));
        assert_eq!(q.pop_due(SimTime::from_millis(10)), vec!["late"]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_next_due_single_step() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(2), "a");
        assert!(q.pop_next_due(SimTime::from_millis(1)).is_none());
        let (t, e) = q.pop_next_due(SimTime::from_millis(2)).unwrap();
        assert_eq!((t, e), (SimTime::from_millis(2), "a"));
    }

    #[test]
    fn popped_slots_are_reused() {
        let mut q = EventQueue::new();
        // Steady state: one pending event at a time, many schedule/pop
        // cycles. Slot storage must not grow with the cycle count.
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_micros(i), i);
            assert_eq!(q.pop_due(SimTime::from_micros(i)), vec![i]);
        }
        assert_eq!(q.slot_capacity(), 1, "slots must be reused, not leaked");

        // Bursty state: capacity tracks the peak pending count.
        for i in 0..64u64 {
            q.schedule(SimTime::from_micros(i), i);
        }
        assert_eq!(q.pop_due(SimTime::from_secs(1)).len(), 64);
        for round in 0..100u64 {
            for i in 0..64u64 {
                q.schedule(SimTime::from_micros(round * 100 + i), i);
            }
            assert_eq!(q.pop_due(SimTime::from_secs(1)).len(), 64);
        }
        assert_eq!(q.slot_capacity(), 64, "capacity bounded by peak pending events");
    }

    #[test]
    fn pop_due_into_reuses_buffer_and_clears_stale_events() {
        let mut q = EventQueue::new();
        let mut buffer = vec!["stale"];
        q.schedule(SimTime::from_millis(1), "a");
        q.schedule(SimTime::from_millis(2), "b");
        q.pop_due_into(SimTime::from_millis(2), &mut buffer);
        assert_eq!(buffer, vec!["a", "b"], "buffer cleared before refill");
        let warm_capacity = buffer.capacity();
        for i in 0..1_000u64 {
            q.schedule(SimTime::from_micros(i), "e");
            q.pop_due_into(SimTime::from_micros(i), &mut buffer);
            assert_eq!(buffer.len(), 1);
        }
        assert_eq!(buffer.capacity(), warm_capacity, "steady state reuses the warm buffer");
    }

    #[test]
    fn fork_then_diverge_keeps_fifo_determinism() {
        // A forked queue must own its slot-reuse state: after the fork,
        // parent and child schedule different event streams, and each
        // must preserve FIFO order at equal times independently.
        let mut parent = EventQueue::new();
        parent.schedule(SimTime::from_millis(10), "shared-a");
        parent.schedule(SimTime::from_millis(10), "shared-b");
        // Churn the free list so the fork happens with non-trivial
        // slot-reuse state.
        parent.schedule(SimTime::from_millis(1), "early");
        assert_eq!(parent.pop_due(SimTime::from_millis(1)), vec!["early"]);

        let mut child = parent.clone();
        assert_eq!(child.len(), parent.len());
        assert_eq!(child.scheduled_total(), parent.scheduled_total());
        assert_eq!(child.popped_total(), parent.popped_total());

        // Diverge: both schedule at the same (equal) time, different
        // payloads. Each queue must order its own insertions after the
        // shared prefix, unaffected by the other's schedules.
        parent.schedule(SimTime::from_millis(10), "parent-1");
        parent.schedule(SimTime::from_millis(10), "parent-2");
        child.schedule(SimTime::from_millis(10), "child-1");
        child.schedule(SimTime::from_millis(10), "child-2");

        assert_eq!(
            parent.pop_due(SimTime::from_millis(10)),
            vec!["shared-a", "shared-b", "parent-1", "parent-2"]
        );
        assert_eq!(
            child.pop_due(SimTime::from_millis(10)),
            vec!["shared-a", "shared-b", "child-1", "child-2"]
        );

        // The forked free lists are independent: popping in the child
        // must not hand slots back to the parent (and vice versa).
        parent.schedule(SimTime::from_millis(20), "parent-3");
        child.schedule(SimTime::from_millis(20), "child-3");
        assert_eq!(parent.pop_due(SimTime::from_millis(20)), vec!["parent-3"]);
        assert_eq!(child.pop_due(SimTime::from_millis(20)), vec!["child-3"]);
        assert!(parent.is_empty());
        assert!(child.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 1);
        assert_eq!(q.pop_due(SimTime::from_millis(1)), vec![1]);
        q.schedule(SimTime::from_millis(2), 2);
        q.schedule(SimTime::from_millis(2), 3);
        assert_eq!(q.pop_due(SimTime::from_millis(2)), vec![2, 3]);
        assert_eq!(q.scheduled_total(), 3);
        assert_eq!(q.popped_total(), 3);
    }
}
