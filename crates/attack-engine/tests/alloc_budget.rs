//! Allocation budget of the flood attacks' per-message path.
//!
//! AD20 (the authenticated OBU_RSU flood, Table VI) and AD14 (the
//! BLE→CAN service flood, Table VII) inject tens of thousands of
//! messages per case. The attacks build their sender identity and
//! payloads once, and the networks, controls and worlds share them.
//! AD20's messages to a shut-down OBU or from an isolated sender are
//! unread: each tick's go to the V2X channel as one burst, which makes
//! their draws and queues one entry, and nothing is built. AD14's
//! requests travel as one burst per tick through the BLE link, the
//! gateway's rate limiter and the CAN bus, whose deliveries land in a
//! buffer the world keeps. A whole AD20 case therefore allocates a few
//! thousand times (2 158 and 4 210, almost none of it for unread
//! messages: pushing each unread arrival onto a vector made it 2 163
//! and 4 215) and a whole AD14 case a few dozen times (48 and 81), not
//! once or more per message, which
//! would put AD20 near 200 k and AD14 near 90 k. The bounds sit well
//! below that: about three times the measured count, except for AD20
//! with the message counter, whose bound stays at the 10 k it had
//! before (2.4 times), so no bound was loosened. A per-message or
//! per-tick allocation that creeps back in fails them.
//!
//! This file is its own test binary because it installs a counting
//! global allocator. Counting is switched on per thread, so allocations
//! of the harness's other threads are never counted. The counts are
//! deterministic: the simulation is seeded and single-threaded.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use attack_engine::builtin::{ad20_cases, can_flood_cases};
use attack_engine::{execute, TestCase};

struct CountingAlloc;

thread_local! {
    /// Allocations made on this thread while counting; `None` when off.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|count| {
        if let Some(n) = count.get() {
            count.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; counting only
// touches a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Executes `case` and returns the heap allocations it made on this
/// thread.
fn allocations_of(case: &TestCase) -> u64 {
    ALLOCATIONS.with(|count| count.set(Some(0)));
    let result = execute(case);
    let allocations = ALLOCATIONS.with(|count| count.take()).expect("counting was on");
    drop(result);
    allocations
}

/// Holds the undefended and the defended case to their budgets.
fn assert_budget(cases: &[TestCase], budgets: [u64; 2]) {
    assert_eq!(cases.len(), 2, "one undefended and one defended case");
    for (case, budget) in cases.iter().zip(budgets) {
        let allocations = allocations_of(case);
        println!("{} ({}): {allocations} allocations", case.attack_id, case.label);
        assert!(
            allocations < budget,
            "{} ({}) made {allocations} allocations, budget {budget}",
            case.attack_id,
            case.label
        );
    }
}

#[test]
fn ad20_flood_cases_stay_within_allocation_budget() {
    assert_budget(&ad20_cases(), [6_500, 10_000]);
}

#[test]
fn ad14_flood_cases_stay_within_allocation_budget() {
    assert_budget(&can_flood_cases(), [150, 250]);
}

#[test]
fn counting_sees_allocations_only_while_on() {
    let boxed = Box::new(1u64);
    assert_eq!(ALLOCATIONS.with(Cell::get), None);
    ALLOCATIONS.with(|count| count.set(Some(0)));
    let counted = std::hint::black_box(vec![*boxed; 4]);
    let allocations = ALLOCATIONS.with(|count| count.take());
    drop(counted);
    assert_eq!(allocations, Some(1));
}
