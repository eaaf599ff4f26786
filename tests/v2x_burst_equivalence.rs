//! V2X unread bursts equal the single sends they replace.
//!
//! `V2xChannel::broadcast_unread_burst` makes every message's loss and
//! jitter draw in order, counts the burst once, and queues its arrivals
//! as one in-flight entry that keeps no arrival times. A poll whose
//! cut-off, or a jam whose deadline, falls inside the burst's span
//! recovers the exact arrivals by replaying the draws. Random scripts of
//! sends, jams and polls run on three channels with one seed:
//!
//! - **burst**: read messages through `broadcast`, each run of unread
//!   messages through one `broadcast_unread_burst`;
//! - **singles**: the same, but every unread message through its own
//!   `broadcast_unread`;
//! - **per message**: every message, read or unread, through
//!   `broadcast`; the receiver drops the unread ones after the poll.
//!
//! After every poll the three must agree on the read messages delivered
//! (in order), the statistics, `is_idle` and every `net.v2x.*` obs
//! counter total. The scripts cover all three channel profiles, jams
//! that open between sends and end inside a burst's arrival span, and
//! poll instants that cut bursts.
//!
//! The properties keep proptest's default configuration, so the
//! `PROPTEST_CASES` environment variable raises their case count.

// Only the channel profiles are used here.
#[allow(dead_code)]
mod common;

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;
use proptest::strategy::{BoxedStrategy, Union};

use saseval::net::v2x::{V2xChannel, V2xMessage};
use saseval::obs::{MemoryRecorder, Obs};
use saseval::types::{Ftti, SimTime};

use common::v2x_profile;

/// Sender of the per-message channel's stand-ins for unread messages.
const UNREAD: &str = "UNREAD";

/// One step of a script.
#[derive(Debug, Clone)]
enum Op {
    /// Advance the clock by this many microseconds.
    Wait(u64),
    /// One read message, sent now.
    Read,
    /// This many unread messages, sent now.
    Unread(u32),
    /// Jam the channel from now for this many microseconds.
    Jam(u64),
    /// Poll now.
    Poll,
}

/// A channel under test with the recorder behind its obs handle.
struct Side {
    channel: V2xChannel,
    recorder: Arc<MemoryRecorder>,
}

impl Side {
    fn new(profile: u8, seed: u64) -> Self {
        let (obs, recorder) = Obs::memory();
        let mut channel = V2xChannel::new(v2x_profile(profile), seed);
        channel.set_obs(obs);
        Side { channel, recorder }
    }

    /// Polls at `now` and returns the senders and payloads of the read
    /// messages delivered, in order.
    fn poll(&mut self, now: SimTime) -> Vec<(String, Bytes)> {
        let mut delivered = self.channel.poll(now);
        delivered.retain(|msg| msg.sender() != UNREAD);
        delivered.into_iter().map(|msg| (msg.sender().to_owned(), msg.payload().clone())).collect()
    }

    fn counters(&self) -> [Option<u64>; 4] {
        let snapshot = self.recorder.snapshot();
        ["net.v2x.sent", "net.v2x.lost", "net.v2x.jammed", "net.v2x.delivered"]
            .map(|name| snapshot.counter(name))
    }
}

/// Polls the three channels at `now` and asserts they agree.
fn check(now: SimTime, [burst, singles, per_message]: &mut [Side; 3]) -> Result<(), TestCaseError> {
    let delivered = burst.poll(now);
    prop_assert_eq!(&delivered, &singles.poll(now), "read messages at {}", now);
    prop_assert_eq!(&delivered, &per_message.poll(now), "read messages at {}", now);
    for other in [&*singles, &*per_message] {
        prop_assert_eq!(burst.channel.stats(), other.channel.stats(), "stats at {}", now);
        prop_assert_eq!(burst.channel.is_idle(), other.channel.is_idle(), "idle at {}", now);
        prop_assert_eq!(burst.counters(), other.counters(), "obs counters at {}", now);
    }
    Ok(())
}

/// Runs `ops` on the three channels and asserts they agree after every
/// poll and once everything has arrived.
fn assert_equivalent(profile: u8, seed: u64, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut sides = [0; 3].map(|_| Side::new(profile, seed));
    let mut now = SimTime::ZERO;
    let mut reads = 0u64;
    for op in ops {
        match *op {
            Op::Wait(us) => now += Ftti::from_micros(us),
            Op::Read => {
                reads += 1;
                let msg = V2xMessage::new("RSU", 1, Bytes::from(reads.to_le_bytes().to_vec()), now);
                for side in &mut sides {
                    side.channel.broadcast(msg.clone(), now);
                }
            }
            Op::Unread(count) => {
                let [burst, singles, per_message] = &mut sides;
                let in_flight = burst.channel.broadcast_unread_burst(count, now);
                let mut single_in_flight = 0;
                for _ in 0..count {
                    if singles.channel.broadcast_unread(now).is_some() {
                        single_in_flight += 1;
                    }
                    let msg = V2xMessage::new(UNREAD, 1, Bytes::new(), now);
                    per_message.channel.broadcast(msg, now);
                }
                prop_assert_eq!(in_flight, single_in_flight, "burst of {} at {}", count, now);
            }
            Op::Jam(us) => {
                for side in &mut sides {
                    side.channel.jam(now + Ftti::from_micros(us));
                }
            }
            Op::Poll => check(now, &mut sides)?,
        }
    }
    check(now + Ftti::from_secs(1), &mut sides)?;
    prop_assert!(sides[0].channel.is_idle(), "everything has arrived");
    Ok(())
}

/// Waits short enough that a poll lands inside a burst's arrival span
/// (500 µs to 3 ms wide, 2 to 13 ms after its send) and long enough to
/// cross several ticks.
fn wait() -> impl Strategy<Value = Op> {
    prop_oneof![0u64..600, 0u64..3_500, 0u64..15_000].prop_map(Op::Wait)
}

fn unread() -> impl Strategy<Value = Op> {
    prop_oneof![1u32..4, 1u32..80].prop_map(Op::Unread)
}

/// Jams ending up to 16 ms from now: past bursts still in flight, or
/// inside their arrival span.
fn jam() -> impl Strategy<Value = Op> {
    (0u64..16_000).prop_map(Op::Jam)
}

/// One script step: about 4 waits, 3 unread runs, 3 polls and, with
/// `reads`, 3 read messages to every jam.
fn script_step(reads: bool) -> BoxedStrategy<Op> {
    let mut steps = vec![jam().boxed()];
    for _ in 0..3 {
        steps.extend([wait().boxed(), unread().boxed(), Just(Op::Poll).boxed()]);
        if reads {
            steps.push(Just(Op::Read).boxed());
        }
    }
    steps.push(wait().boxed());
    Union::new(steps).boxed()
}

proptest! {
    /// Unread traffic only: bursts against single unread sends and
    /// per-message sends.
    #[test]
    fn bursts_match_single_unread_sends(
        seed in any::<u64>(),
        profile in 0u8..3,
        ops in prop::collection::vec(
            script_step(false),
            1..60,
        ),
    ) {
        assert_equivalent(profile, seed, &ops)?;
    }

    /// Read messages interleaved with unread bursts: they share the
    /// channel's RNG, so every burst draw must stay in place.
    #[test]
    fn mixed_stream_matches_per_message_sends(
        seed in any::<u64>(),
        profile in 0u8..3,
        ops in prop::collection::vec(
            script_step(true),
            1..80,
        ),
    ) {
        assert_equivalent(profile, seed, &ops)?;
    }
}

/// AD20's shape on the slow profile: 40 unread messages per 10 ms tick,
/// arriving 10–13 ms later, so polls cut bursts, with a jam whose
/// deadline falls inside a burst's span and genuine messages between.
#[test]
fn tick_sized_bursts_on_the_slow_profile() {
    let mut ops = Vec::new();
    for tick in 0..400u64 {
        ops.push(Op::Unread(40));
        if tick % 10 == 0 {
            ops.extend([Op::Read, Op::Read]);
        }
        if tick == 200 {
            ops.push(Op::Jam(11_500));
        }
        ops.extend([Op::Poll, Op::Wait(10_000)]);
    }
    assert_equivalent(2, 42, &ops).unwrap();
}
