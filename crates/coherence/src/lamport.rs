//! Lamport logical clocks.
//!
//! The ordering protocols in this reproduction use write identifiers and
//! version vectors, but a scalar Lamport clock is still useful where a
//! total order with causal compatibility is enough — e.g. deterministic
//! tie-breaking between concurrent policy updates, or timestamping
//! diagnostic events consistently across address spaces.

use std::fmt;

use globe_wire::wire_record;

/// A scalar logical timestamp: `(counter, node)` pairs, totally ordered
/// with the node id breaking ties.
///
/// # Examples
///
/// ```
/// use globe_coherence::LamportClock;
///
/// let mut a = LamportClock::new(1);
/// let mut b = LamportClock::new(2);
/// let stamp = a.tick();              // a's local event
/// b.witness(stamp);                  // b receives a's message
/// assert!(b.tick() > stamp, "b's next event is after a's send");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LamportClock {
    counter: u64,
    node: u32,
}

/// One timestamp drawn from a [`LamportClock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LamportStamp {
    /// The logical counter value.
    pub counter: u64,
    /// The stamping node (total-order tie-break).
    pub node: u32,
}

impl LamportClock {
    /// A fresh clock owned by `node`.
    pub const fn new(node: u32) -> Self {
        LamportClock { counter: 0, node }
    }

    /// Advances for a local event and returns its timestamp.
    pub fn tick(&mut self) -> LamportStamp {
        self.counter += 1;
        LamportStamp {
            counter: self.counter,
            node: self.node,
        }
    }

    /// Incorporates a received timestamp (the Lamport merge rule): the
    /// local counter jumps past anything it has seen.
    pub fn witness(&mut self, stamp: LamportStamp) {
        self.counter = self.counter.max(stamp.counter);
    }

    /// The current counter value (without advancing).
    pub fn current(&self) -> u64 {
        self.counter
    }
}

impl fmt::Display for LamportStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@n{}", self.counter, self.node)
    }
}

wire_record!(LamportStamp { counter, node });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_strictly_increasing() {
        let mut clock = LamportClock::new(0);
        let a = clock.tick();
        let b = clock.tick();
        assert!(b > a);
        assert_eq!(clock.current(), 2);
    }

    #[test]
    fn witness_implements_happened_before() {
        let mut sender = LamportClock::new(1);
        let mut receiver = LamportClock::new(2);
        for _ in 0..10 {
            sender.tick();
        }
        let send = sender.tick(); // counter 11
        receiver.witness(send);
        let receive = receiver.tick();
        assert!(
            receive > send,
            "receive event must be ordered after the send"
        );
    }

    #[test]
    fn ties_break_by_node_id() {
        let mut a = LamportClock::new(1);
        let mut b = LamportClock::new(2);
        let sa = a.tick();
        let sb = b.tick();
        assert_eq!(sa.counter, sb.counter);
        assert!(sa < sb, "equal counters: lower node id first");
    }

    #[test]
    fn witness_never_regresses() {
        let mut clock = LamportClock::new(0);
        clock.tick();
        clock.tick();
        clock.witness(LamportStamp {
            counter: 1,
            node: 9,
        });
        assert_eq!(clock.current(), 2);
    }

    #[test]
    fn wire_roundtrip() {
        let stamp = LamportStamp {
            counter: 123456,
            node: 7,
        };
        let bytes = globe_wire::to_bytes(&stamp);
        // Counter (varint) first, then the node as four big-endian bytes.
        assert_eq!(&bytes[..], [0xc0, 0xc4, 0x07, 0, 0, 0, 7]);
        assert_eq!(
            globe_wire::from_bytes::<LamportStamp>(&bytes).unwrap(),
            stamp
        );
    }
}
