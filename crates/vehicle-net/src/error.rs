//! Error type for the network substrates.

use std::fmt;
use std::sync::Arc;

/// Error returned by network-substrate operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// CAN identifier exceeds the 11-bit standard range.
    InvalidCanId {
        /// The rejected raw identifier.
        raw: u16,
    },
    /// CAN payload exceeds 8 bytes.
    PayloadTooLong {
        /// Actual payload length.
        len: usize,
    },
    /// The transmitting node's queue is full; the frame was dropped.
    TxQueueFull {
        /// The node whose queue overflowed.
        node: Arc<str>,
    },
    /// The node is in bus-off state and may not transmit.
    BusOff {
        /// The offending node.
        node: Arc<str>,
    },
    /// Operation requires an established BLE connection.
    NotConnected,
    /// BLE connection attempt while already connected.
    AlreadyConnected,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::InvalidCanId { raw } => {
                write!(f, "CAN identifier {raw:#x} exceeds the 11-bit range")
            }
            NetError::PayloadTooLong { len } => {
                write!(f, "CAN payload of {len} bytes exceeds the 8-byte maximum")
            }
            NetError::TxQueueFull { node } => write!(f, "transmit queue of node {node} is full"),
            NetError::BusOff { node } => write!(f, "node {node} is in bus-off state"),
            NetError::NotConnected => write!(f, "BLE link is not connected"),
            NetError::AlreadyConnected => write!(f, "BLE link is already connected"),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(NetError::InvalidCanId { raw: 0x800 }.to_string().contains("0x800"));
        assert!(NetError::TxQueueFull { node: "GW".into() }.to_string().contains("GW"));
    }
}
