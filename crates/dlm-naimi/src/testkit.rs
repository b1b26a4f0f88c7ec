//! Deterministic lock-step harness for the Naimi–Trehel baseline, mirroring
//! [`dlm_core::testkit`].

use crate::{NaimiEffect, NaimiError, NaimiMessage, NaimiNode};
use dlm_core::{EffectBuf, NodeId};
use std::collections::VecDeque;

/// An in-flight Naimi message.
#[derive(Debug, Clone)]
pub struct NaimiFlight {
    /// Transport-level sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Payload.
    pub message: NaimiMessage,
}

/// A deterministic in-memory Naimi–Trehel network with FIFO delivery.
#[derive(Debug, Clone)]
pub struct NaimiNet {
    nodes: Vec<NaimiNode>,
    inbox: VecDeque<NaimiFlight>,
    /// Grants observed, in order.
    pub granted: Vec<NodeId>,
    /// Total messages sent.
    pub messages_sent: u64,
    /// Reusable effect sink, drained after each entry-point call.
    scratch: EffectBuf<NaimiEffect>,
}

impl NaimiNet {
    /// Star topology: node 0 holds the token.
    pub fn star(n: usize) -> Self {
        assert!(n >= 1);
        let nodes = (0..n)
            .map(|i| {
                if i == 0 {
                    NaimiNode::with_token(NodeId(0))
                } else {
                    NaimiNode::new(NodeId(i as u32), NodeId(0))
                }
            })
            .collect();
        NaimiNet {
            nodes,
            inbox: VecDeque::new(),
            granted: Vec::new(),
            messages_sent: 0,
            scratch: EffectBuf::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable node view.
    pub fn node(&self, id: u32) -> &NaimiNode {
        &self.nodes[id as usize]
    }

    /// Request the critical section.
    pub fn acquire(&mut self, id: u32) -> Result<(), NaimiError> {
        self.nodes[id as usize].on_acquire_into(&mut self.scratch)?;
        self.absorb_scratch(NodeId(id));
        Ok(())
    }

    /// Leave the critical section.
    pub fn release(&mut self, id: u32) -> Result<(), NaimiError> {
        self.nodes[id as usize].on_release_into(&mut self.scratch)?;
        self.absorb_scratch(NodeId(id));
        Ok(())
    }

    /// Deliver the oldest message; `false` when idle.
    pub fn deliver_one(&mut self) -> bool {
        let Some(flight) = self.inbox.pop_front() else {
            return false;
        };
        self.nodes[flight.to.index()].on_message_into(
            flight.from,
            flight.message,
            &mut self.scratch,
        );
        self.absorb_scratch(flight.to);
        self.assert_safe();
        true
    }

    /// Deliver until quiet.
    pub fn deliver_all(&mut self) {
        let mut steps = 0;
        while self.deliver_one() {
            steps += 1;
            assert!(steps < 1_000_000, "message storm");
        }
    }

    /// Safety: at most one node in the critical section; exactly one token
    /// (resident or flying).
    pub fn assert_safe(&self) {
        let in_cs = self.nodes.iter().filter(|n| n.in_cs()).count();
        assert!(in_cs <= 1, "mutual exclusion violated: {in_cs} in CS");
        let tokens = self.nodes.iter().filter(|n| n.has_token()).count()
            + self
                .inbox
                .iter()
                .filter(|f| matches!(f.message, NaimiMessage::Token))
                .count();
        assert_eq!(tokens, 1, "token count {tokens}");
    }

    fn absorb_scratch(&mut self, from: NodeId) {
        for e in self.scratch.drain() {
            match e {
                NaimiEffect::Send { to, message } => {
                    self.messages_sent += 1;
                    self.inbox.push_back(NaimiFlight { from, to, message });
                }
                NaimiEffect::Granted => self.granted.push(from),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_nodes_round_robin() {
        let mut net = NaimiNet::star(3);
        net.acquire(1).unwrap();
        net.acquire(2).unwrap();
        net.deliver_all();
        // Exactly one of them is in the CS.
        let holders: Vec<u32> = (0..3).filter(|&i| net.node(i).in_cs()).collect();
        assert_eq!(holders.len(), 1);
        net.release(holders[0]).unwrap();
        net.deliver_all();
        let holders2: Vec<u32> = (0..3).filter(|&i| net.node(i).in_cs()).collect();
        assert_eq!(holders2.len(), 1);
        assert_ne!(holders2[0], holders[0], "FIFO successor got the token");
        net.release(holders2[0]).unwrap();
        net.deliver_all();
        assert_eq!(net.granted.len(), 2);
    }

    #[test]
    fn fifo_order_respected() {
        let mut net = NaimiNet::star(4);
        // Sequential requests with full propagation between them must be
        // served in issue order.
        net.acquire(1).unwrap();
        net.deliver_all();
        net.acquire(2).unwrap();
        net.deliver_all();
        net.acquire(3).unwrap();
        net.deliver_all();
        // 1 is in CS; 2 and 3 are chained via next pointers.
        assert!(net.node(1).in_cs());
        net.release(1).unwrap();
        net.deliver_all();
        assert!(net.node(2).in_cs());
        net.release(2).unwrap();
        net.deliver_all();
        assert!(net.node(3).in_cs());
        net.release(3).unwrap();
        net.deliver_all();
        assert_eq!(
            net.granted,
            vec![NodeId(1), NodeId(2), NodeId(3)],
            "distributed next-queue is FIFO"
        );
    }

    #[test]
    fn path_reversal_shortens_chains() {
        // Chain star: after node 3 is served once, later requests from node 3
        // reach the holder in fewer hops than the initial topology implies.
        let mut net = NaimiNet::star(8);
        for i in 1..8 {
            net.acquire(i).unwrap();
            net.deliver_all();
            // Serve in order so each completes.
            for j in 0..8 {
                if net.node(j).in_cs() {
                    net.release(j).unwrap();
                }
            }
            net.deliver_all();
        }
        // Everyone got in exactly once.
        assert_eq!(net.granted.len(), 7);
    }
}
