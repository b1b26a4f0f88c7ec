//! Effects returned by the state machine for the runtime to execute.

use crate::ids::NodeId;
use crate::message::Message;
use dlm_modes::Mode;

/// An instruction from the protocol state machine to its runtime.
///
/// The state machine never performs IO; instead each entry point returns the
/// effects the runtime must carry out. Runtimes count `Send` effects to obtain
/// the paper's messages-per-request metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// Transmit `message` to node `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// Payload.
        message: Message,
    },
    /// The local application's pending request has been granted; it may enter
    /// the critical section in `mode`.
    Granted {
        /// The granted mode.
        mode: Mode,
    },
    /// The local application's Rule 7 upgrade completed: its held `U` lock is
    /// now a `W` lock (no intermediate release happened).
    Upgraded,
}

impl Effect {
    /// Convenience constructor for a send effect.
    pub fn send(to: NodeId, message: Message) -> Self {
        Effect::Send { to, message }
    }

    /// True if this effect is a message transmission.
    pub fn is_send(&self) -> bool {
        matches!(self, Effect::Send { .. })
    }
}

/// Inline capacity of an [`EffectBuf`]. A single protocol entry point emits at
/// most a handful of effects (a grant plus a few freeze/release sends), so
/// eight slots cover steady state; larger bursts spill to the heap.
const INLINE_EFFECTS: usize = 8;

/// A caller-owned, reusable effect sink.
///
/// The protocol entry points (`on_acquire_into` & co.) push into one of these
/// instead of returning a fresh `Vec<Effect>`, so a runtime that keeps a
/// single `EffectBuf` alive performs **zero heap allocations** per protocol
/// step in steady state: the first `INLINE_EFFECTS` (8) effects live inline,
/// and the spill vector — only touched by pathological bursts — retains its
/// capacity across [`EffectBuf::drain`] calls.
///
/// Generic over the effect type so the Naimi–Trehel baseline can reuse it for
/// its own effect enum (keeping the per-op cost comparison fair).
#[derive(Debug, Clone)]
pub struct EffectBuf<T = Effect> {
    /// Number of occupied slots in `inline` (spill holds the rest).
    inline_len: usize,
    inline: [Option<T>; INLINE_EFFECTS],
    spill: Vec<T>,
}

impl<T> EffectBuf<T> {
    /// Create an empty buffer. Allocation-free.
    pub fn new() -> Self {
        EffectBuf {
            inline_len: 0,
            inline: std::array::from_fn(|_| None),
            spill: Vec::new(),
        }
    }

    /// Append an effect, spilling to the heap past the inline capacity.
    #[inline]
    pub fn push(&mut self, effect: T) {
        if self.inline_len < INLINE_EFFECTS {
            self.inline[self.inline_len] = Some(effect);
            self.inline_len += 1;
        } else {
            self.spill.push(effect);
        }
    }

    /// Number of buffered effects.
    #[inline]
    pub fn len(&self) -> usize {
        self.inline_len + self.spill.len()
    }

    /// True if no effects are buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inline_len == 0 && self.spill.is_empty()
    }

    /// Iterate the buffered effects in push order without consuming them.
    #[must_use = "iterating the buffered effects has no effect on the buffer; dropping the iterator silently discards the protocol's output"]
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.inline[..self.inline_len]
            .iter()
            .map(|slot| slot.as_ref().expect("occupied inline slot"))
            .chain(self.spill.iter())
    }

    /// Remove and yield the buffered effects in push order, leaving the
    /// buffer empty (and its spill capacity intact) for reuse.
    #[must_use = "the drained effects are the protocol's instructions to its runtime; dropping them un-executed loses messages"]
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        let n = self.inline_len;
        self.inline_len = 0;
        self.inline[..n]
            .iter_mut()
            .map(|slot| slot.take().expect("occupied inline slot"))
            .chain(self.spill.drain(..))
    }

    /// Drop all buffered effects, keeping capacity.
    pub fn clear(&mut self) {
        for slot in &mut self.inline[..self.inline_len] {
            *slot = None;
        }
        self.inline_len = 0;
        self.spill.clear();
    }

    /// Drain into a fresh `Vec`.
    #[must_use = "the drained effects are the protocol's instructions to its runtime; dropping them un-executed loses messages"]
    pub fn take_vec(&mut self) -> Vec<T> {
        self.drain().collect()
    }
}

impl<T> Default for EffectBuf<T> {
    fn default() -> Self {
        EffectBuf::new()
    }
}

/// What one `*_into` entry-point call pushes into a fresh sink.
#[cfg(test)]
pub(crate) fn effects_of(
    call: impl FnOnce(&mut EffectBuf, &mut dlm_trace::NullObserver),
) -> Vec<Effect> {
    let mut buf = EffectBuf::new();
    call(&mut buf, &mut dlm_trace::NullObserver);
    buf.take_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_helper_and_predicate() {
        let e = Effect::send(NodeId(2), Message::Grant { mode: Mode::Read });
        assert!(e.is_send());
        assert!(!Effect::Granted { mode: Mode::Read }.is_send());
        assert!(!Effect::Upgraded.is_send());
    }

    #[test]
    fn effectbuf_preserves_push_order_across_spill() {
        let mut buf: EffectBuf<u32> = EffectBuf::new();
        for i in 0..20 {
            buf.push(i);
        }
        assert_eq!(buf.len(), 20);
        assert!(!buf.is_empty());
        let seen: Vec<u32> = buf.iter().copied().collect();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        let drained: Vec<u32> = buf.drain().collect();
        assert_eq!(drained, (0..20).collect::<Vec<_>>());
        assert!(buf.is_empty());
    }

    #[test]
    fn effectbuf_reuse_does_not_leak_stale_effects() {
        let mut buf: EffectBuf<u32> = EffectBuf::new();
        for i in 0..12 {
            buf.push(i);
        }
        let _ = buf.drain().count();
        buf.push(99);
        assert_eq!(buf.take_vec(), vec![99]);
        buf.push(1);
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.drain().count(), 0);
    }

    #[test]
    fn partially_consumed_drain_drops_remainder() {
        let mut buf: EffectBuf<u32> = EffectBuf::new();
        for i in 0..10 {
            buf.push(i);
        }
        {
            let mut it = buf.drain();
            assert_eq!(it.next(), Some(0));
        }
        // Dropping the iterator mid-way must still leave the buffer reusable;
        // inline slots not visited by the iterator are cleared lazily by the
        // next push cycle, so only emptiness is guaranteed here.
        assert_eq!(buf.inline_len, 0);
        buf.clear();
        buf.push(7);
        assert_eq!(buf.take_vec(), vec![7]);
    }
}
