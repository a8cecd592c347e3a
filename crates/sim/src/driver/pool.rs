//! The driver's message pool (§4.2.3): arrived, not yet consumed messages,
//! indexed the way a delivery looks for them. A return is found by its
//! call; a data message (a send or a call) sits in its sender's queue,
//! oldest first, and a receive looks only at each queue's head — links are
//! FIFO, so a later message from one sender is never *available* while an
//! earlier one is pooled. Every message also carries a stamp of when it
//! was (last) pooled: pool order, which breaks ties between senders.

use opcsp_core::{CallId, DataKind, Envelope, MsgId, ProcessId};
use std::collections::VecDeque;

/// Where a pooled message sits. Data slots sort before return slots;
/// data by sender, then id — a sender's ids grow in send order — and
/// returns by call, then pool stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Slot {
    Data(ProcessId, MsgId),
    Return(CallId, u64),
}

/// The first return slot: every data slot sorts before it.
const RETURNS: Slot = Slot::Return(CallId(0), 0);

#[derive(Default)]
pub(super) struct Pool {
    /// Each pooled message's slot, ascending, with its pool stamp and its
    /// place in `msgs`. A message a rollback hands back is older than
    /// anything its sender sent since, so it is that sender's head again.
    /// A sorted deque: a stream's pool takes at the front and adds at the
    /// back, and a pool of many senders is short.
    index: VecDeque<(Slot, u64, usize)>,
    /// The messages, in places reused once taken (`free`), so that moving
    /// index entries moves a few words each.
    msgs: Vec<Option<Envelope>>,
    free: Vec<usize>,
    /// The next pool stamp.
    next: u64,
}

impl Pool {
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.index.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Where `slot` is in the index.
    fn find(&self, slot: Slot) -> usize {
        let found = self.index.binary_search_by_key(&slot, |e| e.0);
        found.expect("a pooled message")
    }

    /// Where the return slots start in the index.
    fn returns_from(&self) -> usize {
        self.index.partition_point(|e| e.0 < RETURNS)
    }

    /// Pool `msg`, last in pool order.
    pub(super) fn push(&mut self, msg: Envelope) {
        let stamp = self.next;
        self.next += 1;
        let slot = match msg.kind {
            DataKind::Return(cid) => Slot::Return(cid, stamp),
            DataKind::Send | DataKind::Call(_) => Slot::Data(msg.from, msg.id),
        };
        let place = match self.free.pop() {
            Some(place) => {
                self.msgs[place] = Some(msg);
                place
            }
            None => {
                self.msgs.push(Some(msg));
                self.msgs.len() - 1
            }
        };
        let at = self.index.partition_point(|e| e.0 < slot);
        debug_assert!(
            self.index.get(at).is_none_or(|e| e.0 != slot),
            "a message pooled twice"
        );
        self.index.insert(at, (slot, stamp, place));
    }

    pub(super) fn take(&mut self, slot: Slot) -> Envelope {
        let at = self.find(slot);
        let (_, _, place) = self.index.remove(at).expect("a pooled message");
        let msg = self.msgs[place].take().expect("a pooled message");
        match self.index.is_empty() {
            true => {
                self.msgs.clear();
                self.free.clear();
            }
            false => self.free.push(place),
        }
        msg
    }

    fn get(&self, place: usize) -> &Envelope {
        self.msgs[place].as_ref().expect("a pooled message")
    }

    /// Every pooled return with its call, each call's in pool order.
    pub(super) fn returns(&self) -> impl Iterator<Item = (CallId, Slot)> + '_ {
        let returns = self.index.range(self.returns_from()..);
        returns.map(|&(slot, ..)| match slot {
            Slot::Return(cid, _) => (cid, slot),
            Slot::Data(..) => unreachable!("data slots sort before returns"),
        })
    }

    /// Each sender's oldest pooled data message, in pool order: what a
    /// receive may choose from.
    pub(super) fn heads(&self) -> Vec<(Slot, &Envelope)> {
        let (mut heads, mut at, end) = (Vec::new(), 0, self.returns_from());
        while at < end {
            let (slot, stamp, place) = self.index[at];
            let Slot::Data(p, _) = slot else {
                unreachable!("data slots sort before returns")
            };
            heads.push((stamp, slot, self.get(place)));
            let last = Slot::Data(p, MsgId(u64::MAX));
            at = self.index.partition_point(|e| e.0 <= last);
        }
        heads.sort_unstable_by_key(|(stamp, ..)| *stamp);
        heads.into_iter().map(|(_, slot, m)| (slot, m)).collect()
    }

    /// Every pooled data message, in pool order.
    pub(super) fn data(&self) -> Vec<(Slot, &Envelope)> {
        let all = self.in_pool_order(self.index.range(..self.returns_from()));
        all.into_iter().map(|(_, slot, m)| (slot, m)).collect()
    }

    /// Every pooled message with its stamp and slot, in pool order.
    pub(super) fn all(&self) -> Vec<(u64, Slot, &Envelope)> {
        self.in_pool_order(self.index.iter())
    }

    fn in_pool_order<'a>(
        &'a self,
        entries: impl Iterator<Item = &'a (Slot, u64, usize)>,
    ) -> Vec<(u64, Slot, &'a Envelope)> {
        let all = entries.map(|&(slot, stamp, place)| (stamp, slot, self.get(place)));
        let mut all = Vec::from_iter(all);
        all.sort_unstable_by_key(|(stamp, ..)| *stamp);
        all
    }

    /// The pooled messages, in pool order.
    #[cfg(test)]
    pub(super) fn iter(&self) -> impl Iterator<Item = &Envelope> {
        self.all().into_iter().map(|(_, _, m)| m)
    }

    /// The pool stamp of the message at `slot`.
    #[cfg(debug_assertions)]
    pub(super) fn stamp(&self, slot: Slot) -> u64 {
        self.index[self.find(slot)].1
    }

    /// Take out every message `pick` names something for, visiting them
    /// in pool order.
    pub(super) fn extract<T>(
        &mut self,
        mut pick: impl FnMut(&Envelope) -> Option<T>,
    ) -> Vec<(Envelope, T)> {
        let picked: Vec<(Slot, T)> = self
            .all()
            .into_iter()
            .filter_map(|(_, slot, m)| pick(m).map(|t| (slot, t)))
            .collect();
        picked
            .into_iter()
            .map(|(slot, t)| (self.take(slot), t))
            .collect()
    }
}
