//! Buddy heartbeat monitoring (§6.1).
//!
//! ACR's fail-stop detection: every node periodically heartbeats its buddy;
//! "when the buddy node of this node does not receive heartbeat for a
//! certain period of time, the node is diagnosed as dead".

/// Tracks last-heard times for a set of watched peers and declares the
/// silent ones dead.
#[derive(Debug, Clone)]
pub struct HeartbeatMonitor {
    timeout: f64,
    /// `(peer, last_heard)`; a peer is removed once declared dead.
    watched: Vec<(usize, f64)>,
}

impl HeartbeatMonitor {
    /// Monitor with the given silence `timeout` (seconds).
    pub fn new(timeout: f64) -> Self {
        assert!(timeout > 0.0);
        Self {
            timeout,
            watched: Vec::new(),
        }
    }

    /// Start watching `peer`, treating `now` as the last time it was heard.
    pub fn watch(&mut self, peer: usize, now: f64) {
        if let Some(e) = self.watched.iter_mut().find(|(p, _)| *p == peer) {
            e.1 = now;
        } else {
            self.watched.push((peer, now));
        }
    }

    /// Stop watching `peer` (it crashed and was replaced, or the job is
    /// shutting down).
    pub fn unwatch(&mut self, peer: usize) {
        self.watched.retain(|(p, _)| *p != peer);
    }

    /// A heartbeat (or any message — application traffic proves liveness
    /// just as well) arrived from `peer` at `now`.
    pub fn heard_from(&mut self, peer: usize, now: f64) {
        if let Some(e) = self.watched.iter_mut().find(|(p, _)| *p == peer) {
            e.1 = e.1.max(now);
        }
    }

    /// Peers silent for longer than the timeout as of `now`. Each is
    /// reported once and removed from the watch list (the caller replaces it
    /// with a spare, which gets `watch`ed anew).
    pub fn expired(&mut self, now: f64) -> Vec<usize> {
        let timeout = self.timeout;
        let (dead, alive): (Vec<_>, Vec<_>) = self
            .watched
            .drain(..)
            .partition(|&(_, last)| now - last > timeout);
        self.watched = alive;
        dead.into_iter().map(|(p, _)| p).collect()
    }

    /// The boundary of the next expiry: the earliest watched peer's last
    /// hearing plus the timeout, `None` when nobody is watched. The
    /// comparison is strict, so [`expired`](Self::expired) reports that
    /// peer for any time *past* this one and not at it: a caller that
    /// wakes exactly here must wait a little more, not zero.
    pub fn next_expiry(&self) -> Option<f64> {
        let timeout = self.timeout;
        (self.watched.iter())
            .map(|&(_, last)| last + timeout)
            .reduce(f64::min)
    }

    /// Peers currently being watched.
    pub fn watching(&self) -> usize {
        self.watched.len()
    }

    /// The configured timeout.
    pub fn timeout(&self) -> f64 {
        self.timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_peer_expires_once() {
        let mut m = HeartbeatMonitor::new(5.0);
        m.watch(1, 0.0);
        m.watch(2, 0.0);
        m.heard_from(1, 4.0);
        assert_eq!(m.expired(6.0), vec![2]);
        assert_eq!(m.expired(6.5), Vec::<usize>::new(), "reported once");
        assert_eq!(m.watching(), 1);
        // peer 1 eventually expires too
        assert_eq!(m.expired(10.0), vec![1]);
    }

    #[test]
    fn next_expiry_is_the_strict_boundary() {
        let mut m = HeartbeatMonitor::new(0.5);
        assert_eq!(m.next_expiry(), None, "nobody watched, nothing to wake for");
        m.watch(1, 2.0);
        m.watch(2, 1.0);
        m.heard_from(1, 3.0);
        assert_eq!(m.next_expiry(), Some(1.5), "the quietest peer sets it");
        // Exactly at the boundary nothing has expired yet, so the wake-up
        // computed there is still ahead: the boundary itself, not before.
        assert!(m.expired(1.5).is_empty());
        assert_eq!(m.next_expiry(), Some(1.5));
        // Any moment past it reports the peer, and the next boundary moves on.
        assert_eq!(m.expired(1.5 + 1e-9), vec![2]);
        assert_eq!(m.next_expiry(), Some(3.5));
        m.unwatch(1);
        assert_eq!(m.next_expiry(), None);
    }

    #[test]
    fn heartbeats_keep_peers_alive() {
        let mut m = HeartbeatMonitor::new(2.0);
        m.watch(7, 0.0);
        for t in 1..20 {
            m.heard_from(7, t as f64);
            assert!(m.expired(t as f64 + 1.0).is_empty());
        }
    }

    #[test]
    fn unwatch_and_rewatch() {
        let mut m = HeartbeatMonitor::new(1.0);
        m.watch(3, 0.0);
        m.unwatch(3);
        assert!(m.expired(100.0).is_empty());
        m.watch(3, 100.0);
        assert_eq!(m.expired(102.0), vec![3]);
    }

    #[test]
    fn stale_heartbeat_does_not_rewind() {
        let mut m = HeartbeatMonitor::new(5.0);
        m.watch(1, 10.0);
        m.heard_from(1, 3.0); // out-of-order old message
        assert!(
            m.expired(14.0).is_empty(),
            "last-heard must not go backward"
        );
    }

    #[test]
    fn watch_twice_updates_timestamp() {
        let mut m = HeartbeatMonitor::new(5.0);
        m.watch(1, 0.0);
        m.watch(1, 50.0);
        assert_eq!(m.watching(), 1);
        assert!(m.expired(54.0).is_empty());
    }
}
