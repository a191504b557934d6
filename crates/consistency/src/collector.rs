//! Collector-CN election (paper §IV-A).
//!
//! One CN at the remote site periodically collects max commit timestamps
//! from the replicas, computes the RCP, and distributes it to the other
//! CNs. If the collector CN goes down, a different CN takes over. Routing
//! the RCP through a single collector keeps it monotone from every
//! client's perspective even when clients fail over between CNs.

/// Tracks which CN currently collects/distributes the RCP.
#[derive(Debug, Clone)]
pub struct CollectorElection {
    alive: Vec<bool>,
    current: Option<usize>,
}

impl CollectorElection {
    /// An election over `cn_count` CNs; the lowest-indexed alive CN leads.
    pub fn new(cn_count: usize) -> Self {
        let mut e = CollectorElection {
            alive: vec![true; cn_count],
            current: None,
        };
        e.elect();
        e
    }

    fn elect(&mut self) {
        self.current = self.alive.iter().position(|&a| a);
    }

    /// The current collector, if any CN is alive.
    pub fn collector(&self) -> Option<usize> {
        self.current
    }

    /// Mark a CN down; re-elects if it was the collector. Returns the new
    /// collector if the leadership changed.
    pub fn on_cn_down(&mut self, cn: usize) -> Option<usize> {
        if cn >= self.alive.len() {
            return None;
        }
        self.alive[cn] = false;
        if self.current == Some(cn) {
            self.elect();
            self.current
        } else {
            None
        }
    }

    /// Mark a CN back up (it does not preempt the current collector).
    pub fn on_cn_up(&mut self, cn: usize) {
        if cn < self.alive.len() {
            self.alive[cn] = true;
            if self.current.is_none() {
                self.elect();
            }
        }
    }

    /// Refresh the whole liveness view from an external health check (the
    /// fault-injection entry point). Returns the new collector if the
    /// leadership changed — i.e. a collector failover happened.
    pub fn refresh(&mut self, alive: &[bool]) -> Option<usize> {
        let before = self.current;
        for (cn, &up) in alive.iter().enumerate() {
            if up {
                self.on_cn_up(cn);
            } else {
                self.on_cn_down(cn);
            }
        }
        if self.current != before {
            self.current
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_alive_leads() {
        let e = CollectorElection::new(3);
        assert_eq!(e.collector(), Some(0));
    }

    #[test]
    fn failover_on_collector_death() {
        let mut e = CollectorElection::new(3);
        let new = e.on_cn_down(0);
        assert_eq!(new, Some(1));
        assert_eq!(e.collector(), Some(1));
        // Non-collector death changes nothing.
        assert_eq!(e.on_cn_down(2), None);
        assert_eq!(e.collector(), Some(1));
    }

    #[test]
    fn refresh_reports_failover_only_on_change() {
        let mut e = CollectorElection::new(3);
        // No change: everyone alive.
        assert_eq!(e.refresh(&[true, true, true]), None);
        // Collector dies: failover reported.
        assert_eq!(e.refresh(&[false, true, true]), Some(1));
        // Same view again: no new failover.
        assert_eq!(e.refresh(&[false, true, true]), None);
        // Old collector returns but does not preempt.
        assert_eq!(e.refresh(&[true, true, true]), None);
        assert_eq!(e.collector(), Some(1));
    }

    #[test]
    fn all_down_then_recovery() {
        let mut e = CollectorElection::new(2);
        e.on_cn_down(0);
        e.on_cn_down(1);
        assert_eq!(e.collector(), None);
        e.on_cn_up(1);
        assert_eq!(e.collector(), Some(1));
        // CN 0 returning does not preempt.
        e.on_cn_up(0);
        assert_eq!(e.collector(), Some(1));
    }

    #[test]
    fn out_of_range_indices_ignored() {
        let mut e = CollectorElection::new(1);
        assert_eq!(e.on_cn_down(9), None);
        e.on_cn_up(9);
        assert_eq!(e.collector(), Some(0));
    }
}
