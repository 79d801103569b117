//! CPU time allocation: weighted max-min fair sharing with hard caps.
//!
//! Each tick, every VM demands some core-seconds (bounded by its vCPU count
//! and any `vcpu_quota` hard cap). If total demand exceeds the machine's
//! core-seconds for the tick, the scheduler performs progressive filling
//! (weighted max-min fairness, weights = vCPU counts) — the behaviour of a
//! work-conserving proportional-share hypervisor scheduler like CFS/KVM.

/// One VM's CPU request for a tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuRequest {
    /// Core-seconds wanted this tick (already bounded by parallelism).
    pub demand: f64,
    /// Hard limit in core-seconds for this tick (vCPUs and `vcpu_quota`).
    pub limit: f64,
    /// Fair-share weight (vCPU count).
    pub weight: f64,
}

/// Working columns of the progressive fill. The caller owns one and passes
/// it to every [`allocate`] call, so a steady-state allocation reuses the
/// capacity of the previous one instead of touching the heap.
#[derive(Debug, Default)]
pub struct Waterfill {
    /// Effective demand per request.
    pub(crate) want: Vec<f64>,
    /// Allocation per request: the fill's output.
    pub(crate) alloc: Vec<f64>,
    /// Requests still competing for capacity.
    active: Vec<usize>,
    /// Requests satisfied in the current round.
    satisfied: Vec<usize>,
}

impl Waterfill {
    /// Fills `capacity` over the wants in `self.want` with weighted max-min
    /// fairness (`weight(i)` is request `i`'s raw weight), leaving the
    /// per-request allocations in `self.alloc`.
    pub(crate) fn run(&mut self, capacity: f64, weight: impl Fn(usize) -> f64) {
        let n = self.want.len();
        self.alloc.clear();
        self.alloc.resize(n, 0.0);
        if n == 0 || capacity <= 0.0 {
            return;
        }
        let (want, alloc) = (&self.want, &mut self.alloc);
        let mut remaining = capacity;
        self.active.clear();
        self.active.extend((0..n).filter(|&i| want[i] > 0.0));
        // Progressive filling: in each round, offer every active VM its
        // weighted share of the remaining capacity; VMs whose residual want
        // is below the share are satisfied and leave, freeing capacity for
        // the next round.
        while !self.active.is_empty() && remaining > 1e-15 {
            let total_weight: f64 = self.active.iter().map(|&i| weight(i).max(1e-9)).sum();
            self.satisfied.clear();
            let mut consumed = 0.0;
            for &i in &self.active {
                let share = remaining * weight(i).max(1e-9) / total_weight;
                let residual = want[i] - alloc[i];
                if residual <= share {
                    alloc[i] = want[i];
                    consumed += residual;
                    self.satisfied.push(i);
                }
            }
            if self.satisfied.is_empty() {
                // No one is satisfiable: split the remainder by weight and stop.
                for &i in &self.active {
                    let share = remaining * weight(i).max(1e-9) / total_weight;
                    alloc[i] += share;
                }
                break;
            }
            remaining -= consumed;
            let satisfied = &self.satisfied;
            self.active.retain(|i| !satisfied.contains(i));
        }
    }
}

/// Allocates `capacity` core-seconds among the requests with weighted
/// max-min fairness, using `fill`'s columns as working space. Returns
/// per-request allocations, each ≤ `min(demand, limit)`, summing to ≤
/// `capacity`. Work-conserving: if total effective demand ≤ capacity
/// everyone gets their demand.
pub fn allocate<'a>(requests: &[CpuRequest], capacity: f64, fill: &'a mut Waterfill) -> &'a [f64] {
    fill.want.clear();
    fill.want.extend(requests.iter().map(|r| r.demand.min(r.limit).max(0.0)));
    fill.run(capacity, |i| requests[i].weight);
    &fill.alloc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(demand: f64, limit: f64, weight: f64) -> CpuRequest {
        CpuRequest { demand, limit, weight }
    }

    fn allocate(requests: &[CpuRequest], capacity: f64) -> Vec<f64> {
        super::allocate(requests, capacity, &mut Waterfill::default()).to_vec()
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(allocate(&[], 10.0).is_empty());
    }

    #[test]
    fn undersubscribed_everyone_satisfied() {
        let rs = [req(1.0, 2.0, 2.0), req(3.0, 4.0, 2.0)];
        let a = allocate(&rs, 10.0);
        assert_eq!(a, vec![1.0, 3.0]);
    }

    #[test]
    fn oversubscribed_split_by_weight() {
        let rs = [req(10.0, 10.0, 1.0), req(10.0, 10.0, 3.0)];
        let a = allocate(&rs, 4.0);
        assert!((a[0] - 1.0).abs() < 1e-9);
        assert!((a[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn limit_binds_before_demand() {
        let rs = [req(10.0, 0.5, 1.0), req(10.0, 10.0, 1.0)];
        let a = allocate(&rs, 4.0);
        assert!((a[0] - 0.5).abs() < 1e-9, "capped VM gets its cap");
        assert!((a[1] - 3.5).abs() < 1e-9, "work-conserving: slack flows to the other VM");
    }

    #[test]
    fn small_demand_releases_share_to_big_demand() {
        let rs = [req(0.2, 10.0, 1.0), req(100.0, 100.0, 1.0)];
        let a = allocate(&rs, 2.0);
        assert!((a[0] - 0.2).abs() < 1e-9);
        assert!((a[1] - 1.8).abs() < 1e-9);
    }

    #[test]
    fn total_never_exceeds_capacity() {
        let rs = [req(5.0, 5.0, 1.0), req(7.0, 6.0, 2.0), req(0.1, 1.0, 1.0)];
        let a = allocate(&rs, 3.0);
        let sum: f64 = a.iter().sum();
        assert!(sum <= 3.0 + 1e-9, "sum {sum}");
        for (x, r) in a.iter().zip(&rs) {
            assert!(*x <= r.demand.min(r.limit) + 1e-9);
            assert!(*x >= 0.0);
        }
    }

    #[test]
    fn zero_capacity_allocates_nothing() {
        let rs = [req(1.0, 1.0, 1.0)];
        assert_eq!(allocate(&rs, 0.0), vec![0.0]);
    }

    #[test]
    fn zero_demand_gets_zero() {
        let rs = [req(0.0, 5.0, 1.0), req(4.0, 5.0, 1.0)];
        let a = allocate(&rs, 2.0);
        assert_eq!(a[0], 0.0);
        assert!((a[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn equal_weights_equal_split() {
        let rs = [req(10.0, 10.0, 2.0), req(10.0, 10.0, 2.0), req(10.0, 10.0, 2.0)];
        let a = allocate(&rs, 6.0);
        for x in a {
            assert!((x - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn reused_fill_matches_a_fresh_one() {
        // An oversubscribed fill stops with requests still active; the next
        // call on the same columns must not see them.
        let calls: [&[CpuRequest]; 4] = [
            &[req(10.0, 10.0, 1.0), req(10.0, 10.0, 3.0), req(0.5, 1.0, 2.0)],
            &[req(1.0, 2.0, 2.0)],
            &[],
            &[req(3.0, 3.0, 1.0), req(0.1, 4.0, 1.0)],
        ];
        let mut fill = Waterfill::default();
        for reqs in calls {
            let reused = super::allocate(reqs, 2.0, &mut fill).to_vec();
            let fresh = allocate(reqs, 2.0);
            assert_eq!(reused.len(), reqs.len());
            assert!(reused.iter().zip(&fresh).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
