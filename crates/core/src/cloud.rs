//! The cloud manager: the OpenStack-Nova role in the paper's architecture.
//!
//! Node managers "periodically contact the cloud manager to fetch relevant
//! information about the VMs hosted on the physical server, including VM
//! priority (high/low), and a list of VMs that belong to the same
//! high-priority application", staying aware of placement changes from VM
//! arrivals and migrations (§III-D.2).

use perfcloud_host::{Priority, ServerId, VmId};
use std::collections::BTreeMap;

/// Identifier of a (high-priority) application whose VMs form one group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u32);

/// Registry record for one VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmRecord {
    /// Where the VM currently runs.
    pub server: ServerId,
    /// Administrator-assigned priority.
    pub priority: Priority,
    /// Application membership (high-priority VMs only).
    pub app: Option<AppId>,
}

/// Version stamp on a published placement view.
///
/// `term` is the publishing coordinator's election term (unique per
/// coordinator incarnation: it encodes both the Bully round and the winner's
/// replica id), and `seq` its per-term publish counter. Epochs order
/// lexicographically, so any update from a newer coordinator supersedes every
/// update from an older one regardless of sequence numbers. A node manager
/// must never apply an update whose epoch is below its last-applied one —
/// that is the epoch-regression window a restarting coordinator (volatile
/// `seq` reset to zero) would otherwise open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlacementEpoch {
    /// Publishing coordinator's election term (round and owner packed).
    pub term: u64,
    /// Per-term publish sequence number, starting at 1.
    pub seq: u64,
}

impl PlacementEpoch {
    /// The epoch below every published one.
    pub const ZERO: PlacementEpoch = PlacementEpoch { term: 0, seq: 0 };
}

impl std::fmt::Display for PlacementEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Terms pack (round, owner); render both halves for readable traces.
        write!(f, "{}/{}.{}", self.term >> 32, self.term & 0xffff_ffff, self.seq)
    }
}

/// One server's placement view, as a node manager consumes it each
/// interval. Reused across intervals via [`CloudManager::placement_into`];
/// cloning with [`Clone::clone_from`] also reuses the target's buffers.
#[derive(Debug, Default, PartialEq)]
pub struct Placement {
    /// Distinct high-priority applications on the server, ascending. The
    /// first is the controlled one; more than one means colocation.
    pub apps: Vec<AppId>,
    /// Member VMs (on this server) of the controlled application, id order.
    pub members: Vec<VmId>,
    /// Low-priority VMs on the server (the antagonist suspects), id order.
    pub suspects: Vec<VmId>,
}

impl Placement {
    /// Empties the view, keeping buffer capacity.
    pub fn clear(&mut self) {
        self.apps.clear();
        self.members.clear();
        self.suspects.clear();
    }
}

impl Clone for Placement {
    fn clone(&self) -> Self {
        Placement {
            apps: self.apps.clone(),
            members: self.members.clone(),
            suspects: self.suspects.clone(),
        }
    }

    // The derived default would drop `self`'s buffers and allocate fresh
    // ones; element-wise clone_from keeps existing capacity, which the node
    // manager's placement cache relies on to stay allocation-free.
    fn clone_from(&mut self, source: &Self) {
        self.apps.clone_from(&source.apps);
        self.members.clone_from(&source.members);
        self.suspects.clone_from(&source.suspects);
    }
}

/// The central VM registry.
///
/// Stored struct-of-arrays: one dense column per [`VmRecord`] field plus a
/// per-server row list, so the per-interval placement fetch walks only the
/// server's own rows (contiguous column reads) instead of scanning the
/// whole registry. A `VmId → row` index keeps point lookups and
/// re-registration cheap; rows are swap-removed on deregistration, and the
/// per-server lists stay sorted by VM id so every derived view keeps the
/// exact id order of the original map-based registry.
#[derive(Debug, Clone, Default)]
pub struct CloudManager {
    /// VM id → row in the columns.
    index: BTreeMap<VmId, u32>,
    ids: Vec<VmId>,
    servers: Vec<ServerId>,
    priorities: Vec<Priority>,
    apps: Vec<Option<AppId>>,
    /// Rows hosted on each server, sorted by the VM id at the row.
    by_server: BTreeMap<ServerId, Vec<u32>>,
    /// Colocation conflicts reported by node managers (multiple high-priority
    /// applications on one server) — the paper's future-work migration hook.
    notifications: Vec<(ServerId, Vec<AppId>)>,
}

impl PartialEq for CloudManager {
    // Row order depends on registration history; equality is over the
    // logical registry contents, like the map-based representation had.
    fn eq(&self, other: &Self) -> bool {
        self.index.len() == other.index.len()
            && self.notifications == other.notifications
            && self
                .index
                .keys()
                .zip(other.index.keys())
                .all(|(a, b)| a == b && self.record(*a) == other.record(*b))
    }
}

impl CloudManager {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered VMs.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Rows of the VMs hosted on `server`, sorted by VM id.
    fn rows_on(&self, server: ServerId) -> &[u32] {
        self.by_server.get(&server).map_or(&[], Vec::as_slice)
    }

    /// Inserts `row` into `server`'s list, keeping it sorted by VM id.
    fn link(&mut self, server: ServerId, row: u32) {
        let vm = self.ids[row as usize];
        let rows = self.by_server.entry(server).or_default();
        let at = rows.partition_point(|&r| self.ids[r as usize] < vm);
        rows.insert(at, row);
    }

    /// Removes `row` from `server`'s list.
    fn unlink(&mut self, server: ServerId, row: u32) {
        let rows = self.by_server.get_mut(&server).expect("row is linked");
        let at = rows.iter().position(|&r| r == row).expect("row is linked");
        rows.remove(at);
        if rows.is_empty() {
            self.by_server.remove(&server);
        }
    }

    /// Registers (or re-registers) a VM.
    pub fn register(&mut self, vm: VmId, record: VmRecord) {
        if record.priority == Priority::Low {
            assert!(record.app.is_none(), "low-priority VMs have no application group");
        }
        if let Some(&row) = self.index.get(&vm) {
            let old = self.servers[row as usize];
            if old != record.server {
                self.unlink(old, row);
                self.link(record.server, row);
            }
            self.servers[row as usize] = record.server;
            self.priorities[row as usize] = record.priority;
            self.apps[row as usize] = record.app;
            return;
        }
        let row = self.ids.len() as u32;
        self.ids.push(vm);
        self.servers.push(record.server);
        self.priorities.push(record.priority);
        self.apps.push(record.app);
        self.index.insert(vm, row);
        self.link(record.server, row);
    }

    /// Removes a VM (teardown).
    pub fn deregister(&mut self, vm: VmId) -> Option<VmRecord> {
        let row = self.index.remove(&vm)?;
        let record = VmRecord {
            server: self.servers[row as usize],
            priority: self.priorities[row as usize],
            app: self.apps[row as usize],
        };
        self.unlink(record.server, row);
        let last = (self.ids.len() - 1) as u32;
        self.ids.swap_remove(row as usize);
        self.servers.swap_remove(row as usize);
        self.priorities.swap_remove(row as usize);
        self.apps.swap_remove(row as usize);
        if row != last {
            // The former last row moved into the hole; repoint its index
            // entry and its server list slot.
            let moved = self.ids[row as usize];
            *self.index.get_mut(&moved).expect("moved row is indexed") = row;
            let rows =
                self.by_server.get_mut(&self.servers[row as usize]).expect("moved row is linked");
            let at = rows.iter().position(|&r| r == last).expect("moved row is linked");
            rows[at] = row;
        }
        Some(record)
    }

    /// Moves a VM to another server (migration).
    pub fn migrate(&mut self, vm: VmId, to: ServerId) {
        if let Some(&row) = self.index.get(&vm) {
            let from = self.servers[row as usize];
            if from != to {
                self.unlink(from, row);
                self.servers[row as usize] = to;
                self.link(to, row);
            }
        }
    }

    /// Looks up one VM.
    pub fn record(&self, vm: VmId) -> Option<VmRecord> {
        self.index.get(&vm).map(|&row| VmRecord {
            server: self.servers[row as usize],
            priority: self.priorities[row as usize],
            app: self.apps[row as usize],
        })
    }

    /// All VMs placed on `server`, in id order.
    pub fn vms_on(&self, server: ServerId) -> Vec<(VmId, VmRecord)> {
        self.rows_on(server)
            .iter()
            .map(|&r| {
                let r = r as usize;
                (
                    self.ids[r],
                    VmRecord {
                        server: self.servers[r],
                        priority: self.priorities[r],
                        app: self.apps[r],
                    },
                )
            })
            .collect()
    }

    /// High-priority application groups present on `server`: app id → its
    /// member VMs *on that server*, in id order.
    pub fn apps_on(&self, server: ServerId) -> Vec<(AppId, Vec<VmId>)> {
        let mut groups: BTreeMap<AppId, Vec<VmId>> = BTreeMap::new();
        for (vm, r) in self.vms_on(server) {
            if r.priority == Priority::High {
                if let Some(app) = r.app {
                    groups.entry(app).or_default().push(vm);
                }
            }
        }
        groups.into_iter().collect()
    }

    /// Low-priority VMs on `server` (the antagonist suspects), in id order.
    pub fn low_priority_on(&self, server: ServerId) -> Vec<VmId> {
        self.vms_on(server)
            .into_iter()
            .filter(|(_, r)| r.priority == Priority::Low)
            .map(|(v, _)| v)
            .collect()
    }

    /// Fills `out` with the placement view a node manager needs each
    /// sampling interval, reusing its buffers. Equivalent to combining
    /// [`apps_on`](Self::apps_on) (controlled app = the lowest app id, its
    /// members in id order) with [`low_priority_on`](Self::low_priority_on),
    /// without the per-interval allocations of the `Vec`-returning forms.
    pub fn placement_into(&self, server: ServerId, out: &mut Placement) {
        out.clear();
        let rows = self.rows_on(server);
        for &row in rows {
            let row = row as usize;
            match self.priorities[row] {
                Priority::High => {
                    if let Some(app) = self.apps[row] {
                        if !out.apps.contains(&app) {
                            out.apps.push(app);
                        }
                    }
                }
                Priority::Low => out.suspects.push(self.ids[row]),
            }
        }
        out.apps.sort_unstable();
        if let Some(&controlled) = out.apps.first() {
            for &row in rows {
                let row = row as usize;
                if self.priorities[row] == Priority::High && self.apps[row] == Some(controlled) {
                    out.members.push(self.ids[row]);
                }
            }
        }
    }

    /// Called by a node manager that observed multiple high-priority
    /// applications colocated on its server (the paper's signal for
    /// complementary solutions such as VM migration).
    pub fn notify_colocation(&mut self, server: ServerId, apps: Vec<AppId>) {
        self.notifications.push((server, apps));
    }

    /// Conflicts reported so far.
    pub fn notifications(&self) -> &[(ServerId, Vec<AppId>)] {
        &self.notifications
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hi(server: u32, app: u32) -> VmRecord {
        VmRecord { server: ServerId(server), priority: Priority::High, app: Some(AppId(app)) }
    }

    fn lo(server: u32) -> VmRecord {
        VmRecord { server: ServerId(server), priority: Priority::Low, app: None }
    }

    #[test]
    fn registry_partition_by_priority() {
        let mut cm = CloudManager::new();
        cm.register(VmId(0), hi(0, 1));
        cm.register(VmId(1), hi(0, 1));
        cm.register(VmId(2), lo(0));
        cm.register(VmId(3), hi(1, 1));
        assert_eq!(cm.low_priority_on(ServerId(0)), vec![VmId(2)]);
        let apps = cm.apps_on(ServerId(0));
        assert_eq!(apps.len(), 1);
        assert_eq!(apps[0], (AppId(1), vec![VmId(0), VmId(1)]));
        assert!(cm.low_priority_on(ServerId(1)).is_empty());
    }

    #[test]
    fn migration_updates_placement() {
        let mut cm = CloudManager::new();
        cm.register(VmId(0), hi(0, 1));
        cm.migrate(VmId(0), ServerId(5));
        assert_eq!(cm.record(VmId(0)).unwrap().server, ServerId(5));
        assert!(cm.vms_on(ServerId(0)).is_empty());
        assert_eq!(cm.vms_on(ServerId(5)).len(), 1);
    }

    #[test]
    fn multiple_apps_grouped_separately() {
        let mut cm = CloudManager::new();
        cm.register(VmId(0), hi(0, 1));
        cm.register(VmId(1), hi(0, 2));
        let apps = cm.apps_on(ServerId(0));
        assert_eq!(apps.len(), 2);
    }

    #[test]
    fn notifications_accumulate() {
        let mut cm = CloudManager::new();
        cm.notify_colocation(ServerId(3), vec![AppId(1), AppId(2)]);
        assert_eq!(cm.notifications().len(), 1);
        assert_eq!(cm.notifications()[0].0, ServerId(3));
    }

    #[test]
    fn deregister_removes() {
        let mut cm = CloudManager::new();
        cm.register(VmId(0), lo(0));
        assert!(cm.deregister(VmId(0)).is_some());
        assert!(cm.record(VmId(0)).is_none());
        assert!(cm.deregister(VmId(0)).is_none());
    }

    #[test]
    fn columns_and_rows_agree_with_records() {
        let mut cm = CloudManager::new();
        cm.register(VmId(3), hi(1, 2));
        cm.register(VmId(0), hi(0, 1));
        cm.register(VmId(2), lo(0));
        cm.register(VmId(1), hi(0, 1));
        assert_eq!(cm.len(), 4);
        for s in [ServerId(0), ServerId(1)] {
            for &row in cm.rows_on(s) {
                let row = row as usize;
                let r = cm.record(cm.ids[row]).unwrap();
                assert_eq!(r.server, s);
                assert_eq!(cm.servers[row], r.server);
                assert_eq!(cm.priorities[row], r.priority);
                assert_eq!(cm.apps[row], r.app);
            }
        }
        // Row lists are sorted by VM id regardless of registration order.
        let on0: Vec<VmId> = cm.rows_on(ServerId(0)).iter().map(|&r| cm.ids[r as usize]).collect();
        assert_eq!(on0, vec![VmId(0), VmId(1), VmId(2)]);
        assert_eq!(on0, cm.vms_on(ServerId(0)).into_iter().map(|(vm, _)| vm).collect::<Vec<_>>());
    }

    #[test]
    fn churn_keeps_index_and_row_lists_consistent() {
        // swap_remove moves the last row into the hole; deregistering from
        // the middle repeatedly exercises the index/row-list fixups.
        let mut cm = CloudManager::new();
        for v in 0..10u32 {
            cm.register(VmId(v), if v % 3 == 0 { lo(v % 4) } else { hi(v % 4, 1) });
        }
        for v in [4u32, 0, 7, 9] {
            assert!(cm.deregister(VmId(v)).is_some());
        }
        cm.migrate(VmId(5), ServerId(0));
        cm.register(VmId(4), hi(2, 3));
        assert_eq!(cm.len(), 7);
        for v in 0..10u32 {
            let expect_present = !matches!(v, 0 | 7 | 9);
            assert_eq!(cm.record(VmId(v)).is_some(), expect_present, "vm {v}");
        }
        // Every row list entry round-trips through the index.
        for s in 0..4u32 {
            let rows = cm.rows_on(ServerId(s));
            assert!(rows.windows(2).all(|w| cm.ids[w[0] as usize] < cm.ids[w[1] as usize]));
            for &r in rows {
                assert_eq!(cm.record(cm.ids[r as usize]).unwrap().server, ServerId(s));
            }
        }
        let mut total = 0;
        for s in 0..4u32 {
            total += cm.rows_on(ServerId(s)).len();
        }
        assert_eq!(total, cm.len());
    }

    /// Regression for migration-driven churn: swap_remove deregistration
    /// moves rows, migration relinks them, and re-registration re-homes
    /// them — interleave all three with the sampling-path reads
    /// (`placement_into`, `rows_on`, `record`) and check every read
    /// against a naive map model after *each* op, not just at the end. A
    /// stale cached row index anywhere shows up as a wrong priority, a
    /// missorted suspect list, or a row linked under the wrong server.
    #[test]
    fn migration_churn_while_sampling_matches_model() {
        const SERVERS: u32 = 5;
        let mut cm = CloudManager::new();
        let mut model: BTreeMap<VmId, VmRecord> = BTreeMap::new();
        // Deterministic LCG so the op sequence is stable.
        let mut state = 0x2545_f491u64;
        let mut next = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let check = |cm: &CloudManager, model: &BTreeMap<VmId, VmRecord>| {
            assert_eq!(cm.len(), model.len());
            let mut seen = 0;
            for s in 0..SERVERS {
                let server = ServerId(s);
                let rows = cm.rows_on(server);
                seen += rows.len();
                assert!(
                    rows.windows(2).all(|w| cm.ids[w[0] as usize] < cm.ids[w[1] as usize]),
                    "row list of {server} not id-sorted"
                );
                for &r in rows {
                    let vm = cm.ids[r as usize];
                    assert_eq!(cm.servers[r as usize], server, "row of {vm} mislinked");
                    assert_eq!(model.get(&vm), cm.record(vm).as_ref(), "record of {vm}");
                }
                // The node manager's sampling read.
                let mut view = Placement::default();
                cm.placement_into(server, &mut view);
                let expect_suspects: Vec<VmId> = model
                    .iter()
                    .filter(|(_, r)| r.server == server && r.priority == Priority::Low)
                    .map(|(&vm, _)| vm)
                    .collect();
                assert_eq!(view.suspects, expect_suspects, "suspects on {server}");
                let mut expect_apps: Vec<AppId> =
                    model.values().filter(|r| r.server == server).filter_map(|r| r.app).collect();
                expect_apps.sort_unstable();
                expect_apps.dedup();
                assert_eq!(view.apps, expect_apps, "apps on {server}");
            }
            assert_eq!(seen, cm.len(), "row lists must partition the registry");
        };
        for vm in 0..20u32 {
            let rec = if vm % 3 == 0 { lo(vm % SERVERS) } else { hi(vm % SERVERS, 1 + vm % 2) };
            cm.register(VmId(vm), rec);
            model.insert(VmId(vm), rec);
        }
        check(&cm, &model);
        for _ in 0..400 {
            let vm = VmId(next(24) as u32);
            match next(4) {
                // Live migration of an existing VM.
                0 => {
                    let to = ServerId(next(u64::from(SERVERS)) as u32);
                    cm.migrate(vm, to);
                    if let Some(r) = model.get_mut(&vm) {
                        r.server = to;
                    }
                }
                // Teardown (swap_remove path).
                1 => {
                    assert_eq!(cm.deregister(vm), model.remove(&vm));
                }
                // (Re-)registration, possibly migration-driven re-homing.
                _ => {
                    let server = next(u64::from(SERVERS)) as u32;
                    let rec =
                        if vm.0.is_multiple_of(3) { lo(server) } else { hi(server, 1 + vm.0 % 2) };
                    cm.register(vm, rec);
                    model.insert(vm, rec);
                }
            }
            check(&cm, &model);
        }
    }

    #[test]
    fn re_registration_moves_server() {
        let mut cm = CloudManager::new();
        cm.register(VmId(0), hi(0, 1));
        cm.register(VmId(1), hi(0, 1));
        cm.register(VmId(0), hi(2, 1));
        assert_eq!(cm.record(VmId(0)).unwrap().server, ServerId(2));
        assert_eq!(cm.vms_on(ServerId(0)).len(), 1);
        assert_eq!(cm.vms_on(ServerId(2)).len(), 1);
    }

    #[test]
    fn logical_equality_ignores_row_order() {
        let mut a = CloudManager::new();
        a.register(VmId(0), hi(0, 1));
        a.register(VmId(1), lo(0));
        let mut b = CloudManager::new();
        b.register(VmId(1), lo(0));
        b.register(VmId(0), hi(0, 1));
        assert_eq!(a, b);
        b.migrate(VmId(0), ServerId(1));
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "no application group")]
    fn low_priority_with_app_rejected() {
        let mut cm = CloudManager::new();
        cm.register(
            VmId(0),
            VmRecord { server: ServerId(0), priority: Priority::Low, app: Some(AppId(1)) },
        );
    }
}
