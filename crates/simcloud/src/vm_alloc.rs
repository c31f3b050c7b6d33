//! VM-to-host allocation policies.
//!
//! When a datacenter receives a VM creation request it asks its allocation
//! policy to pick a host. These policies mirror CloudSim's
//! `VmAllocationPolicySimple` (least-loaded) plus the classic first-fit /
//! best-fit / round-robin alternatives used in ablations.

use std::collections::HashMap;

use crate::host::Host;
use crate::ids::HostId;
use crate::vm::VmSpec;

/// Chooses a host for an incoming VM.
///
/// Implementations must only return hosts for which
/// [`Host::is_suitable_for`] holds; the datacenter debug-asserts this.
pub trait VmAllocationPolicy: Send {
    /// Picks a host for `vm` among `hosts`, or `None` if nothing fits.
    fn select_host(&mut self, hosts: &[Host], vm: &VmSpec) -> Option<HostId>;

    /// Human-readable policy name.
    fn name(&self) -> &'static str;
}

/// Fingerprint of the fit-relevant VmSpec fields, so scans for identical
/// requirements can share a resume cursor.
type SpecKey = (u32, u64, u64, u64, u64);

fn spec_key(vm: &VmSpec) -> SpecKey {
    (
        vm.pes,
        vm.mips.to_bits(),
        vm.ram_mb.to_bits(),
        vm.bw_mbps.to_bits(),
        vm.size_mb.to_bits(),
    )
}

/// First host that fits, scanning in id order.
///
/// Keeps a per-spec resume cursor: host capacity in this simulator only
/// shrinks (VMs are never released back mid-run, and failed hosts never
/// recover), so a host that could not fit a given spec once can never fit
/// it later. Each scan resumes where the previous scan for the same spec
/// stopped, so the VMs of one spec are placed in O(hosts + VMs) instead
/// of O(hosts × VMs), returning exactly the hosts a full rescan would.
/// Cursors are looked up by spec in a map, so a fleet of distinct specs
/// pays one hash probe per VM, not a search over every spec seen.
#[derive(Debug, Default, Clone)]
pub struct FirstFit {
    /// First host index not yet ruled out, per spec fingerprint.
    cursors: HashMap<SpecKey, usize>,
}

impl VmAllocationPolicy for FirstFit {
    fn select_host(&mut self, hosts: &[Host], vm: &VmSpec) -> Option<HostId> {
        let cursor = self.cursors.entry(spec_key(vm)).or_insert(0);
        let start = (*cursor).min(hosts.len());
        match hosts[start..].iter().position(|h| h.is_suitable_for(vm)) {
            Some(offset) => {
                *cursor = start + offset;
                Some(hosts[*cursor].id)
            }
            None => {
                *cursor = hosts.len();
                None
            }
        }
    }

    fn name(&self) -> &'static str {
        "first-fit"
    }
}

/// Host that leaves the least free RAM after placement (tightest packing).
#[derive(Debug, Default, Clone)]
pub struct BestFit;

impl VmAllocationPolicy for BestFit {
    fn select_host(&mut self, hosts: &[Host], vm: &VmSpec) -> Option<HostId> {
        hosts
            .iter()
            .filter(|h| h.is_suitable_for(vm))
            .min_by(|a, b| {
                let la = a.available_ram() - vm.ram_mb;
                let lb = b.available_ram() - vm.ram_mb;
                la.partial_cmp(&lb).expect("finite leftovers")
            })
            .map(|h| h.id)
    }

    fn name(&self) -> &'static str {
        "best-fit"
    }
}

/// CloudSim's `VmAllocationPolicySimple`: host with the most free PEs.
#[derive(Debug, Default, Clone)]
pub struct LeastLoaded;

impl VmAllocationPolicy for LeastLoaded {
    fn select_host(&mut self, hosts: &[Host], vm: &VmSpec) -> Option<HostId> {
        hosts
            .iter()
            .filter(|h| h.is_suitable_for(vm))
            .max_by_key(|h| h.free_pes())
            .map(|h| h.id)
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }
}

/// Energy-motivated consolidation: the suitable host with the *fewest*
/// free PEs (ties to the lowest id). Packing VMs onto already-busy hosts
/// leaves the rest idle — the placement half of the power-aware policies
/// in the paper's related work (\[27\]).
#[derive(Debug, Default, Clone)]
pub struct Consolidate;

impl VmAllocationPolicy for Consolidate {
    fn select_host(&mut self, hosts: &[Host], vm: &VmSpec) -> Option<HostId> {
        hosts
            .iter()
            .filter(|h| h.is_suitable_for(vm))
            .min_by_key(|h| h.free_pes())
            .map(|h| h.id)
    }

    fn name(&self) -> &'static str {
        "consolidate"
    }
}

/// Cycles through hosts, skipping ones that do not fit.
#[derive(Debug, Default, Clone)]
pub struct RoundRobinHosts {
    cursor: usize,
}

impl VmAllocationPolicy for RoundRobinHosts {
    fn select_host(&mut self, hosts: &[Host], vm: &VmSpec) -> Option<HostId> {
        if hosts.is_empty() {
            return None;
        }
        let n = hosts.len();
        for step in 0..n {
            let idx = (self.cursor + step) % n;
            if hosts[idx].is_suitable_for(vm) {
                self.cursor = (idx + 1) % n;
                return Some(hosts[idx].id);
            }
        }
        None
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostSpec;

    fn hosts(n: usize) -> Vec<Host> {
        (0..n)
            .map(|i| {
                Host::new(
                    HostId(i as u32),
                    HostSpec::new(2, 1_000.0, 1_024.0, 1_000.0, 10_000.0),
                )
            })
            .collect()
    }

    fn small_vm() -> VmSpec {
        VmSpec::new(500.0, 1_000.0, 256.0, 100.0, 1)
    }

    #[test]
    fn first_fit_prefers_low_ids() {
        let hs = hosts(3);
        let mut p = FirstFit::default();
        assert_eq!(p.select_host(&hs, &small_vm()), Some(HostId(0)));
        assert_eq!(p.name(), "first-fit");
    }

    #[test]
    fn first_fit_skips_full_hosts() {
        let mut hs = hosts(3);
        // Fill host 0 completely.
        let big = VmSpec::new(1_000.0, 10_000.0, 1_024.0, 1_000.0, 2);
        assert!(hs[0].allocate_vm(crate::ids::VmId(99), &big));
        let mut p = FirstFit::default();
        assert_eq!(p.select_host(&hs, &small_vm()), Some(HostId(1)));
    }

    #[test]
    fn first_fit_cursors_match_a_stateless_scan() {
        let mut hs = hosts(8);
        let a = small_vm();
        let b = VmSpec::new(500.0, 1_000.0, 512.0, 100.0, 1);
        let c = VmSpec::new(900.0, 1_000.0, 128.0, 10.0, 2);
        // Repeated specs resume their cursor; distinct specs get their own.
        let order = [
            &a, &b, &a, &c, &b, &a, &c, &a, &b, &b, &c, &a, &a, &b, &c, &a,
        ];
        let mut p = FirstFit::default();
        for (i, vm) in order.into_iter().enumerate() {
            let expected = hs.iter().position(|h| h.is_suitable_for(vm));
            let picked = p.select_host(&hs, vm);
            assert_eq!(picked.map(|h| h.index()), expected, "pick {i}");
            if let Some(h) = picked {
                assert!(hs[h.index()].allocate_vm(crate::ids::VmId(i as u32), vm));
            }
        }
        assert_eq!(p.cursors.len(), 3);
    }

    #[test]
    fn best_fit_packs_tightest() {
        let mut hs = hosts(3);
        // Host 1 has less free RAM -> best fit picks it.
        let filler = VmSpec::new(100.0, 100.0, 700.0, 10.0, 1);
        assert!(hs[1].allocate_vm(crate::ids::VmId(50), &filler));
        let mut p = BestFit;
        assert_eq!(p.select_host(&hs, &small_vm()), Some(HostId(1)));
    }

    #[test]
    fn least_loaded_spreads() {
        let mut hs = hosts(3);
        let one_pe = small_vm();
        assert!(hs[0].allocate_vm(crate::ids::VmId(1), &one_pe));
        let mut p = LeastLoaded;
        // Hosts 1 and 2 both have 2 free PEs; max_by_key keeps the last max.
        let sel = p.select_host(&hs, &one_pe).unwrap();
        assert_ne!(sel, HostId(0));
    }

    #[test]
    fn round_robin_cycles() {
        let hs = hosts(3);
        let mut p = RoundRobinHosts::default();
        let picks: Vec<_> = (0..6)
            .map(|_| p.select_host(&hs, &small_vm()).unwrap())
            .collect();
        assert_eq!(
            picks,
            vec![
                HostId(0),
                HostId(1),
                HostId(2),
                HostId(0),
                HostId(1),
                HostId(2)
            ]
        );
    }

    #[test]
    fn consolidate_packs_busy_hosts_first() {
        let mut hs = hosts(3);
        let one_pe = small_vm();
        // Host 1 already carries a VM: consolidation targets it.
        assert!(hs[1].allocate_vm(crate::ids::VmId(1), &one_pe));
        let mut p = Consolidate;
        assert_eq!(p.select_host(&hs, &one_pe), Some(HostId(1)));
        assert_eq!(p.name(), "consolidate");
        // Fill host 1 completely; the next pick falls back to an idle one.
        assert!(hs[1].allocate_vm(crate::ids::VmId(2), &one_pe));
        let next = p.select_host(&hs, &one_pe).unwrap();
        assert_ne!(next, HostId(1));
    }

    #[test]
    fn all_policies_return_none_when_nothing_fits() {
        let hs = hosts(2);
        let huge = VmSpec::new(1_000.0, 99_999.0, 9_999.0, 9_999.0, 4);
        assert_eq!(FirstFit::default().select_host(&hs, &huge), None);
        assert_eq!(BestFit.select_host(&hs, &huge), None);
        assert_eq!(LeastLoaded.select_host(&hs, &huge), None);
        assert_eq!(Consolidate.select_host(&hs, &huge), None);
        assert_eq!(RoundRobinHosts::default().select_host(&hs, &huge), None);
        assert_eq!(RoundRobinHosts::default().select_host(&[], &huge), None);
    }
}
