//! First-fit VM-to-host placement: every datacenter places each incoming
//! VM on its lowest-id host that fits it.

use crate::host::Host;
use crate::ids::HostId;
use crate::time::SimTime;
use crate::vm::VmSpec;

/// First host that fits, scanning in id order.
///
/// Scans resume at a cursor past the leading hosts with no free PE. Every
/// valid VM needs a PE ([`VmSpec::validate`]), so the pick is exactly a
/// stateless scan's, and placement work is O(hosts + VMs) whenever a host
/// with a free PE fits the next VM (PEs and memory fill together on every
/// [`crate::host::HostSpec::roomy_for`] fleet).
///
/// Hosts only lose capacity between two placements: the broker sends every
/// `VmCreate` at `Start` with its datacenter's latency, so a datacenter
/// places all of its VMs at one instant and no `HostRepair` falls between
/// two of them. [`FirstFit::select_host`] asserts the single instant, so a
/// change that places VMs mid-run fails loudly.
#[derive(Default)]
pub(crate) struct FirstFit {
    /// Hosts below this index have no free PE.
    full: usize,
    /// The instant of this datacenter's first placement.
    placed_at: Option<SimTime>,
    /// Hosts examined so far, cursor steps included.
    #[cfg(test)]
    checks: usize,
}

impl FirstFit {
    /// Picks a host for `vm` among `hosts` at `now`, or `None` if nothing
    /// fits. Panics if `now` differs from the first placement's instant.
    pub(crate) fn select_host(
        &mut self,
        now: SimTime,
        hosts: &[Host],
        vm: &VmSpec,
    ) -> Option<HostId> {
        let first = *self.placed_at.get_or_insert(now);
        assert!(
            first == now,
            "VM placed at {now:?} after placements at {first:?}: first-fit's cursor needs every placement of a datacenter at one instant"
        );
        while hosts.get(self.full).is_some_and(|h| !h.has_free_pe()) {
            self.full += 1;
            #[cfg(test)]
            {
                self.checks += 1;
            }
        }
        let found = hosts[self.full..]
            .iter()
            .position(|h| h.is_suitable_for(vm));
        #[cfg(test)]
        {
            self.checks += found.map_or(hosts.len() - self.full, |i| i + 1);
        }
        found.map(|i| hosts[self.full + i].id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostSpec;
    use crate::ids::VmId;
    use proptest::prelude::*;

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

    /// The oracle: the first suitable host in id order, with no state.
    fn stateless_scan(hosts: &[Host], vm: &VmSpec) -> Option<usize> {
        hosts.iter().position(|h| h.is_suitable_for(vm))
    }

    /// Places `vms` in order through one `FirstFit`, checking every pick
    /// against the oracle; returns the policy for its counters.
    fn place_all(hosts: &mut [Host], vms: &[VmSpec]) -> FirstFit {
        let mut policy = FirstFit::default();
        for (i, vm) in vms.iter().enumerate() {
            let expected = stateless_scan(hosts, vm);
            let picked = policy.select_host(SimTime::ZERO, hosts, vm);
            assert_eq!(picked.map(|h| h.index()), expected, "pick {i}");
            if let Some(h) = picked {
                assert!(hosts[h.index()].allocate_vm(VmId(i as u32), vm));
            }
        }
        policy
    }

    #[test]
    fn first_fit_prefers_low_ids() {
        let hs = hosts(3);
        let mut p = FirstFit::default();
        assert_eq!(
            p.select_host(SimTime::ZERO, &hs, &small_vm()),
            Some(HostId(0))
        );
    }

    #[test]
    fn first_fit_skips_full_hosts() {
        let mut hs = hosts(3);
        // Fill host 0 completely.
        let big = VmSpec::new(1_000.0, 10_000.0, 1_024.0, 1_000.0, 2);
        assert!(hs[0].allocate_vm(VmId(99), &big));
        let mut p = FirstFit::default();
        assert_eq!(
            p.select_host(SimTime::ZERO, &hs, &small_vm()),
            Some(HostId(1))
        );
    }

    #[test]
    fn first_fit_returns_none_when_nothing_fits() {
        let hs = hosts(2);
        let huge = VmSpec::new(1_000.0, 99_999.0, 9_999.0, 9_999.0, 4);
        assert_eq!(
            FirstFit::default().select_host(SimTime::ZERO, &hs, &huge),
            None
        );
    }

    #[test]
    fn failed_hosts_are_skipped_like_full_ones() {
        let mut hs = hosts(3);
        hs[0].fail();
        let vms = vec![small_vm(); 5];
        place_all(&mut hs, &vms);
        assert_eq!(hs[0].vm_count(), 0);
        assert_eq!(hs[1].vm_count(), 2);
    }

    #[test]
    #[should_panic(expected = "one instant")]
    fn a_placement_at_a_later_instant_panics() {
        let hs = hosts(2);
        let mut p = FirstFit::default();
        p.select_host(SimTime::new(5.0), &hs, &small_vm());
        p.select_host(SimTime::new(6.0), &hs, &small_vm());
    }

    /// A random fleet and VM stream: hosts of mixed sizes, some of which
    /// run out of RAM while PEs are still free, and VMs of 1–3 PEs with a
    /// distinct MIPS each (so no two VMs share a spec).
    fn fleet_and_vms() -> impl Strategy<Value = (Vec<Host>, Vec<VmSpec>)> {
        let host = (1u32..=6, 1_500.0f64..4_000.0, 256.0f64..4_096.0)
            .prop_map(|(pes, mips, ram)| HostSpec::new(pes, mips, ram, 4_000.0, 40_000.0));
        let vm = (1u32..=3, 128.0f64..1_024.0, 100.0f64..1_000.0);
        (
            prop::collection::vec(host, 1..40),
            prop::collection::vec(vm, 1..160),
        )
            .prop_map(|(host_specs, vm_draws)| {
                let hosts = host_specs
                    .into_iter()
                    .enumerate()
                    .map(|(i, s)| Host::new(HostId::from_index(i), s))
                    .collect();
                let vms = vm_draws
                    .into_iter()
                    .enumerate()
                    .map(|(i, (pes, ram, bw))| {
                        let mips = 500.0 + 3_000.0 * i as f64 / 160.0;
                        VmSpec::new(mips, 1_000.0, ram, bw, pes)
                    })
                    .collect();
                (hosts, vms)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn first_fit_matches_a_stateless_scan(case in fleet_and_vms()) {
            let (mut hosts, vms) = case;
            place_all(&mut hosts, &vms);
        }
    }

    /// The Tables V–VII fleet shape: 5 000 VMs of distinct MIPS, four per
    /// host, on hosts sized for the largest VM. A rescan from host 0 per
    /// VM would read about hosts × VMs / 2 = 3.1 million hosts.
    #[test]
    fn heterogeneous_placement_does_linear_work() {
        let vm_count = 5_000usize;
        let vms: Vec<VmSpec> = (0..vm_count)
            .map(|i| {
                let mips = 500.0 + 3_500.0 * ((i * 7_919) % vm_count) as f64 / vm_count as f64;
                VmSpec::new(mips, 5_000.0, 512.0, 500.0, 1)
            })
            .collect();
        let envelope = VmSpec::new(4_000.0, 5_000.0, 512.0, 500.0, 1);
        let host_count = vm_count / 4;
        let mut hosts: Vec<Host> = (0..host_count)
            .map(|i| Host::new(HostId::from_index(i), HostSpec::roomy_for(&envelope, 4)))
            .collect();
        let policy = place_all(&mut hosts, &vms);
        assert!(hosts.iter().all(|h| h.vm_count() == 4));
        assert!(
            policy.checks <= 2 * (host_count + vm_count),
            "{} host checks for {host_count} hosts and {vm_count} VMs",
            policy.checks
        );
    }
}
