//! Physical hosts.
//!
//! A host owns a pool of PEs and RAM/bandwidth/storage provisioners, and
//! admits VMs when every resource dimension fits — CloudSim's
//! `Host.isSuitableForVm` + `vmCreate` contract.

use crate::ids::{HostId, VmId};
use crate::pe::Pe;
use crate::provisioner::Provisioner;
use crate::vm::VmSpec;

/// Static sizing of a host.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpec {
    /// Number of PEs.
    pub pes: u32,
    /// MIPS per PE.
    pub mips_per_pe: f64,
    /// RAM in MB.
    pub ram_mb: f64,
    /// Bandwidth in Mbps.
    pub bw_mbps: f64,
    /// Storage in MB.
    pub storage_mb: f64,
}

impl HostSpec {
    /// Creates a host spec, validating every field.
    pub fn new(pes: u32, mips_per_pe: f64, ram_mb: f64, bw_mbps: f64, storage_mb: f64) -> Self {
        assert!(pes > 0, "host needs at least one PE");
        assert!(
            mips_per_pe.is_finite() && mips_per_pe > 0.0,
            "host PE MIPS must be positive"
        );
        for (n, v) in [("ram", ram_mb), ("bw", bw_mbps), ("storage", storage_mb)] {
            assert!(
                v.is_finite() && v > 0.0,
                "host {n} must be positive, got {v}"
            );
        }
        HostSpec {
            pes,
            mips_per_pe,
            ram_mb,
            bw_mbps,
            storage_mb,
        }
    }

    /// A host comfortably larger than the paper's largest VM: useful when a
    /// scenario wants one-VM-per-host placement without capacity effects.
    pub fn roomy_for(vm: &VmSpec, vms_per_host: u32) -> Self {
        let n = f64::from(vms_per_host);
        HostSpec::new(
            vm.pes * vms_per_host,
            vm.mips,
            vm.ram_mb * n,
            vm.bw_mbps * n,
            vm.size_mb * n,
        )
    }
}

/// A physical machine hosting VMs.
#[derive(Debug, Clone)]
pub struct Host {
    /// Identity within the owning datacenter.
    pub id: HostId,
    pes: Vec<Pe>,
    ram: Provisioner,
    bw: Provisioner,
    storage: Provisioner,
    /// VMs currently placed here, with the number of PEs each holds.
    vms: Vec<(VmId, u32)>,
}

impl Host {
    /// Creates an empty host from a spec.
    pub fn new(id: HostId, spec: HostSpec) -> Self {
        let pes = (0..spec.pes).map(|_| Pe::new(spec.mips_per_pe)).collect();
        Host {
            id,
            ram: Provisioner::new("ram", spec.ram_mb),
            bw: Provisioner::new("bw", spec.bw_mbps),
            storage: Provisioner::new("storage", spec.storage_mb),
            pes,
            vms: Vec::new(),
        }
    }

    /// Number of free PEs.
    fn free_pes(&self) -> usize {
        self.pes.iter().filter(|p| p.is_free()).count()
    }

    /// True if some PE is free: a host with none fits no VM.
    pub(crate) fn has_free_pe(&self) -> bool {
        self.pes.iter().any(Pe::is_free)
    }

    /// Number of VMs currently placed here.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// True if `vm` fits in every resource dimension right now.
    pub fn is_suitable_for(&self, vm: &VmSpec) -> bool {
        self.free_pes() >= vm.pes as usize
            && self.pes.iter().any(|p| p.mips() >= vm.mips)
            && self.ram.available() + 1e-9 >= vm.ram_mb
            && self.bw.available() + 1e-9 >= vm.bw_mbps
            && self.storage.available() + 1e-9 >= vm.size_mb
    }

    /// Attempts to place `vm_id` with requirements `vm`. All-or-nothing.
    pub fn allocate_vm(&mut self, vm_id: VmId, vm: &VmSpec) -> bool {
        if !self.is_suitable_for(vm) {
            return false;
        }
        if !self.ram.allocate(vm_id, vm.ram_mb) {
            return false;
        }
        if !self.bw.allocate(vm_id, vm.bw_mbps) {
            self.ram.release(vm_id);
            return false;
        }
        if !self.storage.allocate(vm_id, vm.size_mb) {
            self.ram.release(vm_id);
            self.bw.release(vm_id);
            return false;
        }
        let mut granted = 0u32;
        for pe in self.pes.iter_mut() {
            if granted == vm.pes {
                break;
            }
            if pe.is_free() && pe.allocate() {
                granted += 1;
            }
        }
        debug_assert_eq!(granted, vm.pes, "is_suitable_for guaranteed free PEs");
        self.vms.push((vm_id, granted));
        true
    }

    /// Takes the host offline: all PEs fail, all VM placements are wiped,
    /// and the resident VM ids are returned so the caller can destroy
    /// them. The host refuses new VMs until repaired.
    pub fn fail(&mut self) -> Vec<VmId> {
        for pe in &mut self.pes {
            pe.fail();
        }
        let victims: Vec<VmId> = self.vms.drain(..).map(|(v, _)| v).collect();
        for vm in &victims {
            self.ram.release(*vm);
            self.bw.release(*vm);
            self.storage.release(*vm);
        }
        victims
    }

    /// True when every PE has failed (the host is down).
    pub fn is_failed(&self) -> bool {
        self.pes
            .iter()
            .all(|p| p.status() == crate::pe::PeStatus::Failed)
    }

    /// Brings a failed host back online: every failed PE returns to the
    /// free pool. [`Host::fail`] already released all provisions, so the
    /// host comes back empty and immediately re-admittable.
    pub fn repair(&mut self) {
        for pe in &mut self.pes {
            pe.repair();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host::new(
            HostId(0),
            HostSpec::new(4, 1_000.0, 2_048.0, 2_000.0, 20_000.0),
        )
    }

    #[test]
    fn admits_fitting_vm() {
        let mut h = host();
        let vm = VmSpec::new(1_000.0, 5_000.0, 512.0, 500.0, 1);
        assert!(h.is_suitable_for(&vm));
        assert!(h.allocate_vm(VmId(0), &vm));
        assert_eq!(h.vm_count(), 1);
        assert_eq!(h.free_pes(), 3);
        assert_eq!(h.ram.available(), 1_536.0);
    }

    #[test]
    fn rejects_when_any_dimension_short() {
        let mut h = host();
        // Too much RAM.
        assert!(!h.is_suitable_for(&VmSpec::new(100.0, 1.0, 4_096.0, 1.0, 1)));
        // Too many PEs.
        assert!(!h.is_suitable_for(&VmSpec::new(100.0, 1.0, 1.0, 1.0, 8)));
        // PE MIPS too low for the VM's per-PE demand.
        assert!(!h.is_suitable_for(&VmSpec::new(2_000.0, 1.0, 1.0, 1.0, 1)));
        // Storage exhaustion after placements.
        let vm = VmSpec::new(500.0, 10_000.0, 100.0, 100.0, 1);
        assert!(h.allocate_vm(VmId(0), &vm));
        assert!(h.allocate_vm(VmId(1), &vm));
        assert!(!h.allocate_vm(VmId(2), &vm), "storage is now full");
    }

    #[test]
    fn failed_host_evicts_and_refuses() {
        let mut h = host();
        let vm = VmSpec::new(1_000.0, 100.0, 100.0, 100.0, 1);
        assert!(h.allocate_vm(VmId(0), &vm));
        assert!(h.allocate_vm(VmId(1), &vm));
        let victims = h.fail();
        assert_eq!(victims, vec![VmId(0), VmId(1)]);
        assert!(h.is_failed());
        assert_eq!(h.vm_count(), 0);
        assert!(!h.is_suitable_for(&vm), "a failed host admits nothing");
        assert!(!h.allocate_vm(VmId(2), &vm));
    }

    #[test]
    fn repaired_host_readmits_vms() {
        let mut h = host();
        let vm = VmSpec::new(1_000.0, 100.0, 100.0, 100.0, 1);
        assert!(h.allocate_vm(VmId(0), &vm));
        h.fail();
        assert!(h.is_failed());
        h.repair();
        assert!(!h.is_failed());
        assert_eq!(h.free_pes(), 4, "repair frees every PE");
        assert_eq!(h.ram.available(), 2_048.0, "fail released all provisions");
        assert!(h.allocate_vm(VmId(1), &vm), "repaired host admits again");
    }

    #[test]
    fn roomy_for_fits_exactly_n_vms() {
        let vm = VmSpec::homogeneous_default();
        let spec = HostSpec::roomy_for(&vm, 3);
        let mut h = Host::new(HostId(1), spec);
        for i in 0..3 {
            assert!(h.allocate_vm(VmId(i), &vm), "vm {i} must fit");
        }
        assert!(!h.allocate_vm(VmId(3), &vm));
        assert_eq!(h.vm_count(), 3);
    }
}
