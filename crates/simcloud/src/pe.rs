//! Processing elements (cores).
//!
//! A PE is a single core with a MIPS rating. Hosts aggregate PEs; VMs
//! request a number of PEs at a MIPS rating and the allocation policy maps
//! them onto free host PEs.

/// Availability state of a processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeStatus {
    /// Available for allocation.
    Free,
    /// Allocated to a VM.
    Busy,
    /// Taken offline (failure injection / maintenance).
    Failed,
}

/// A single processing element of a host.
#[derive(Debug, Clone)]
pub struct Pe {
    mips: f64,
    status: PeStatus,
}

impl Pe {
    /// Creates a free PE with the given MIPS rating.
    ///
    /// Panics if `mips` is not strictly positive and finite.
    pub fn new(mips: f64) -> Self {
        assert!(
            mips.is_finite() && mips > 0.0,
            "PE MIPS must be positive and finite, got {mips}"
        );
        Pe {
            mips,
            status: PeStatus::Free,
        }
    }

    /// The MIPS rating of this PE.
    #[inline]
    pub fn mips(&self) -> f64 {
        self.mips
    }

    /// Current availability.
    #[inline]
    pub fn status(&self) -> PeStatus {
        self.status
    }

    /// True if the PE can be allocated.
    #[inline]
    pub fn is_free(&self) -> bool {
        self.status == PeStatus::Free
    }

    /// Marks the PE busy. Returns false if it was not free.
    pub fn allocate(&mut self) -> bool {
        if self.status == PeStatus::Free {
            self.status = PeStatus::Busy;
            true
        } else {
            false
        }
    }

    /// Fails the PE (it can no longer be allocated until repaired).
    pub fn fail(&mut self) {
        self.status = PeStatus::Failed;
    }

    /// Repairs a failed PE.
    pub fn repair(&mut self) {
        if self.status == PeStatus::Failed {
            self.status = PeStatus::Free;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_exclusive() {
        let mut pe = Pe::new(1000.0);
        assert!(pe.is_free());
        assert!(pe.allocate());
        assert!(!pe.allocate(), "double allocation must fail");
        assert_eq!(pe.status(), PeStatus::Busy);
    }

    #[test]
    fn failure_and_repair() {
        let mut pe = Pe::new(500.0);
        pe.fail();
        assert!(!pe.allocate());
        assert_eq!(pe.status(), PeStatus::Failed);
        pe.repair();
        assert!(pe.allocate());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mips_rejected() {
        let _ = Pe::new(0.0);
    }
}
