//! Typed identifiers for simulation objects.
//!
//! All simulation objects live in dense arenas owned by the [`crate::kernel::World`]
//! or by their parent entity, so identifiers are plain `u32` indices wrapped
//! in newtypes to keep host/VM/cloudlet/datacenter spaces from mixing.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $tag:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index value.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an id from a dense arena index.
            ///
            /// Panics if `idx` does not fit in `u32` — arenas larger than
            /// four billion entries are outside the simulator's design
            /// envelope.
            #[inline]
            pub fn from_index(idx: usize) -> Self {
                $name(u32::try_from(idx).expect("arena index exceeds u32"))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a virtual machine within a simulation's VM arena.
    VmId,
    "vm"
);
id_type!(
    /// Identifies a cloudlet (task) within a simulation's cloudlet arena.
    CloudletId,
    "cl"
);
id_type!(
    /// Identifies a physical host within its datacenter.
    HostId,
    "host"
);
id_type!(
    /// Identifies a datacenter within a simulation.
    DatacenterId,
    "dc"
);
id_type!(
    /// Identifies a kernel entity (broker or datacenter actor).
    EntityId,
    "ent"
);
id_type!(
    /// Identifies a processing element (core) within a host.
    PeId,
    "pe"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let id = VmId::from_index(17);
        assert_eq!(id.index(), 17);
        assert_eq!(id, VmId(17));
    }

    #[test]
    fn formatting() {
        assert_eq!(format!("{}", CloudletId(3)), "cl3");
        assert_eq!(format!("{:?}", DatacenterId(1)), "dc1");
        assert_eq!(format!("{}", HostId(9)), "host9");
    }

    #[test]
    fn distinct_types_do_not_unify() {
        // Compile-time property; runtime check that values are independent.
        let v = VmId(1);
        let c = CloudletId(1);
        assert_eq!(v.index(), c.index());
    }

    #[test]
    fn ordering_follows_index() {
        assert!(VmId(2) < VmId(10));
        assert!(EntityId(0) < EntityId(1));
    }
}
