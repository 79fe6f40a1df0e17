//! The shared memory address space.
//!
//! ActivePy "adopts a shared memory address space between the host program
//! and the CSD program" (§III-C0a): the CSD exposes device DRAM through PCIe
//! BARs (or RDMA for NVMe-oF attachments), the kernel maps those windows
//! into the program's virtual address space, and the allocation policy
//! "prefers to place data near their consumers".
//!
//! [`SharedAddressSpace`] is a real allocator over two regions (host DRAM
//! and device DRAM): allocations receive stable [`ObjectId`]s, record their
//! placement and size, and can be moved between regions (the mechanism task
//! migration uses to account for live state).

use crate::engine::EngineKind;
use crate::units::Bytes;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// Where an object physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Region {
    /// Host main memory.
    HostDram,
    /// CSD device memory, BAR-mapped into the host address space.
    DeviceDram,
}

impl Region {
    /// The region local to a given compute engine.
    #[must_use]
    pub fn local_to(engine: EngineKind) -> Region {
        match engine {
            EngineKind::Host => Region::HostDram,
            EngineKind::Cse => Region::DeviceDram,
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Region::HostDram => write!(f, "host-dram"),
            Region::DeviceDram => write!(f, "device-dram"),
        }
    }
}

/// Stable handle to an allocated object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct ObjectId(u64);

impl ObjectId {
    /// The raw identifier.
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// Metadata for one allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Allocation {
    /// Where the object lives.
    pub region: Region,
    /// Object size.
    pub size: Bytes,
}

/// Errors from address-space operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryError {
    /// The target region does not have `requested` bytes free.
    OutOfMemory {
        /// Region that was full.
        region: Region,
        /// Size of the failed request.
        requested: Bytes,
        /// Bytes still free in that region.
        free: Bytes,
    },
    /// The object id is not live.
    UnknownObject(ObjectId),
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::OutOfMemory {
                region,
                requested,
                free,
            } => {
                write!(
                    f,
                    "{region} out of memory: requested {requested}, free {free}"
                )
            }
            MemoryError::UnknownObject(id) => write!(f, "unknown object {id}"),
        }
    }
}

impl std::error::Error for MemoryError {}

/// The unified host + device address space.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SharedAddressSpace {
    host_capacity: Bytes,
    device_capacity: Bytes,
    host_used: Bytes,
    device_used: Bytes,
    next_id: u64,
    objects: BTreeMap<ObjectId, Allocation>,
}

impl SharedAddressSpace {
    /// Creates an address space with the given region capacities.
    #[must_use]
    pub fn new(host_capacity: Bytes, device_capacity: Bytes) -> Self {
        SharedAddressSpace {
            host_capacity,
            device_capacity,
            host_used: Bytes::ZERO,
            device_used: Bytes::ZERO,
            next_id: 0,
            objects: BTreeMap::new(),
        }
    }

    /// Bytes free in `region`.
    #[must_use]
    pub fn free(&self, region: Region) -> Bytes {
        match region {
            Region::HostDram => self.host_capacity.saturating_sub(self.host_used),
            Region::DeviceDram => self.device_capacity.saturating_sub(self.device_used),
        }
    }

    /// Bytes in use in `region`.
    #[must_use]
    pub fn used(&self, region: Region) -> Bytes {
        match region {
            Region::HostDram => self.host_used,
            Region::DeviceDram => self.device_used,
        }
    }

    /// Allocates `size` bytes in `region`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfMemory`] when the region is full.
    pub fn alloc(&mut self, region: Region, size: Bytes) -> Result<ObjectId, MemoryError> {
        let free = self.free(region);
        if size > free {
            return Err(MemoryError::OutOfMemory {
                region,
                requested: size,
                free,
            });
        }
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        self.charge(region, size);
        self.objects.insert(id, Allocation { region, size });
        Ok(id)
    }

    /// Allocates `size` bytes near its consumer — ActivePy's placement
    /// policy: the object lands in the region local to the engine that will
    /// read it next.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfMemory`] when the preferred region is
    /// full (no silent fallback: the caller decides whether to spill).
    pub fn alloc_near(
        &mut self,
        consumer: EngineKind,
        size: Bytes,
    ) -> Result<ObjectId, MemoryError> {
        self.alloc(Region::local_to(consumer), size)
    }

    /// Looks up an allocation.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::UnknownObject`] when `id` is not live.
    pub fn get(&self, id: ObjectId) -> Result<Allocation, MemoryError> {
        self.objects
            .get(&id)
            .copied()
            .ok_or(MemoryError::UnknownObject(id))
    }

    /// Moves a live object to `target`, returning the number of bytes that
    /// must cross the interconnect (zero if it was already there). The
    /// caller charges that traffic to a link.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::UnknownObject`] for a dead id, or
    /// [`MemoryError::OutOfMemory`] if the target region cannot hold it.
    pub fn migrate(&mut self, id: ObjectId, target: Region) -> Result<Bytes, MemoryError> {
        let alloc = self.get(id)?;
        if alloc.region == target {
            return Ok(Bytes::ZERO);
        }
        let free = self.free(target);
        if alloc.size > free {
            return Err(MemoryError::OutOfMemory {
                region: target,
                requested: alloc.size,
                free,
            });
        }
        self.discharge(alloc.region, alloc.size);
        self.charge(target, alloc.size);
        self.objects.insert(
            id,
            Allocation {
                region: target,
                size: alloc.size,
            },
        );
        Ok(alloc.size)
    }

    /// Frees a live object.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::UnknownObject`] for a dead id.
    pub fn dealloc(&mut self, id: ObjectId) -> Result<(), MemoryError> {
        let alloc = self
            .objects
            .remove(&id)
            .ok_or(MemoryError::UnknownObject(id))?;
        self.discharge(alloc.region, alloc.size);
        Ok(())
    }

    /// Iterates over live objects.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, Allocation)> + '_ {
        self.objects.iter().map(|(id, a)| (*id, *a))
    }

    fn charge(&mut self, region: Region, size: Bytes) {
        match region {
            Region::HostDram => self.host_used += size,
            Region::DeviceDram => self.device_used += size,
        }
    }

    fn discharge(&mut self, region: Region, size: Bytes) {
        match region {
            Region::HostDram => {
                self.host_used = self.host_used.saturating_sub(size);
            }
            Region::DeviceDram => {
                self.device_used = self.device_used.saturating_sub(size);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> SharedAddressSpace {
        SharedAddressSpace::new(Bytes::from_gib(32), Bytes::from_gib(8))
    }

    #[test]
    fn alloc_and_lookup() {
        let mut m = space();
        let id = m
            .alloc(Region::HostDram, Bytes::from_mib(100))
            .expect("alloc");
        let a = m.get(id).expect("lookup");
        assert_eq!(a.region, Region::HostDram);
        assert_eq!(a.size, Bytes::from_mib(100));
        assert_eq!(m.used(Region::HostDram), Bytes::from_mib(100));
    }

    #[test]
    fn alloc_near_places_in_consumer_region() {
        let mut m = space();
        let h = m
            .alloc_near(EngineKind::Host, Bytes::from_mib(1))
            .expect("host alloc");
        let d = m
            .alloc_near(EngineKind::Cse, Bytes::from_mib(1))
            .expect("cse alloc");
        assert_eq!(m.get(h).expect("h").region, Region::HostDram);
        assert_eq!(m.get(d).expect("d").region, Region::DeviceDram);
    }

    #[test]
    fn out_of_memory_is_reported_with_free_bytes() {
        let mut m = SharedAddressSpace::new(Bytes::from_mib(1), Bytes::from_mib(1));
        let err = m.alloc(Region::HostDram, Bytes::from_mib(2)).unwrap_err();
        match err {
            MemoryError::OutOfMemory {
                region,
                requested,
                free,
            } => {
                assert_eq!(region, Region::HostDram);
                assert_eq!(requested, Bytes::from_mib(2));
                assert_eq!(free, Bytes::from_mib(1));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn migrate_moves_accounting_and_reports_traffic() {
        let mut m = space();
        let id = m
            .alloc(Region::DeviceDram, Bytes::from_mib(64))
            .expect("alloc");
        let moved = m.migrate(id, Region::HostDram).expect("migrate");
        assert_eq!(moved, Bytes::from_mib(64));
        assert_eq!(m.used(Region::DeviceDram), Bytes::ZERO);
        assert_eq!(m.used(Region::HostDram), Bytes::from_mib(64));
        // Second migration to the same place is free.
        assert_eq!(m.migrate(id, Region::HostDram).expect("noop"), Bytes::ZERO);
    }

    #[test]
    fn dealloc_releases_space() {
        let mut m = space();
        let id = m
            .alloc(Region::HostDram, Bytes::from_mib(10))
            .expect("alloc");
        m.dealloc(id).expect("dealloc");
        assert_eq!(m.used(Region::HostDram), Bytes::ZERO);
        assert!(matches!(m.get(id), Err(MemoryError::UnknownObject(_))));
        assert!(matches!(m.dealloc(id), Err(MemoryError::UnknownObject(_))));
    }
}
