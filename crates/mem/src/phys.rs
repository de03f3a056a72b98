//! Sparse host physical memory and frame allocation.
//!
//! Models the 16 GiB of RAM in the paper's test machine as a sparse map of
//! 4 KiB frames allocated on first touch. Two bump allocators partition the
//! address space the way the Rootkernel does (§4.1): a small reserved region
//! (100 MiB) that holds the Rootkernel's own structures — EPT pages above
//! all — and the rest, which the base EPT identity-maps to the Subkernel
//! with 1 GiB pages.

use std::{
    collections::HashMap,
    hash::{BuildHasherDefault, Hasher},
};

use crate::addr::{Hpa, PAGE_SIZE};

/// Size of the region reserved for the Rootkernel (the paper reserves
/// 100 MiB; we round to a 2 MiB boundary).
pub const RESERVED_BYTES: u64 = 100 * 1024 * 1024;

/// Total modeled RAM (16 GiB, matching the evaluation machine).
pub const TOTAL_BYTES: u64 = 16 * 1024 * 1024 * 1024;

/// Hashes a frame number with one multiply by an odd constant.
///
/// Frame numbers are dense integers the allocators hand out, not outside
/// input, so the map needs no collision resistance — only the numbers
/// spread over its buckets (the low bits of the product) and control
/// bytes (the high bits). Nothing iterates the map, so no output depends
/// on its order.
#[derive(Default)]
struct FrameHasher(u64);

impl Hasher for FrameHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("frame numbers are hashed as u64");
    }

    fn write_u64(&mut self, frame: u64) {
        self.0 = frame.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sparse host physical memory.
#[derive(Debug, Default)]
pub struct HostMem {
    frames: HashMap<u64, Box<[u8; PAGE_SIZE as usize]>, BuildHasherDefault<FrameHasher>>,
    /// Next free frame in the reserved (Rootkernel) region.
    next_reserved: u64,
    /// Next free frame in the general region.
    next_general: u64,
}

impl HostMem {
    /// Creates empty memory with both allocators at their region starts.
    ///
    /// Frame 0 of the general region is intentionally skipped so that a
    /// zero page-table root can be used as a "none" sentinel.
    pub fn new() -> Self {
        HostMem {
            frames: HashMap::default(),
            next_reserved: PAGE_SIZE,
            next_general: RESERVED_BYTES,
        }
    }

    /// Allocates a zeroed frame in the Rootkernel-reserved region.
    ///
    /// # Panics
    ///
    /// Panics if the reserved region (100 MiB) is exhausted.
    pub fn alloc_reserved_frame(&mut self) -> Hpa {
        let hpa = self.next_reserved;
        assert!(
            hpa + PAGE_SIZE <= RESERVED_BYTES,
            "Rootkernel reserved region exhausted"
        );
        self.next_reserved += PAGE_SIZE;
        self.frames
            .insert(hpa / PAGE_SIZE, Box::new([0; PAGE_SIZE as usize]));
        Hpa(hpa)
    }

    /// Allocates a zeroed frame in the general (Subkernel-visible) region.
    ///
    /// Under the base EPT this region is identity-mapped, so the returned
    /// HPA doubles as the frame's GPA.
    ///
    /// # Panics
    ///
    /// Panics if the 16 GiB of modeled RAM are exhausted.
    pub fn alloc_frame(&mut self) -> Hpa {
        let hpa = self.next_general;
        assert!(hpa + PAGE_SIZE <= TOTAL_BYTES, "physical memory exhausted");
        self.next_general += PAGE_SIZE;
        self.frames
            .insert(hpa / PAGE_SIZE, Box::new([0; PAGE_SIZE as usize]));
        Hpa(hpa)
    }

    /// True if `hpa` lies in the Rootkernel-reserved region.
    pub fn is_reserved(hpa: Hpa) -> bool {
        hpa.0 < RESERVED_BYTES
    }

    fn frame(&self, hpa: Hpa) -> &[u8; PAGE_SIZE as usize] {
        self.frames
            .get(&hpa.page_number())
            .unwrap_or_else(|| panic!("access to unallocated frame {hpa:?}"))
    }

    fn frame_mut(&mut self, hpa: Hpa) -> &mut [u8; PAGE_SIZE as usize] {
        self.frames
            .entry(hpa.page_number())
            .or_insert_with(|| Box::new([0; PAGE_SIZE as usize]))
    }

    /// Reads a naturally aligned little-endian `u64`.
    ///
    /// # Panics
    ///
    /// Panics on a misaligned address or an unallocated frame.
    pub fn read_u64(&self, hpa: Hpa) -> u64 {
        assert_eq!(hpa.0 % 8, 0, "misaligned u64 read at {hpa:?}");
        let off = hpa.page_offset() as usize;
        let frame = self.frame(hpa);
        u64::from_le_bytes(frame[off..off + 8].try_into().unwrap())
    }

    /// Writes a naturally aligned little-endian `u64`.
    ///
    /// # Panics
    ///
    /// Panics on a misaligned address.
    pub fn write_u64(&mut self, hpa: Hpa, value: u64) {
        assert_eq!(hpa.0 % 8, 0, "misaligned u64 write at {hpa:?}");
        let off = hpa.page_offset() as usize;
        self.frame_mut(hpa)[off..off + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Copies bytes out of physical memory. The range may span frames.
    pub fn read_slice(&self, hpa: Hpa, buf: &mut [u8]) {
        let mut addr = hpa;
        let mut done = 0;
        while done < buf.len() {
            let off = addr.page_offset() as usize;
            let n = (PAGE_SIZE as usize - off).min(buf.len() - done);
            buf[done..done + n].copy_from_slice(&self.frame(addr)[off..off + n]);
            addr = addr.add(n as u64);
            done += n;
        }
    }

    /// Copies bytes into physical memory. The range may span frames.
    pub fn write_slice(&mut self, hpa: Hpa, data: &[u8]) {
        let mut addr = hpa;
        let mut done = 0;
        while done < data.len() {
            let off = addr.page_offset() as usize;
            let n = (PAGE_SIZE as usize - off).min(data.len() - done);
            self.frame_mut(addr)[off..off + n].copy_from_slice(&data[done..done + n]);
            addr = addr.add(n as u64);
            done += n;
        }
    }

    /// Number of frames currently materialized.
    pub fn resident_frames(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocators_stay_in_their_regions() {
        let mut m = HostMem::new();
        let r = m.alloc_reserved_frame();
        let g = m.alloc_frame();
        assert!(HostMem::is_reserved(r));
        assert!(!HostMem::is_reserved(g));
        assert_eq!(g.0, RESERVED_BYTES);
    }

    #[test]
    fn u64_roundtrip() {
        let mut m = HostMem::new();
        let f = m.alloc_frame();
        m.write_u64(f.add(16), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(f.add(16)), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(f), 0);
    }

    #[test]
    fn slice_roundtrip_across_frames() {
        let mut m = HostMem::new();
        let a = m.alloc_frame();
        let _b = m.alloc_frame(); // Contiguous with `a`.
        let data: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        m.write_slice(a.add(100), &data);
        let mut out = vec![0u8; data.len()];
        m.read_slice(a.add(100), &mut out);
        assert_eq!(out, data);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_u64_panics() {
        let mut m = HostMem::new();
        let f = m.alloc_frame();
        m.write_u64(f.add(3), 1);
    }

    #[test]
    fn frames_start_zeroed() {
        let mut m = HostMem::new();
        let f = m.alloc_frame();
        let mut buf = [1u8; 64];
        m.read_slice(f, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }
}
