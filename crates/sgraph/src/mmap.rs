//! Read-only memory mapping with a portable heap fallback.
//!
//! The out-of-core layers ([`crate::mmap_csr`] and scholar-corpus's
//! colstore) want file-backed byte ranges they can view as typed slices
//! without copying. On Linux this module maps files with `mmap(2)`
//! declared directly against libc (the same no-new-deps syscall idiom as
//! scholar-serve's epoll backend); under Miri or on other platforms it
//! degrades to reading the file into an 8-byte-aligned heap buffer, so
//! every consumer keeps working — just without the paging benefit.
//!
//! All typed views require 8-byte section alignment, which the on-disk
//! formats guarantee by padding; the accessors assert it.

use std::fs::File;
use std::io;
use std::path::Path;

#[cfg(all(target_os = "linux", not(miri)))]
mod sys {
    //! Raw `mmap`/`munmap` declarations. Constants mirror the Linux ABI
    //! (stable since forever on every architecture we build for).

    use std::ffi::{c_int, c_long, c_void};

    /// Pages are readable only.
    pub const PROT_READ: c_int = 1;
    /// Private copy-on-write mapping (we never write, so: just private).
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }
}

/// A read-only view of an entire file.
///
/// On Linux the bytes are served straight from the page cache via
/// `mmap`; elsewhere (and under Miri) they live in an aligned heap
/// buffer. Either way [`Mmap::bytes`] and the typed-slice accessors
/// behave identically.
pub struct Mmap {
    backing: Backing,
    len: usize,
}

enum Backing {
    /// Zero-length files map to nothing; serve an empty slice.
    Empty,
    #[cfg(all(target_os = "linux", not(miri)))]
    Mapped(*mut std::ffi::c_void),
    #[allow(dead_code)] // constructed only on non-Linux / Miri builds
    Heap(Vec<u64>),
}

// SAFETY: the mapping is PROT_READ and never mutated after construction,
// so shared references to its bytes are safe to send and share across
// threads; the heap variant is a plain Vec.
unsafe impl Send for Mmap {}
// SAFETY: see Send — the underlying memory is immutable for the life of
// the value.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Map `path` read-only. Returns the usual `io::Error` on open or
    /// map failure.
    pub fn map_file(path: &Path) -> io::Result<Mmap> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        if len == 0 {
            return Ok(Mmap { backing: Backing::Empty, len: 0 });
        }
        #[cfg(all(target_os = "linux", not(miri)))]
        {
            use std::os::fd::AsRawFd;
            let ptr =
                // SAFETY: fd is a valid open file descriptor for the whole
                // call; len > 0; we request a fresh PROT_READ private mapping
                // at a kernel-chosen address and check for MAP_FAILED.
                unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Mmap { backing: Backing::Mapped(ptr), len })
        }
        #[cfg(not(all(target_os = "linux", not(miri))))]
        {
            use std::io::Read;
            // Heap fallback: read into a Vec<u64> so the base address is
            // 8-byte aligned for the typed accessors, then view as bytes.
            let mut file = file;
            let mut buf = vec![0u64; len.div_ceil(8)];
            let dst =
                // SAFETY: the Vec owns `len.div_ceil(8) * 8 >= len` writable
                // bytes; u64 has no invalid bit patterns, so filling them as
                // raw bytes is fine.
                unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, len) };
            file.read_exact(dst)?;
            Ok(Mmap { backing: Backing::Heap(buf), len })
        }
    }

    /// The file's bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            Backing::Empty => &[],
            #[cfg(all(target_os = "linux", not(miri)))]
            Backing::Mapped(ptr) => {
                // SAFETY: the mapping is live (unmapped only in Drop), spans
                // exactly `len` readable bytes, and is never written.
                unsafe { std::slice::from_raw_parts(*ptr as *const u8, self.len) }
            }
            Backing::Heap(buf) => {
                // SAFETY: buf owns at least `len` initialized bytes
                // (zero-filled then overwritten by read_exact).
                unsafe { std::slice::from_raw_parts(buf.as_ptr() as *const u8, self.len) }
            }
        }
    }

    /// Total length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the file was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// View `bytes[off..off + count * 2]` as `&[u16]` (little-endian
    /// native, as all on-disk formats here are). `off` must be 2-aligned.
    pub(crate) fn as_u16s(&self, off: usize, count: usize) -> &[u16] {
        slice_at::<u16>(self.bytes(), off, count)
    }

    /// View a byte range as `&[u32]`; `off` must be 4-aligned.
    pub fn as_u32s(&self, off: usize, count: usize) -> &[u32] {
        slice_at::<u32>(self.bytes(), off, count)
    }

    /// View a byte range as `&[i32]`; see [`Mmap::as_u32s`].
    pub fn as_i32s(&self, off: usize, count: usize) -> &[i32] {
        slice_at::<i32>(self.bytes(), off, count)
    }

    /// View a byte range as `&[u64]`; `off` must be 8-aligned.
    pub fn as_u64s(&self, off: usize, count: usize) -> &[u64] {
        slice_at::<u64>(self.bytes(), off, count)
    }

    /// View a byte range as `&[f64]`; `off` must be 8-aligned.
    pub fn as_f64s(&self, off: usize, count: usize) -> &[f64] {
        slice_at::<f64>(self.bytes(), off, count)
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", not(miri)))]
        if let Backing::Mapped(ptr) = self.backing {
            // SAFETY: ptr/len came from a successful mmap and nothing
            // else unmaps them; after this the struct is gone, so no
            // slice from bytes() can outlive the mapping (they borrow
            // self).
            unsafe {
                sys::munmap(ptr, self.len);
            }
        }
    }
}

/// View `bytes[off..off + count * size_of::<T>()]` as a typed slice.
///
/// `T` is one of the plain-old-data numeric types re-exported above;
/// bounds and alignment are asserted, so corrupt offsets fail loudly
/// instead of reading garbage.
fn slice_at<T: Copy>(bytes: &[u8], off: usize, count: usize) -> &[T] {
    let size = std::mem::size_of::<T>();
    let byte_len = count.checked_mul(size).expect("typed slice length overflow");
    let end = off.checked_add(byte_len).expect("typed slice range overflow");
    assert!(end <= bytes.len(), "typed slice out of bounds: {end} > {}", bytes.len());
    let ptr = bytes[off..].as_ptr();
    assert_eq!(ptr as usize % std::mem::align_of::<T>(), 0, "misaligned typed slice at {off}");
    // SAFETY: range checked in bounds above, pointer alignment asserted,
    // T is a POD numeric type with no invalid bit patterns, and the
    // returned slice borrows `bytes` so it cannot outlive the backing.
    unsafe { std::slice::from_raw_parts(ptr as *const T, count) }
}

#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sgraph-mmap-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn roundtrip_typed_views() {
        let path = tmp("roundtrip");
        let mut f = File::create(&path).unwrap();
        for v in [1u64, 2, 3] {
            f.write_all(&v.to_le_bytes()).unwrap();
        }
        f.write_all(&7u32.to_le_bytes()).unwrap();
        f.write_all(&8u32.to_le_bytes()).unwrap();
        f.write_all(&1.5f64.to_le_bytes()).unwrap();
        drop(f);

        let m = Mmap::map_file(&path).unwrap();
        assert_eq!(m.len(), 40);
        assert_eq!(m.as_u64s(0, 3), &[1, 2, 3]);
        assert_eq!(m.as_u32s(24, 2), &[7, 8]);
        assert_eq!(m.as_f64s(32, 1), &[1.5]);
        drop(m);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_empty() {
        let path = tmp("empty");
        File::create(&path).unwrap();
        let m = Mmap::map_file(&path).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.bytes(), &[] as &[u8]);
        drop(m);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_view_panics() {
        let path = tmp("oob");
        std::fs::write(&path, [0u8; 16]).unwrap();
        let m = Mmap::map_file(&path).unwrap();
        let _ = m.as_u64s(8, 2);
    }
}
