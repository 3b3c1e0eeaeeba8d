//! Minimal local shim for the `memmap2` crate: **read-only** file mappings,
//! which is all this workspace uses (serving `.chl` index files without
//! copying them through the heap).
//!
//! On Unix the mapping is a real `mmap(2)` (`PROT_READ | MAP_PRIVATE`),
//! declared directly against the C library so the offline build needs no
//! `libc` crate. On every other platform [`Mmap::map`] transparently falls
//! back to reading the whole file into an 8-byte-aligned heap buffer — same
//! API, same alignment guarantee, no page-cache sharing. Pages are mapped
//! (or the buffer filled) for the length of the file at map time; like the
//! real crate, empty files map to an empty slice.
//!
//! Swapping in the real `memmap2` keeps every call site compiling: the one
//! constructor used here, `unsafe Mmap::map(&File)`, and the `Deref<Target =
//! [u8]>` view match its API.

// Every unsafe operation sits in its own `unsafe {}` block with a
// `// SAFETY:` argument, and every `unsafe fn` documents its `# Safety`
// contract.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]
// Serving hot path: no panics outside tests. Exemptions are reasoned
// `#[expect]`s (docs/ARCHITECTURE.md, "Safety & concurrency invariants").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

use std::fs::File;
use std::io;
use std::ops::Deref;

/// A read-only memory map of an entire file (or, off Unix, an owned aligned
/// copy of it).
///
/// The base address is page-aligned on Unix and 8-byte aligned in the
/// fallback, so 8-byte-aligned on-disk structures can be reinterpreted in
/// place on either backing.
#[derive(Debug)]
pub struct Mmap {
    inner: sys::Map,
}

impl Mmap {
    /// Maps `file` read-only for its current length.
    ///
    /// # Safety
    ///
    /// The caller must ensure the underlying file is not truncated or
    /// modified by this or another process while the map is alive: on Unix
    /// the mapping observes such changes (truncation can raise `SIGBUS` on
    /// access), which is the same contract the real `memmap2` documents.
    pub unsafe fn map(file: &File) -> io::Result<Mmap> {
        // SAFETY: the caller upholds the no-concurrent-modification
        // contract documented above, which is exactly what the backend
        // requires.
        unsafe { sys::Map::new(file) }.map(|inner| Mmap { inner })
    }

    /// Number of mapped bytes.
    pub fn len(&self) -> usize {
        self.inner.as_slice().len()
    }

    /// `true` when the mapped file was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.inner.as_slice()
    }
}

impl AsRef<[u8]> for Mmap {
    fn as_ref(&self) -> &[u8] {
        self.inner.as_slice()
    }
}

#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    #[derive(Debug)]
    pub struct Map {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is immutable for its lifetime (PROT_READ) and the
    // pointer is owned solely by this value, so moving the owner between
    // threads is sound.
    unsafe impl Send for Map {}
    // SAFETY: all access through a shared `Map` is read-only (PROT_READ
    // pages, `&[u8]` views only), so concurrent readers cannot race.
    unsafe impl Sync for Map {}

    impl Map {
        /// Maps `file` read-only.
        ///
        /// # Safety
        ///
        /// Same contract as [`crate::Mmap::map`]: the file must not be
        /// truncated or modified while the mapping is alive.
        pub unsafe fn new(file: &File) -> io::Result<Map> {
            let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidInput, "file too large to map")
            })?;
            if len == 0 {
                // mmap(2) rejects zero-length mappings; model an empty file
                // as an empty slice like the real crate does.
                return Ok(Map {
                    ptr: std::ptr::null_mut(),
                    len: 0,
                });
            }
            // SAFETY: plain FFI call with a live fd, a null address hint and
            // a length validated against the file's metadata; the kernel
            // checks all arguments and reports failure via MAP_FAILED.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as usize == usize::MAX {
                return Err(io::Error::last_os_error());
            }
            Ok(Map { ptr, len })
        }

        pub fn as_slice(&self) -> &[u8] {
            if self.len == 0 {
                &[]
            } else {
                // SAFETY: ptr..ptr+len is a live PROT_READ mapping owned by
                // self; the kernel guarantees page alignment and the bytes
                // stay mapped until Drop runs.
                unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
            }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            if self.len != 0 {
                // SAFETY: exactly the region returned by mmap in new().
                unsafe {
                    munmap(self.ptr, self.len);
                }
            }
        }
    }
}

#[cfg(not(unix))]
mod sys {
    use std::fs::File;
    use std::io::{self, Read};

    /// Buffered fallback: the whole file in an 8-byte-aligned heap buffer.
    #[derive(Debug)]
    pub struct Map {
        words: Vec<u64>,
        len: usize,
    }

    impl Map {
        /// Reads `file` into an aligned buffer.
        ///
        /// # Safety
        ///
        /// Trivially safe (the buffered fallback never aliases the file);
        /// `unsafe` only to mirror the Unix backend's signature.
        pub unsafe fn new(file: &File) -> io::Result<Map> {
            let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidInput, "file too large to map")
            })?;
            let mut words = vec![0u64; len.div_ceil(8)];
            // SAFETY: the u64 buffer holds at least `len` bytes and u8 has
            // no alignment requirement.
            let bytes =
                unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, len) };
            let mut file = file;
            file.read_exact(bytes)?;
            Ok(Map { words, len })
        }

        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: as in new(); lifetime tied to &self.
            unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(tag: &str, contents: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("memmap2-shim-test-{}-{tag}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn maps_a_file_read_only() {
        let path = temp_file("basic", b"hello mapped world");
        let file = File::open(&path).unwrap();
        // SAFETY: the temp file is created, never truncated, and removed
        // only after the map is dropped.
        let map = unsafe { Mmap::map(&file) }.unwrap();
        assert_eq!(&map[..], b"hello mapped world");
        assert_eq!(map.len(), 18);
        assert!(!map.is_empty());
        // Page (or heap) alignment covers the 8-byte requirement of callers.
        assert!((map.as_ref().as_ptr() as usize).is_multiple_of(8));
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_files_map_to_empty_slices() {
        let path = temp_file("empty", b"");
        let file = File::open(&path).unwrap();
        // SAFETY: the temp file is created, never truncated, and removed
        // only after the map is dropped.
        let map = unsafe { Mmap::map(&file) }.unwrap();
        assert!(map.is_empty());
        assert_eq!(&map[..], b"");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn maps_are_shareable_across_threads() {
        let path = temp_file("threads", &[7u8; 4096]);
        let file = File::open(&path).unwrap();
        // SAFETY: the temp file is created, never truncated, and removed
        // only after the map is dropped.
        let map = unsafe { Mmap::map(&file) }.unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| assert!(map.iter().all(|&b| b == 7)));
            }
        });
        std::fs::remove_file(&path).unwrap();
    }
}
