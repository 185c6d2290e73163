//! Read-only memory-mapped files, dependency-free.
//!
//! Out-of-core artifact serving (DESIGN.md §6.14) needs `mmap` without
//! pulling in a crate for it, so the unix implementation declares the two
//! syscalls it uses directly. The file descriptor comes from `std::fs::File`
//! (std already owns `open`/`fstat`); only the mapping itself is FFI. On
//! non-unix targets the same API is backed by an ordinary heap read, so
//! callers never need a `cfg` — they just lose the zero-copy property.
//!
//! A [`MmapFile`] derefs to `&[u8]` and is `Send + Sync`: the mapping is
//! `PROT_READ`/`MAP_PRIVATE` and never mutated. Callers that lend out
//! sub-slices share the mapping with `Arc<MmapFile>` and keep numeric
//! offsets, never self-referential borrows.
//!
//! Safety note inherited by every user: mapped bytes come from a file that
//! another process could truncate underneath us, which would turn reads into
//! `SIGBUS`. That is the standard, documented mmap contract (every mmap
//! consumer in the ecosystem shares it); Leva additionally CRC-checks every
//! chunk before trusting its contents, so torn *writes* are detected even
//! though torn *truncations* remain the operator's responsibility.

use std::fs::File;
use std::io;
use std::ops::Deref;
use std::path::Path;

/// A whole file, mapped read-only (unix) or read into the heap (elsewhere).
#[derive(Debug)]
pub struct MmapFile {
    inner: Backing,
}

#[derive(Debug)]
enum Backing {
    #[cfg(unix)]
    Mapped {
        /// Page-aligned base address returned by `mmap`, null only for the
        /// empty-file mapping (which we never dereference: `len == 0`).
        ptr: *mut core::ffi::c_void,
        len: usize,
    },
    Heap(Vec<u8>),
}

// SAFETY: the mapping is immutable (PROT_READ) for the life of the value and
// unmapped exactly once in Drop; sharing &MmapFile across threads is sharing
// &[u8].
#[cfg(unix)]
unsafe impl Send for MmapFile {}
#[cfg(unix)]
unsafe impl Sync for MmapFile {}

#[cfg(unix)]
mod ffi {
    use core::ffi::c_void;
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

impl MmapFile {
    /// Maps `path` read-only. Empty files map to an empty slice.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "file exceeds address space")
        })?;
        Self::from_file(&file, len)
    }

    #[cfg(unix)]
    fn from_file(file: &File, len: usize) -> io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return Ok(Self {
                inner: Backing::Heap(Vec::new()),
            });
        }
        // SAFETY: fd is valid for the duration of the call; a MAP_PRIVATE
        // read-only mapping of a regular file has no other preconditions.
        let ptr = unsafe {
            ffi::mmap(
                core::ptr::null_mut(),
                len,
                ffi::PROT_READ,
                ffi::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == ffi::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            inner: Backing::Mapped { ptr, len },
        })
    }

    #[cfg(not(unix))]
    fn from_file(file: &File, len: usize) -> io::Result<Self> {
        use std::io::Read;
        let mut buf = Vec::with_capacity(len);
        let mut f = file;
        f.read_to_end(&mut buf)?;
        Ok(Self {
            inner: Backing::Heap(buf),
        })
    }

    /// True when the bytes live in a kernel mapping rather than the heap —
    /// i.e. when serving from this file is actually zero-copy.
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(unix)]
            Backing::Mapped { .. } => true,
            Backing::Heap(_) => false,
        }
    }

    /// Byte offset of `sub` within this file's bytes, or `None` when the
    /// slice does not lie entirely inside them.
    pub fn offset_of(&self, sub: &[u8]) -> Option<usize> {
        let offset = (sub.as_ptr() as usize).checked_sub(self.as_ptr() as usize)?;
        (offset.checked_add(sub.len())? <= self.len()).then_some(offset)
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True for an empty file.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn as_slice(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            Backing::Mapped { ptr, len } => {
                // SAFETY: ptr/len came from a successful mmap that lives
                // until Drop; the mapping is read-only and page-backed.
                unsafe { core::slice::from_raw_parts(*ptr as *const u8, *len) }
            }
            Backing::Heap(v) => v,
        }
    }
}

impl Deref for MmapFile {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Drop for MmapFile {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = self.inner {
            // SAFETY: exactly one munmap per successful mmap; failure here
            // is unreportable and harmless (the mapping leaks).
            unsafe {
                ffi::munmap(ptr, len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("leva-mmapfile-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn maps_file_contents() {
        let path = temp_path("contents");
        std::fs::write(&path, b"hello mapping").unwrap();
        let map = MmapFile::open(&path).unwrap();
        assert_eq!(&map[..], b"hello mapping");
        assert_eq!(map.len(), 13);
        #[cfg(unix)]
        assert!(map.is_mapped());
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_path("empty");
        std::fs::write(&path, b"").unwrap();
        let map = MmapFile::open(&path).unwrap();
        assert!(map.is_empty());
        assert!(!map.is_mapped());
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn offset_of_locates_sub_slices_only() {
        let path = temp_path("offset");
        std::fs::write(&path, b"0123456789").unwrap();
        let map = MmapFile::open(&path).unwrap();
        assert_eq!(map.offset_of(&map[3..7]), Some(3));
        assert_eq!(map.offset_of(&map[10..]), Some(10));
        assert_eq!(map.offset_of(b"0123"), None);
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(MmapFile::open(Path::new("/nonexistent/leva-nope")).is_err());
    }

    #[test]
    fn mapping_base_is_page_aligned() {
        let path = temp_path("aligned");
        std::fs::write(&path, vec![7u8; 4096]).unwrap();
        let map = MmapFile::open(&path).unwrap();
        // 8-byte payload alignment in the file carries over to memory only
        // because the mapping base is at least 8-aligned; pages are 4 KiB+.
        assert_eq!(map.as_ptr() as usize % 8, 0);
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }
}
