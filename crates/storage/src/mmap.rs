//! The `mmap(2)` FFI: a read-only mapping of the head of a backing file.
//!
//! Everything foreign lives here — the `extern "C"` declarations, the raw
//! pointer, and the invariants that make handing out `&[u8]` sound — so
//! the rest of the crate sees one safe type, [`MmapRegion`].

use std::path::Path;

use hydra_core::{Error, Result};

/// A read-only `mmap(2)` of the head of a backing file, torn down on drop.
///
/// Only bytes `0..len` are ever dereferenced, and `len` is validated
/// against the file's length *before* mapping — so the mapping can never
/// fault (SIGBUS) on a short file; a file that is short fails the attach
/// with a typed error instead. The payload offset inside the mapping is
/// byte-granular (snapshot payloads are not f32-aligned), which is why
/// frames are memcpy'd out of the mapping rather than reinterpreted in
/// place.
pub(crate) struct MmapRegion {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

// SAFETY: the mapping is immutable for its whole lifetime (PROT_READ over
// a read-only file) and `ptr`/`len` never change after `map`, so shared
// references from any thread are sound.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl std::fmt::Debug for MmapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapRegion").field("len", &self.len).finish()
    }
}

// The platform mmap entry points. The workspace vendors no libc crate, but
// every std binary on a unix target already links these symbols; the repo
// is unix-only throughout (`std::os::unix::fs::FileExt` on every pread).
extern "C" {
    fn mmap(
        addr: *mut std::ffi::c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut std::ffi::c_void;
    fn munmap(addr: *mut std::ffi::c_void, len: usize) -> i32;
}

const PROT_READ: i32 = 1;
const MAP_SHARED: i32 = 1;

impl MmapRegion {
    /// Maps the first `len` bytes of `file` read-only. The caller must
    /// have verified the file is at least `len` bytes long.
    pub(crate) fn map(file: &std::fs::File, len: usize, path: &Path) -> Result<Self> {
        use std::os::unix::io::AsRawFd;
        debug_assert!(len > 0, "mapping an empty span is a caller bug");
        // SAFETY: a fresh mapping at a kernel-chosen address aliases nothing
        // this process owns; `file` is open for the duration of the call,
        // and the result is checked before it is ever dereferenced.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(Error::Storage(format!(
                "cannot mmap {} ({len} bytes): {}",
                path.display(),
                std::io::Error::last_os_error()
            )));
        }
        Ok(Self {
            ptr: std::ptr::NonNull::new(ptr.cast::<u8>())
                .ok_or_else(|| Error::Storage(format!("mmap of {} returned null", path.display())))?,
            len,
        })
    }

    /// The mapped bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr..ptr + len` is the live read-only mapping `map`
        // created (unmapped only in `drop`), every byte of it backed by the
        // file because the caller validated the file's length first.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        // SAFETY: exactly the region `map` created, unmapped once; no
        // `bytes()` borrow can outlive `self`.
        unsafe {
            munmap(self.ptr.as_ptr().cast(), self.len);
        }
    }
}
