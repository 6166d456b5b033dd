//! 64-byte-aligned backing storage for [`crate::Panel`].
//!
//! The explicit SIMD panel kernels (see [`crate::simd`]) read panel rows with
//! wide vector loads. `Vec<f64>` only guarantees 8-byte alignment, so a panel
//! backed by one can straddle cache lines on every access; the crate-private
//! `AlignedVec` allocates its storage at [`PANEL_ALIGN`]-byte boundaries so a
//! panel whose lane count is a multiple of the vector width serves every wide
//! load from an aligned address. The buffer is fixed-size by design — every
//! panel construction or clone goes through `AlignedVec::zeroed` /
//! `AlignedVec::clone`, so the alignment invariant survives all growth and
//! reuse paths by construction.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Alignment (bytes) of panel backing storage: one cache line, and enough for
/// 512-bit vector loads should a wider kernel ever want them.
pub const PANEL_ALIGN: usize = 64;

/// A fixed-length, heap-allocated `f64` buffer aligned to [`PANEL_ALIGN`]
/// bytes. Dereferences to `[f64]`; cloning reallocates at the same alignment.
pub(crate) struct AlignedVec {
    ptr: NonNull<f64>,
    len: usize,
}

// SAFETY: the buffer is plain `f64` data behind a uniquely owned
// allocation; there is no interior mutability or thread affinity.
unsafe impl Send for AlignedVec {}
unsafe impl Sync for AlignedVec {}

impl AlignedVec {
    /// Allocates a zero-filled buffer of `len` elements at [`PANEL_ALIGN`]
    /// alignment.
    pub(crate) fn zeroed(len: usize) -> Self {
        if len == 0 {
            return AlignedVec {
                ptr: NonNull::dangling(),
                len: 0,
            };
        }
        let layout = Self::layout(len);
        // SAFETY: `layout` has non-zero size (len > 0).
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<f64>()) else {
            handle_alloc_error(layout)
        };
        debug_assert_eq!(
            ptr.as_ptr() as usize % PANEL_ALIGN,
            0,
            "panel storage must be {PANEL_ALIGN}-byte aligned"
        );
        AlignedVec { ptr, len }
    }

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len * std::mem::size_of::<f64>(), PANEL_ALIGN)
            .expect("aligned panel buffer layout")
    }
}

impl Deref for AlignedVec {
    type Target = [f64];

    #[inline]
    fn deref(&self) -> &[f64] {
        // SAFETY: `ptr` covers `len` initialised elements for the buffer's
        // lifetime (all-zero bytes are the valid value `0.0`; dangling with
        // len == 0 is a valid empty slice).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for AlignedVec {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        // SAFETY: as in `deref`, and `&mut self` guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedVec {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: allocated in `zeroed` with exactly this layout.
            unsafe { dealloc(self.ptr.as_ptr().cast(), Self::layout(self.len)) };
        }
    }
}

impl Clone for AlignedVec {
    fn clone(&self) -> Self {
        let mut fresh = AlignedVec::zeroed(self.len);
        fresh.copy_from_slice(self);
        fresh
    }
}

impl std::fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for AlignedVec {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_aligned_and_zero() {
        for len in [1, 7, 8, 64, 65, 1023] {
            let buf = AlignedVec::zeroed(len);
            assert_eq!(buf.as_ptr() as usize % PANEL_ALIGN, 0, "len {len}");
            assert_eq!(buf.len(), len);
            assert!(buf.iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn clone_preserves_alignment_and_contents() {
        let mut buf = AlignedVec::zeroed(19);
        for (i, slot) in buf.iter_mut().enumerate() {
            *slot = i as f64 * 0.5;
        }
        let twin = buf.clone();
        assert_eq!(twin.as_ptr() as usize % PANEL_ALIGN, 0);
        assert_eq!(buf, twin);
    }

    #[test]
    fn empty_buffer_is_a_valid_empty_slice() {
        let buf = AlignedVec::zeroed(0);
        assert!(buf.is_empty());
        let twin = buf.clone();
        assert_eq!(buf, twin);
    }
}
