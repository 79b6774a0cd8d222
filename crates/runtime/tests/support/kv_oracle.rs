//! The pre-extent page allocator — a LIFO `Vec<PageId>` free list and
//! per-page tables — retained as the reference implementation the
//! extent allocator is property-tested against (`tests/proptests.rs` drives
//! both on identical operation sequences and compares mapped page *sets*
//! and every count). Not used on any serving path.

use mugi_numerics::cast::u32_from_usize;
use mugi_runtime::PageId;

/// Pre-extent [`KvPool`](mugi_runtime::KvPool): an explicit LIFO free list.
#[derive(Clone, Debug)]
pub struct Pool {
    capacity: usize,
    free: Vec<PageId>,
    peak_used: usize,
}

impl Pool {
    /// A pool of `capacity` free pages.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "a KV pool needs at least one page");
        // Reversed so page p0 is handed out first (LIFO free list).
        let free = (0..u32_from_usize(capacity)).rev().map(PageId).collect();
        Pool { capacity, free, peak_used: 0 }
    }

    /// Pages currently unmapped.
    pub fn free_pages(&self) -> usize {
        self.free.len()
    }

    /// Pages currently mapped by some table.
    pub fn used_pages(&self) -> usize {
        self.capacity - self.free.len()
    }

    /// High-water mark of mapped pages.
    pub fn peak_used_pages(&self) -> usize {
        self.peak_used
    }

    /// Takes `n` pages from the free list, or `None` (pool unchanged)
    /// if fewer than `n` are free.
    pub fn alloc(&mut self, n: usize) -> Option<Vec<PageId>> {
        if self.free.len() < n {
            return None;
        }
        let pages = self.free.split_off(self.free.len() - n);
        self.peak_used = self.peak_used.max(self.used_pages());
        Some(pages)
    }

    /// Returns pages to the free list.
    pub fn release(&mut self, pages: Vec<PageId>) {
        debug_assert!(
            self.free.len() + pages.len() <= self.capacity,
            "released more pages than the pool holds"
        );
        self.free.extend(pages);
    }
}

/// Pre-extent [`PageTable`](mugi_runtime::PageTable): one handle per page.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    pages: Vec<PageId>,
    home: Option<usize>,
}

impl Table {
    /// An empty, homeless table.
    pub fn new() -> Self {
        Table::default()
    }

    /// Pages currently mapped.
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    /// Pool index the session's KV lives on, or `None` while no page
    /// is mapped.
    pub fn home(&self) -> Option<usize> {
        self.home
    }

    /// Whether the table may allocate from pool `pool`.
    pub fn admissible_on(&self, pool: usize) -> bool {
        self.home.is_none_or(|h| h == pool)
    }

    /// Grows the table to `target_pages` mapped pages out of `pool`.
    ///
    /// # Panics
    /// Panics if the table is homed to a different pool.
    pub fn grow(&mut self, pool_id: usize, pool: &mut Pool, target_pages: usize) -> bool {
        assert!(self.admissible_on(pool_id), "page table homed to a different pool");
        let needed = target_pages.saturating_sub(self.pages.len());
        if needed == 0 {
            return true;
        }
        let Some(mut fresh) = pool.alloc(needed) else {
            return false;
        };
        self.pages.append(&mut fresh);
        self.home = Some(pool_id);
        true
    }

    /// Releases every mapped page back into `pool` and forgets the
    /// home. Returns how many pages were released.
    pub fn release_all(&mut self, pool: &mut Pool) -> usize {
        let released = self.pages.len();
        pool.release(std::mem::take(&mut self.pages));
        self.home = None;
        released
    }

    /// Moves every mapped page from `from` into `to` (pool index
    /// `to_id`), re-homing the table.
    ///
    /// # Panics
    /// Panics if the table maps no pages or `to_id` is already home.
    pub fn migrate(&mut self, from: &mut Pool, to_id: usize, to: &mut Pool) -> Option<usize> {
        assert!(!self.pages.is_empty(), "an empty table has nothing to migrate");
        assert_ne!(self.home, Some(to_id), "migration target is already the home pool");
        let count = self.pages.len();
        let fresh = to.alloc(count)?;
        from.release(std::mem::replace(&mut self.pages, fresh));
        self.home = Some(to_id);
        Some(count)
    }
}
