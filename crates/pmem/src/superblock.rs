//! Durable superblock layout: fixed offsets shared by all subsystems.
//!
//! The first [`CARVE_START`] bytes of the arena act like a filesystem
//! superblock. Each subsystem owns a region (documented below) and accesses
//! it through its own logic; this module only centralises the offsets so
//! they cannot collide, plus the format/open handshake.
//!
//! Cache-line discipline matters here: every field group that is protected
//! by an in-cache-line log (each shard's carve-watermark triple) occupies a
//! single dedicated cache line, so the InCLL ordering argument (§2.1
//! "granularity") applies.
//!
//! Layout (byte offsets from the arena base; line = 64 B):
//!
//! | Offset | Line(s)   | Contents |
//! |--------|-----------|----------|
//! | 0      | 0         | reserved (offset 0 is the null `PPtr`) |
//! | 64     | 1         | magic, version, tree-init flag, shard count |
//! | 128    | 2–3       | extent-owner table: one owner byte per extent (up to 128) |
//! | 256    | 4         | external-log region descriptor (incl. domain count) |
//! | 320    | 5         | allocator descriptor (head-region base, threads, classes, domains) |
//! | 384    | 6         | extent-pool descriptor (pool base + extent bytes + extent count) |
//! | 448    | 7         | batch next-id word (monotonic durable batch-id allocator) |
//! | 512    | 8–9       | batch-commit table: 8 × 16 B (batch id, shard mask) slots |
//! | 640    | 10–15     | spare |
//! | 1024   | 16–31     | root-holder table: 64 × 16 B (holder, logged-epoch tag) |
//! | 2048   | 32–95     | watermark table: one InCLL triple line per shard |
//! | 6144   | 96–1119   | epoch-domain table: 64 × 1 KiB cells (epoch pair + failed-epoch set) |
//! | 71680  | —         | start of carvable space |
//!
//! Every per-shard structure is a uniform table indexed
//! `base + shard * stride` for `shard in 0..`[`MAX_SHARDS`] — shard 0
//! included — so a `shards(1)` store and a `shards(64)` store share one
//! media shape and one code path.

use crate::{Error, PArena, Result};

/// Identifies a formatted InCLL arena.
pub const MAGIC: u64 = 0x19C1_1C05_A5B1_2019;
/// On-media format version. Version 7 gave every shard — shard 0
/// included — a slot in uniform per-shard tables (root holders, epoch
/// cells with a [`MAX_FAILED_EPOCHS`]-entry failed set, watermark lines),
/// retired shard 0's separate cells, and made a one-shard allocator a
/// one-owner extent pool; the owner table moved to lines 2–3 and
/// [`CARVE_START`] moved past the larger domain table. Version 6 replaced
/// the static per-shard region split with the **chunked extent pool**:
/// the carvable space is a pool of fixed-size extents and shards claim
/// them online from the durable extent-owner table ([`SB_EXTENT_OWNERS`],
/// descriptor at [`SB_ARENA_SPLIT`]/[`SB_ARENA_REGION_BYTES`]/
/// [`SB_EXTENT_COUNT`]). Version 5 added the batch-commit table
/// ([`SB_BATCH_NEXT_ID`], [`SB_BATCH_TABLE`]) backing cross-shard atomic
/// write batches. Version 4 added the per-shard allocator arenas and the
/// per-shard watermark table ([`SB_SHARD_BUMP_TABLE`]). Version 3 added
/// the per-shard epoch-domain table ([`SB_DOMAIN_TABLE`]); version 2
/// added the shard table ([`SB_SHARD_COUNT`], [`shard_root_holder`]);
/// version-1 media has neither. Every older layout places these fields
/// elsewhere, so openers must reject it, never reinterpret it.
pub const VERSION: u64 = 7;

/// Offset of the magic word.
pub const SB_MAGIC: u64 = 64;
/// Offset of the format version.
pub const SB_VERSION: u64 = 72;
/// Offset of tree metadata (initialisation flag).
pub const SB_TREE_META: u64 = 80;
/// Offset of the keyspace shard count, fixed at store creation (power of
/// two, `1..=`[`MAX_SHARDS`]; 0 on media that predates store creation).
pub const SB_SHARD_COUNT: u64 = 88;

// ---------------------------------------------------------------------
// Extent-owner table
// ---------------------------------------------------------------------

/// Offset of the extent-owner table: one byte per extent, 0 = free,
/// `shard + 1` = owned by that shard. The table occupies two dedicated
/// cache lines (no other superblock field shares them), so claim
/// write-backs never race another subsystem's line state.
///
/// A claim is a byte CAS (`0 → shard + 1`) followed by `clwb`/`sfence`
/// ([`claim_extent`]): the byte is the *only* durable word naming the
/// owner, so a crash anywhere in the protocol leaves the extent either
/// durably owned or durably free — never torn. The shard's carve
/// frontier can only reference the extent *after* the fence, and
/// frontiers persist no earlier than the shard's next checkpoint flush,
/// so a durable frontier inside an extent implies a durable claim.
/// The converse crash shape — claim durable, frontier not — is the
/// **in-doubt claim**: recovery keeps the extent on the owning shard's
/// reserve chain (extents are never released), with zero media writes,
/// so the repair is byte-identical at every recovery worker count.
pub const SB_EXTENT_OWNERS: u64 = 128;
/// Maximum number of pool extents (the owner table is two cache lines).
pub const MAX_EXTENTS: usize = 128;

/// The offset of extent `i`'s owner byte.
///
/// # Panics
///
/// Panics if `i >= MAX_EXTENTS`.
#[inline]
pub const fn extent_owner_off(i: usize) -> u64 {
    assert!(i < MAX_EXTENTS, "extent index out of range");
    SB_EXTENT_OWNERS + i as u64
}

/// Reads extent `i`'s owner byte: 0 = free, `shard + 1` = owned.
pub fn extent_owner(arena: &PArena, i: usize) -> u8 {
    arena.pread_u8(extent_owner_off(i))
}

/// Claims extent `i` for `shard` if it is free, making the claim durable
/// before returning `true`. Returns `false` when another shard (or a
/// prior claim by this one) already owns it. See [`SB_EXTENT_OWNERS`]
/// for the crash-atomicity argument.
///
/// # Panics
///
/// Panics if `shard + 1` does not fit the owner byte.
pub fn claim_extent(arena: &PArena, i: usize, shard: usize) -> bool {
    let owner = u8::try_from(shard + 1).expect("shard fits the owner byte");
    let off = extent_owner_off(i);
    if arena.pcas_u8(off, 0, owner).is_err() {
        return false;
    }
    arena.clwb(off);
    arena.sfence();
    true
}

// ---------------------------------------------------------------------
// Subsystem descriptors
// ---------------------------------------------------------------------

/// Offset of the external-log region pointer.
pub const SB_EXTLOG_OFF: u64 = 256;
/// Offset of the external-log thread-count word.
pub const SB_EXTLOG_THREADS: u64 = 264;
/// Offset of the external-log per-slot capacity word.
pub const SB_EXTLOG_PER_THREAD: u64 = 272;
/// Offset of the external-log domain-count word (0 reads as 1).
pub const SB_EXTLOG_DOMAINS: u64 = 280;

/// Offset of the allocator descriptor line: head-region base, thread
/// count, class count and domain count (one word each, in that order).
pub const SB_PALLOC_HEADS: u64 = 320;

/// Offset of the extent-pool base word: the base offset of the extent
/// pool the allocator carved out of the arena at create time.
pub const SB_ARENA_SPLIT: u64 = 384;
/// Offset of the bytes-per-extent word. Power of two; extent `i` spans
/// `[base + i·extent_bytes, base + (i+1)·extent_bytes)`.
pub const SB_ARENA_REGION_BYTES: u64 = 392;
/// Offset of the extent-count word: how many extents the pool holds
/// (`1..=`[`MAX_EXTENTS`]). Shares one line with the other two
/// descriptor words, so the whole descriptor persists with one
/// write-back.
pub const SB_EXTENT_COUNT: u64 = 400;

// ---------------------------------------------------------------------
// Batch-commit table
// ---------------------------------------------------------------------

/// Offset of the durable next-batch-id word. Monotonic: every
/// cross-shard write batch takes the current value and durably bumps it
/// **before** writing any intent entry, so a batch id on media is never
/// reissued. Format initialises it to 1 (0 means "no batch" in the
/// commit table below).
pub const SB_BATCH_NEXT_ID: u64 = 448;

/// Offset of the batch-commit table: [`BATCH_SLOTS`] slots of 16 bytes
/// each — word 0 the batch id (0 = empty slot), word 1 the mask of
/// shards the batch touched (bit `s` = shard `s`; [`MAX_SHARDS`] is 64,
/// so one word suffices).
///
/// A batch is **committed** iff some slot's id word equals its batch id
/// exactly. Both words of a slot share one cache line, so the commit
/// protocol (mask first, id second, same line) rides the InCLL
/// same-line-ordering argument: a torn commit leaves the old id, never a
/// new id with a stale mask.
pub const SB_BATCH_TABLE: u64 = 512;
/// Number of batch-commit slots. Bounds the batches that can be in-doubt
/// at once; committers reuse slots once every shard in a slot's mask has
/// advanced past the batch's intents (see `incll`'s eviction protocol).
pub const BATCH_SLOTS: usize = 8;

/// The offset of batch-commit slot `i` (its shard-mask word lives at
/// `+8`).
///
/// # Panics
///
/// Panics if `i >= BATCH_SLOTS`.
#[inline]
pub const fn batch_slot_off(i: usize) -> u64 {
    assert!(i < BATCH_SLOTS, "batch slot out of range");
    SB_BATCH_TABLE + (i as u64) * 16
}

/// Durably allocates the next batch id: reads the counter, bumps and
/// flushes it, and returns the pre-bump value. A crash between the bump
/// and the batch's first intent merely wastes an id.
pub fn next_batch_id(arena: &PArena) -> u64 {
    let id = arena.pread_u64(SB_BATCH_NEXT_ID).max(1);
    arena.pwrite_u64(SB_BATCH_NEXT_ID, id + 1);
    arena.clwb(SB_BATCH_NEXT_ID);
    arena.sfence();
    id
}

/// Reads batch-commit slot `i` as `(batch_id, shard_mask)`; id 0 means
/// the slot is empty.
pub fn batch_slot(arena: &PArena, i: usize) -> (u64, u64) {
    let off = batch_slot_off(i);
    (arena.pread_u64(off), arena.pread_u64(off + 8))
}

/// Durably writes the commit record for `batch_id` into slot `i`: mask
/// first, id second — both on one line, one flush. After the fence the
/// batch is committed; before it, the slot still names its previous
/// occupant (or 0) and the batch is in doubt (recovery drops it).
pub fn set_batch_slot(arena: &PArena, i: usize, batch_id: u64, shard_mask: u64) {
    let off = batch_slot_off(i);
    arena.pwrite_u64(off + 8, shard_mask);
    arena.pwrite_u64(off, batch_id);
    arena.clwb(off);
    arena.sfence();
}

/// Clears shard `shard`'s bit in slot `i`'s durable mask (plain store, no
/// flush — callers run this after the durable epoch bump that already
/// made the batch's intents on that shard non-replayable, so losing the
/// clear is merely conservative).
pub fn clear_batch_shard(arena: &PArena, i: usize, shard: usize) {
    let off = batch_slot_off(i);
    let mask = arena.pread_u64(off + 8);
    arena.pwrite_u64(off + 8, mask & !(1u64 << shard));
}

/// Returns `true` if `batch_id` has a durable commit record: some slot's
/// id word matches it exactly. Exact match is the whole protocol —
/// reused slots hold *different* ids, so an in-doubt batch can never
/// alias a committed one.
pub fn batch_is_committed(arena: &PArena, batch_id: u64) -> bool {
    batch_id != 0 && (0..BATCH_SLOTS).any(|i| arena.pread_u64(batch_slot_off(i)) == batch_id)
}

// ---------------------------------------------------------------------
// Per-shard tables
// ---------------------------------------------------------------------

/// Maximum shard count: every per-shard table has this many entries.
pub const MAX_SHARDS: usize = 64;

/// Offset of the root-holder table: one 16-byte holder/tag cell per
/// shard (the holder word, then its logged-epoch tag — holders are
/// externally logged at most once per epoch; the tag enforces it).
pub const SB_SHARD_TABLE: u64 = 1024;

/// The superblock offset of shard `i`'s root-holder cell (its logged-epoch
/// tag lives at `+8`).
///
/// # Panics
///
/// Panics if `i >= MAX_SHARDS`.
#[inline]
pub const fn shard_root_holder(i: usize) -> u64 {
    assert!(i < MAX_SHARDS, "shard index out of range");
    SB_SHARD_TABLE + (i as u64) * 16
}

/// Offset of the watermark table: one full cache line per shard, holding
/// that shard's carve-frontier InCLL triple:
///
/// ```text
/// +0  watermark    +8  watermarkInCLL    +16 epoch tag
/// ```
///
/// Each shard's triple lives on its own line, so the same-line-ordering
/// (InCLL) protocol applies per shard and concurrent carves on different
/// shards never contend on a cache line. The epoch tag is on the owning
/// shard's **own** timeline.
pub const SB_SHARD_BUMP_TABLE: u64 = 2048;

/// The offset of shard `i`'s durable carve watermark.
///
/// # Panics
///
/// Panics if `i >= MAX_SHARDS`.
#[inline]
pub const fn shard_bump_off(i: usize) -> u64 {
    assert!(i < MAX_SHARDS, "shard index out of range");
    SB_SHARD_BUMP_TABLE + (i as u64) * 64
}

/// The offset of shard `i`'s logged (epoch-start) watermark.
#[inline]
pub const fn shard_bump_incll_off(i: usize) -> u64 {
    shard_bump_off(i) + 8
}

/// The offset of shard `i`'s watermark-log epoch tag.
#[inline]
pub const fn shard_bump_epoch_off(i: usize) -> u64 {
    shard_bump_off(i) + 16
}

/// Offset of the epoch-domain table: one [`DOMAIN_CELL_BYTES`] cell per
/// shard.
///
/// Cell layout (byte offsets within the cell):
///
/// ```text
/// +0  durable current epoch    +8  first epoch of current execution
/// +16 failed-epoch count       +24 failed epochs (up to MAX_FAILED_EPOCHS × u64)
/// ```
pub const SB_DOMAIN_TABLE: u64 = 6144;
/// Bytes per epoch-domain cell (16 cache lines).
pub const DOMAIN_CELL_BYTES: u64 = 1024;
/// Capacity of each shard's failed-epoch set.
///
/// Each entry is one crash survived by the shard since its last completed
/// checkpoint: completed checkpoints prune the set (see
/// [`prune_failed_epochs`] and the compaction pass in `incll`'s advance
/// hooks), so the bound is on crashes *between* checkpoints, not on the
/// arena's lifetime.
pub const MAX_FAILED_EPOCHS: usize = 119;

/// The offset of shard `i`'s durable current-epoch word.
///
/// # Panics
///
/// Panics if `i >= MAX_SHARDS`.
#[inline]
pub const fn domain_cur_epoch_off(i: usize) -> u64 {
    assert!(i < MAX_SHARDS, "shard index out of range");
    SB_DOMAIN_TABLE + (i as u64) * DOMAIN_CELL_BYTES
}

/// The offset of shard `i`'s first-epoch-of-current-execution word.
///
/// # Panics
///
/// Panics if `i >= MAX_SHARDS`.
#[inline]
pub const fn domain_exec_epoch_off(i: usize) -> u64 {
    domain_cur_epoch_off(i) + 8
}

/// The offset of shard `i`'s failed-epoch count word.
#[inline]
const fn failed_cnt_off(i: usize) -> u64 {
    domain_cur_epoch_off(i) + 16
}

/// The offset of shard `i`'s failed-epoch array.
#[inline]
const fn failed_arr_off(i: usize) -> u64 {
    domain_cur_epoch_off(i) + 24
}

/// First carvable offset: the end of the epoch-domain table.
pub const CARVE_START: u64 = SB_DOMAIN_TABLE + MAX_SHARDS as u64 * DOMAIN_CELL_BYTES;

/// Formats a fresh arena: zeroes all superblock fields, starts every
/// shard's epoch cells at epoch 1, writes version and magic, and flushes
/// the superblock.
///
/// Calling `format` on an already-formatted arena wipes it.
pub fn format(arena: &PArena) {
    // Zero the whole superblock area first (idempotent on fresh arenas).
    arena.pwrite_bytes(64, &vec![0u8; (CARVE_START - 64) as usize]);
    arena.pwrite_u64(SB_VERSION, VERSION);
    for i in 0..MAX_SHARDS {
        arena.pwrite_u64(domain_cur_epoch_off(i), 1);
        arena.pwrite_u64(domain_exec_epoch_off(i), 1);
    }
    arena.pwrite_u64(SB_BATCH_NEXT_ID, 1);
    // Magic last: a torn format leaves the arena unformatted.
    arena.pwrite_u64(SB_MAGIC, MAGIC);
    arena.clwb_range(64, (CARVE_START - 64) as usize);
    arena.sfence();
    arena.set_bump(CARVE_START);
}

/// Returns `true` if the arena carries a valid superblock of the
/// **current** layout version.
pub fn is_formatted(arena: &PArena) -> bool {
    arena.pread_u64(SB_MAGIC) == MAGIC && arena.pread_u64(SB_VERSION) == VERSION
}

/// Returns `true` if the arena carries the InCLL magic at all, regardless
/// of layout version. Openers use this to distinguish "blank, safe to
/// format" from "formatted with an incompatible layout" — the latter must
/// surface a typed error, never a silent reformat.
pub fn has_magic(arena: &PArena) -> bool {
    arena.pread_u64(SB_MAGIC) == MAGIC
}

/// The on-media layout version word (meaningful only when
/// [`has_magic`] is true).
pub fn raw_version(arena: &PArena) -> u64 {
    arena.pread_u64(SB_VERSION)
}

/// Appends `epoch` to shard `shard`'s durable failed-epoch set
/// (idempotent), flushing the update.
///
/// # Errors
///
/// [`Error::FailedEpochSetFull`] once [`MAX_FAILED_EPOCHS`] crashes have
/// been recorded for the shard without an intervening completed
/// checkpoint (which prunes the set).
pub fn record_failed_epoch_for(arena: &PArena, shard: usize, epoch: u64) -> Result<()> {
    let arr = failed_arr_off(shard);
    let cnt_off = failed_cnt_off(shard);
    let cnt = arena.pread_u64(cnt_off) as usize;
    for i in 0..cnt.min(MAX_FAILED_EPOCHS) {
        if arena.pread_u64(arr + (i as u64) * 8) == epoch {
            return Ok(()); // already recorded (re-crash during recovery)
        }
    }
    if cnt >= MAX_FAILED_EPOCHS {
        return Err(Error::FailedEpochSetFull);
    }
    // Entry first, count second: a torn append is invisible.
    arena.pwrite_u64(arr + (cnt as u64) * 8, epoch);
    arena.clwb(arr + (cnt as u64) * 8);
    arena.sfence();
    arena.pwrite_u64(cnt_off, cnt as u64 + 1);
    arena.clwb(cnt_off);
    arena.sfence();
    Ok(())
}

/// Reads shard `shard`'s durable failed-epoch set.
pub fn failed_epochs_for(arena: &PArena, shard: usize) -> Vec<u64> {
    let arr = failed_arr_off(shard);
    let cnt = (arena.pread_u64(failed_cnt_off(shard)) as usize).min(MAX_FAILED_EPOCHS);
    (0..cnt)
        .map(|i| arena.pread_u64(arr + (i as u64) * 8))
        .collect()
}

/// Compacts shard `shard`'s durable failed-epoch set, keeping only entries
/// `>= keep_from` — the caller passes the epoch whose checkpoint just
/// completed, pruning every entry the completed checkpoint made
/// unreferenceable.
///
/// Crash-safe without any extra logging: entries are compacted in place
/// *before* the count shrinks, and every intermediate entry word holds a
/// value from the original set, so a torn prune only leaves a (safe,
/// conservative) superset of the compacted set. No-op when nothing is
/// prunable.
///
/// # Safety contract (caller's)
///
/// Pruning an entry is only sound once no durable node or allocator header
/// can still need a rollback keyed to it — `incll`'s advance-time
/// compaction pass establishes that by sweeping the shard's nodes and
/// allocator lists *before* the checkpoint flush that precedes this call.
pub fn prune_failed_epochs(arena: &PArena, shard: usize, keep_from: u64) {
    let entries = failed_epochs_for(arena, shard);
    let keep: Vec<u64> = entries
        .iter()
        .copied()
        .filter(|&e| e >= keep_from)
        .collect();
    if keep.len() == entries.len() {
        return;
    }
    let arr = failed_arr_off(shard);
    for (i, &e) in keep.iter().enumerate() {
        arena.pwrite_u64(arr + (i as u64) * 8, e);
    }
    if !keep.is_empty() {
        arena.clwb_range(arr, keep.len() * 8);
        arena.sfence();
    }
    arena.pwrite_u64(failed_cnt_off(shard), keep.len() as u64);
    arena.clwb(failed_cnt_off(shard));
    arena.sfence();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> PArena {
        PArena::builder().capacity_bytes(1 << 20).build().unwrap()
    }

    #[test]
    fn layout_lines_do_not_collide() {
        // The header line holds only create-time words.
        const { assert!(SB_SHARD_COUNT + 8 <= SB_EXTENT_OWNERS) };
        assert_eq!(SB_MAGIC / 64, SB_SHARD_COUNT / 64);
        // The extent-owner table owns two dedicated lines.
        assert_eq!(SB_EXTENT_OWNERS % 64, 0);
        assert_eq!(
            extent_owner_off(MAX_EXTENTS - 1) + 1,
            SB_EXTENT_OWNERS + 128
        );
        assert!(extent_owner_off(MAX_EXTENTS - 1) < SB_EXTLOG_OFF);
        // Each descriptor sits on its own line, in front of the batch
        // words.
        for (lo, hi) in [
            (SB_EXTLOG_OFF, SB_EXTLOG_DOMAINS),
            (SB_PALLOC_HEADS, SB_PALLOC_HEADS + 24),
            (SB_ARENA_SPLIT, SB_EXTENT_COUNT),
        ] {
            assert_eq!(lo % 64, 0);
            assert_eq!(lo / 64, hi / 64, "descriptor words share one line");
        }
        const { assert!(SB_EXTLOG_DOMAINS + 8 <= SB_PALLOC_HEADS) };
        const { assert!(SB_PALLOC_HEADS + 32 <= SB_ARENA_SPLIT) };
        const { assert!(SB_EXTENT_COUNT + 8 <= SB_BATCH_NEXT_ID) };
        // The batch next-id word and commit table sit in front of the
        // per-shard tables; each slot's two words share a line (the
        // commit-ordering requirement).
        const { assert!(SB_BATCH_NEXT_ID + 8 <= SB_BATCH_TABLE) };
        assert!(batch_slot_off(BATCH_SLOTS - 1) + 16 <= SB_SHARD_TABLE);
        for i in 0..BATCH_SLOTS {
            assert_eq!(batch_slot_off(i) / 64, (batch_slot_off(i) + 8) / 64);
        }
        // Holder table, watermark table and domain table follow one
        // another, and the domain table ends where carvable space starts.
        assert!(shard_root_holder(MAX_SHARDS - 1) + 16 <= SB_SHARD_BUMP_TABLE);
        assert!(shard_bump_off(MAX_SHARDS - 1) + 64 <= SB_DOMAIN_TABLE);
        assert_eq!(
            domain_cur_epoch_off(MAX_SHARDS - 1) + DOMAIN_CELL_BYTES,
            CARVE_START
        );
        // A domain cell holds its epochs, count and full failed array.
        const { assert!(24 + (MAX_FAILED_EPOCHS as u64) * 8 <= DOMAIN_CELL_BYTES) };
    }

    #[test]
    fn shard_bump_triples_are_line_exclusive() {
        let lines: Vec<u64> = (0..MAX_SHARDS).map(|i| shard_bump_off(i) / 64).collect();
        for (i, &l) in lines.iter().enumerate() {
            assert_eq!(shard_bump_off(i) % 64, 0, "triple {i} must start a line");
            // The whole triple shares one line (the InCLL requirement)...
            assert_eq!(shard_bump_epoch_off(i) / 64, l);
            // ...and no two shards share a line (no cross-shard contention).
            for &other in &lines[i + 1..] {
                assert_ne!(l, other, "watermark lines must be per shard");
            }
        }
    }

    #[test]
    fn shard_holder_cells_are_distinct_and_aligned() {
        let holders: Vec<u64> = (0..MAX_SHARDS).map(shard_root_holder).collect();
        for (i, &h) in holders.iter().enumerate() {
            assert_eq!(h % 16, 0, "holder {i} must be 16-byte aligned");
            for &other in &holders[i + 1..] {
                assert!(other >= h + 16, "holder cells must not overlap");
            }
        }
    }

    #[test]
    fn domain_cells_are_distinct_and_line_aligned() {
        let cells: Vec<u64> = (0..MAX_SHARDS).map(domain_cur_epoch_off).collect();
        for (i, &c) in cells.iter().enumerate() {
            assert_eq!(c % 64, 0, "domain cell {i} must start a cache line");
            assert_eq!(domain_exec_epoch_off(i), c + 8);
            for &other in &cells[i + 1..] {
                assert!(other >= c + DOMAIN_CELL_BYTES);
            }
        }
    }

    #[test]
    fn version_probes_distinguish_blank_stale_and_current() {
        let a = arena();
        assert!(!has_magic(&a));
        format(&a);
        assert!(has_magic(&a));
        assert!(is_formatted(&a));
        assert_eq!(raw_version(&a), VERSION);
        // Older (v1..v6) superblocks keep their magic but are no longer
        // "formatted" in the current sense.
        for stale in [1, 2, 3, 4, 5, 6] {
            a.pwrite_u64(SB_VERSION, stale);
            assert!(has_magic(&a));
            assert!(!is_formatted(&a));
            assert_eq!(raw_version(&a), stale);
        }
    }

    #[test]
    fn format_then_open() {
        let a = arena();
        assert!(!is_formatted(&a));
        format(&a);
        assert!(is_formatted(&a));
        for i in 0..MAX_SHARDS {
            assert_eq!(a.pread_u64(domain_cur_epoch_off(i)), 1);
            assert_eq!(a.pread_u64(domain_exec_epoch_off(i)), 1);
        }
        assert_eq!(a.bump(), CARVE_START);
    }

    #[test]
    fn failed_epoch_set_roundtrip() {
        let a = arena();
        format(&a);
        assert!(failed_epochs_for(&a, 0).is_empty());
        record_failed_epoch_for(&a, 0, 10).unwrap();
        record_failed_epoch_for(&a, 0, 12).unwrap();
        record_failed_epoch_for(&a, 0, 10).unwrap(); // idempotent
        assert_eq!(failed_epochs_for(&a, 0), vec![10, 12]);
    }

    #[test]
    fn per_shard_failed_sets_are_independent() {
        let a = arena();
        format(&a);
        record_failed_epoch_for(&a, 0, 5).unwrap();
        record_failed_epoch_for(&a, 3, 9).unwrap();
        record_failed_epoch_for(&a, 3, 11).unwrap();
        assert_eq!(failed_epochs_for(&a, 0), vec![5]);
        assert_eq!(failed_epochs_for(&a, 3), vec![9, 11]);
        assert!(failed_epochs_for(&a, 1).is_empty());
    }

    #[test]
    fn every_shards_failed_epoch_set_fills_at_the_same_capacity() {
        let a = arena();
        format(&a);
        for shard in [0, 1, MAX_SHARDS - 1] {
            for e in 0..MAX_FAILED_EPOCHS as u64 {
                record_failed_epoch_for(&a, shard, e + 100).unwrap();
            }
            assert!(matches!(
                record_failed_epoch_for(&a, shard, 5),
                Err(Error::FailedEpochSetFull)
            ));
            // Existing entries still readable and idempotent re-record
            // still ok.
            record_failed_epoch_for(&a, shard, 100).unwrap();
            assert_eq!(failed_epochs_for(&a, shard).len(), MAX_FAILED_EPOCHS);
        }
        assert!(failed_epochs_for(&a, 2).is_empty(), "cells never overlap");
    }

    #[test]
    fn prune_drops_only_older_entries() {
        let a = arena();
        format(&a);
        for e in [4u64, 7, 9, 12] {
            record_failed_epoch_for(&a, 0, e).unwrap();
        }
        prune_failed_epochs(&a, 0, 9);
        assert_eq!(failed_epochs_for(&a, 0), vec![9, 12]);
        // Pruning everything empties the set and re-recording works.
        prune_failed_epochs(&a, 0, u64::MAX);
        assert!(failed_epochs_for(&a, 0).is_empty());
        record_failed_epoch_for(&a, 0, 20).unwrap();
        assert_eq!(failed_epochs_for(&a, 0), vec![20]);
    }

    #[test]
    fn prune_unblocks_a_full_set() {
        let a = arena();
        format(&a);
        for e in 0..MAX_FAILED_EPOCHS as u64 {
            record_failed_epoch_for(&a, 1, e + 10).unwrap();
        }
        assert!(record_failed_epoch_for(&a, 1, 999).is_err());
        prune_failed_epochs(&a, 1, u64::MAX);
        record_failed_epoch_for(&a, 1, 999).unwrap();
        assert_eq!(failed_epochs_for(&a, 1), vec![999]);
    }

    #[test]
    fn batch_ids_are_monotonic_and_commit_matches_exactly() {
        let a = arena();
        format(&a);
        let b1 = next_batch_id(&a);
        let b2 = next_batch_id(&a);
        assert_eq!(b1, 1);
        assert_eq!(b2, 2);
        assert!(!batch_is_committed(&a, b1));
        assert!(!batch_is_committed(&a, 0)); // 0 is "no batch", never committed
        set_batch_slot(&a, 0, b1, 0b101);
        assert!(batch_is_committed(&a, b1));
        assert!(!batch_is_committed(&a, b2));
        assert_eq!(batch_slot(&a, 0), (b1, 0b101));
        // Clearing shard bits narrows the mask without touching the id.
        clear_batch_shard(&a, 0, 2);
        assert_eq!(batch_slot(&a, 0), (b1, 0b001));
        clear_batch_shard(&a, 0, 0);
        assert_eq!(batch_slot(&a, 0), (b1, 0));
        assert!(batch_is_committed(&a, b1)); // commit survives mask drain
                                             // Slot reuse: the old id disappears, the new one commits.
        set_batch_slot(&a, 0, b2, 0b11);
        assert!(!batch_is_committed(&a, b1));
        assert!(batch_is_committed(&a, b2));
    }

    #[test]
    fn extent_claims_are_exclusive_and_exactly_once() {
        let a = arena();
        format(&a);
        for i in 0..MAX_EXTENTS {
            assert_eq!(extent_owner(&a, i), 0, "fresh pool is all-free");
        }
        assert!(claim_extent(&a, 3, 0));
        assert_eq!(extent_owner(&a, 3), 1);
        // Neither the owner nor anyone else can claim it again.
        assert!(!claim_extent(&a, 3, 0));
        assert!(!claim_extent(&a, 3, 5));
        assert_eq!(extent_owner(&a, 3), 1);
        // Adjacent extents (same owner-table word) claim independently.
        assert!(claim_extent(&a, 2, 7));
        assert!(claim_extent(&a, 4, 63));
        assert_eq!(extent_owner(&a, 2), 8);
        assert_eq!(extent_owner(&a, 3), 1);
        assert_eq!(extent_owner(&a, 4), 64);
    }

    #[test]
    fn extent_claim_is_never_torn_across_a_crash() {
        let a = PArena::builder()
            .capacity_bytes(1 << 20)
            .tracked(true)
            .build()
            .unwrap();
        format(&a);
        a.global_flush();
        // A completed claim is durable the moment claim_extent returns:
        // even the harshest crash (drop every unflushed store) keeps it.
        assert!(claim_extent(&a, 9, 4));
        a.crash_with(|_, _| 0);
        assert_eq!(extent_owner(&a, 9), 5, "a returned claim must survive");
        // A claim that crashed *before* its write-back (simulated by the
        // raw CAS without the flush) is lost whole: the byte reads free,
        // never torn, and the extent is claimable again.
        assert!(a.pcas_u8(extent_owner_off(10), 0, 3).is_ok());
        a.crash_with(|_, _| 0);
        assert_eq!(extent_owner(&a, 10), 0, "a pre-flush claim vanishes");
        assert!(claim_extent(&a, 10, 6));
        assert_eq!(extent_owner(&a, 10), 7);
    }

    #[test]
    fn concurrent_claimants_split_the_pool_without_overlap() {
        let a = arena();
        format(&a);
        // Eight shards race to claim every extent lowest-index-first; each
        // extent must end up with exactly one owner and every shard's
        // claim set must be disjoint.
        let counts: Vec<usize> = std::thread::scope(|s| {
            (0..8usize)
                .map(|shard| {
                    let a = a.clone();
                    s.spawn(move || {
                        let mut got = 0;
                        for i in 0..MAX_EXTENTS {
                            if claim_extent(&a, i, shard) {
                                got += 1;
                            }
                        }
                        got
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(counts.iter().sum::<usize>(), MAX_EXTENTS);
        for i in 0..MAX_EXTENTS {
            let o = extent_owner(&a, i);
            assert!((1..=8).contains(&o), "extent {i} owner {o} out of range");
        }
    }

    #[test]
    fn format_survives_tracked_crash_after_flush() {
        let a = PArena::builder()
            .capacity_bytes(1 << 20)
            .tracked(true)
            .build()
            .unwrap();
        format(&a);
        a.global_flush();
        a.crash_seeded(1);
        assert!(is_formatted(&a));
    }
}
