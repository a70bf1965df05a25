// DiskManager: page-granular I/O over one Env file, plus page allocation.
//
// Free pages ("not connected to the B+-tree", paper §2) are tracked in an
// in-memory ordered free set so the reorganizer's Find-Free-Space heuristic
// can ask for "the first free page in [lo, hi)". Allocation state is made
// recoverable by (a) serializing it into each checkpoint and (b) WAL
// ALLOC/DEALLOC records redone by the RecoveryManager.
//
// An IoObserver hook lets the simulation layer (DiskModel) account seek vs
// sequential cost per physical page access — this is how the range-scan
// experiments (E5) time "disk reads" without spinning media.

#ifndef SOREORG_STORAGE_DISK_MANAGER_H_
#define SOREORG_STORAGE_DISK_MANAGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "src/storage/env.h"
#include "src/storage/page.h"
#include "src/util/status.h"

namespace soreorg {

class DiskManager {
 public:
  /// (page_id, is_write). Called on every physical page transfer.
  using IoObserver = std::function<void(PageId, bool)>;

  DiskManager(Env* env, std::string file_name);

  /// Open/create the backing file.
  Status Open();

  /// Reads verify the per-page checksum: a mismatch returns
  /// Status::Corruption (torn or rotted images are detected, never silently
  /// replayed). A never-written all-zero page is accepted as fresh.
  Status ReadPage(PageId page_id, Page* page);
  Status WritePage(PageId page_id, const Page& page);

  /// Write a raw 4 KiB page image (the buffer pool's flush snapshot). The
  /// checksum is stamped into `page_image` in place before the write.
  Status WritePage(PageId page_id, char* page_image);

  /// fsync the page file.
  Status SyncFile();

  /// Allocate a page id: lowest free id if any, else extend the file.
  Status AllocatePage(PageId* page_id);

  /// Allocate a specific id (used by redo). Fails if already allocated.
  Status AllocatePageAt(PageId page_id);

  /// Return a page to the free set.
  Status DeallocatePage(PageId page_id);

  /// First free page id in [lo, hi), or kInvalidPageId. Backing store for
  /// the paper's Find-Free-Space heuristic (§6.1).
  PageId FirstFreeInRange(PageId lo, PageId hi) const;

  bool IsFree(PageId page_id) const;

  /// One past the highest page id ever used (file size in pages).
  PageId page_count() const;
  size_t free_count() const;

  /// Snapshot/restore (next_page_id + free set) for checkpoints.
  std::string SerializeMeta() const;
  Status RestoreMeta(const Slice& meta);

  void set_io_observer(IoObserver obs);

  uint64_t pages_read() const { return pages_read_; }
  uint64_t pages_written() const { return pages_written_; }
  /// ReadPage checksum mismatches since open (recovery surfaces this).
  uint64_t checksum_failures() const;
  void ResetStats() { pages_read_ = pages_written_ = 0; }

 private:
  Env* env_;
  std::string file_name_;
  std::unique_ptr<File> file_;

  mutable std::mutex mu_;
  PageId next_page_id_ = 0;
  std::set<PageId> free_pages_;
  IoObserver io_observer_;
  uint64_t pages_read_ = 0;
  uint64_t pages_written_ = 0;
  uint64_t checksum_failures_ = 0;
};

/// Masked CRC32C of a 4 KiB page image, covering every byte except the
/// checksum field itself ([0, kPageChecksumOffset) ++ [kPageChecksumOffset+4,
/// kPageSize)). Exposed so tests can forge and verify images.
uint32_t PageChecksum(const char* page_image);

}  // namespace soreorg

#endif  // SOREORG_STORAGE_DISK_MANAGER_H_
