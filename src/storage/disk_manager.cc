#include "src/storage/disk_manager.h"

#include <cstring>

#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace soreorg {

namespace {

bool AllZero(const char* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (data[i] != 0) return false;
  }
  return true;
}

}  // namespace

uint32_t PageChecksum(const char* page_image) {
  uint32_t crc = crc32c::Value(page_image, kPageChecksumOffset);
  crc = crc32c::Extend(crc, page_image + kPageChecksumOffset + 4,
                       kPageSize - kPageChecksumOffset - 4);
  return crc32c::Mask(crc);
}

DiskManager::DiskManager(Env* env, std::string file_name)
    : env_(env), file_name_(std::move(file_name)) {}

Status DiskManager::Open() {
  Status s = env_->NewFile(file_name_, &file_);
  if (!s.ok()) return s;
  std::lock_guard<std::mutex> g(mu_);
  next_page_id_ = static_cast<PageId>(file_->Size() / kPageSize);
  return Status::OK();
}

Status DiskManager::ReadPage(PageId page_id, Page* page) {
  IoObserver obs;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (page_id >= next_page_id_) {
      return Status::InvalidArgument("read past end of page file");
    }
    ++pages_read_;
    obs = io_observer_;
  }
  size_t n = 0;
  Status s = file_->Read(static_cast<uint64_t>(page_id) * kPageSize, kPageSize,
                         page->data(), &n);
  if (!s.ok()) return s;
  if (n < kPageSize) {
    // Page was allocated but never written (fresh extension), or the image
    // was cut short — zero-fill and let the checksum decide which.
    memset(page->data() + n, 0, kPageSize - n);
  }
  uint32_t stored = DecodeFixed32(page->data() + kPageChecksumOffset);
  if (n > 0 && !(stored == 0 && AllZero(page->data(), kPageSize))) {
    if (stored != PageChecksum(page->data())) {
      std::lock_guard<std::mutex> g(mu_);
      ++checksum_failures_;
      return Status::Corruption("page " + std::to_string(page_id) +
                                " checksum mismatch (torn or corrupt image)");
    }
  }
  page->set_page_id(page_id);
  if (obs) obs(page_id, /*is_write=*/false);
  return Status::OK();
}

Status DiskManager::WritePage(PageId page_id, const Page& page) {
  // Callers of this overload hand over a quiescent Page (recovery redo,
  // tests); copy to a scratch image so stamping never mutates their bytes.
  char scratch[kPageSize];
  memcpy(scratch, page.data(), kPageSize);
  return WritePage(page_id, scratch);
}

Status DiskManager::WritePage(PageId page_id, char* page_image) {
  IoObserver obs;
  {
    std::lock_guard<std::mutex> g(mu_);
    ++pages_written_;
    obs = io_observer_;
  }
  EncodeFixed32(page_image + kPageChecksumOffset, PageChecksum(page_image));
  Status s = file_->Write(static_cast<uint64_t>(page_id) * kPageSize,
                          Slice(page_image, kPageSize));
  if (!s.ok()) return s;
  if (obs) obs(page_id, /*is_write=*/true);
  return Status::OK();
}

Status DiskManager::SyncFile() { return file_->Sync(); }

Status DiskManager::AllocatePage(PageId* page_id) {
  std::lock_guard<std::mutex> g(mu_);
  if (!free_pages_.empty()) {
    *page_id = *free_pages_.begin();
    free_pages_.erase(free_pages_.begin());
  } else {
    *page_id = next_page_id_++;
  }
  return Status::OK();
}

Status DiskManager::AllocatePageAt(PageId page_id) {
  std::lock_guard<std::mutex> g(mu_);
  if (page_id >= next_page_id_) {
    for (PageId p = next_page_id_; p < page_id; ++p) free_pages_.insert(p);
    next_page_id_ = page_id + 1;
    return Status::OK();
  }
  auto it = free_pages_.find(page_id);
  if (it == free_pages_.end()) {
    return Status::InvalidArgument("page already allocated");
  }
  free_pages_.erase(it);
  return Status::OK();
}

Status DiskManager::DeallocatePage(PageId page_id) {
  std::lock_guard<std::mutex> g(mu_);
  if (page_id >= next_page_id_) {
    return Status::InvalidArgument("dealloc past end of page file");
  }
  if (!free_pages_.insert(page_id).second) {
    return Status::InvalidArgument("double free of page");
  }
  return Status::OK();
}

PageId DiskManager::FirstFreeInRange(PageId lo, PageId hi) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = free_pages_.lower_bound(lo);
  if (it != free_pages_.end() && *it < hi) return *it;
  return kInvalidPageId;
}

bool DiskManager::IsFree(PageId page_id) const {
  std::lock_guard<std::mutex> g(mu_);
  return free_pages_.count(page_id) > 0;
}

PageId DiskManager::page_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return next_page_id_;
}

uint64_t DiskManager::checksum_failures() const {
  std::lock_guard<std::mutex> g(mu_);
  return checksum_failures_;
}

size_t DiskManager::free_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return free_pages_.size();
}

std::string DiskManager::SerializeMeta() const {
  std::lock_guard<std::mutex> g(mu_);
  std::string out;
  PutFixed32(&out, next_page_id_);
  PutVarint32(&out, static_cast<uint32_t>(free_pages_.size()));
  for (PageId p : free_pages_) PutFixed32(&out, p);
  return out;
}

Status DiskManager::RestoreMeta(const Slice& meta) {
  std::lock_guard<std::mutex> g(mu_);
  Slice in = meta;
  uint32_t next;
  if (!GetFixed32(&in, &next)) return Status::Corruption("disk meta");
  uint32_t n;
  if (!GetVarint32(&in, &n)) return Status::Corruption("disk meta");
  std::set<PageId> free_set;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t p;
    if (!GetFixed32(&in, &p)) return Status::Corruption("disk meta");
    free_set.insert(p);
  }
  next_page_id_ = next;
  free_pages_ = std::move(free_set);
  return Status::OK();
}

void DiskManager::set_io_observer(IoObserver obs) {
  std::lock_guard<std::mutex> g(mu_);
  io_observer_ = std::move(obs);
}

}  // namespace soreorg
