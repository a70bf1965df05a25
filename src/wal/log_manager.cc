#include "src/wal/log_manager.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace soreorg {

namespace {

constexpr uint64_t kFrameHeader = LogManager::kFrameHeader;

/// True iff a whole frame whose CRC matches starts at p, inside p[0, avail).
bool FrameAt(const char* p, uint64_t avail) {
  if (avail < kFrameHeader) return false;
  const uint32_t len = DecodeFixed32(p);
  if (len == 0 || len > avail - kFrameHeader) return false;
  return crc32c::Unmask(DecodeFixed32(p + 4)) ==
         crc32c::Value(p + kFrameHeader, len);
}

/// The frame scanner: walks buf[0, n) and returns the end of its longest
/// prefix of whole, CRC-valid frames, calling on_frame(offset) for each.
template <typename OnFrame>
uint64_t WalkFrames(const char* buf, uint64_t n, OnFrame&& on_frame) {
  uint64_t off = 0;
  while (FrameAt(buf + off, n - off)) {
    on_frame(off);
    off += kFrameHeader + DecodeFixed32(buf + off);
  }
  return off;
}

/// The torn-tail probe: the first offset in (from, n) where a valid frame
/// starts, or n if none does. A valid frame past the damage means a hole,
/// not a tail. (A false positive needs random bytes to pass a CRC32C,
/// ~2^-32 per candidate offset.)
uint64_t FrameAfter(const char* buf, uint64_t from, uint64_t n) {
  for (uint64_t cand = from + 1; cand < n; ++cand) {
    if (FrameAt(buf + cand, n - cand)) return cand;
  }
  return n;
}

/// Read file[from, from + n) into dst, looping over short reads. *got is
/// how many bytes arrived: fewer than n only at the end of the file. A
/// failed read is returned, never taken for the end of the file.
Status ReadRange(const File* file, uint64_t from, uint64_t n, char* dst,
                 uint64_t* got) {
  *got = 0;
  while (*got < n) {
    size_t r = 0;
    Status s = file->Read(from + *got, n - *got, dst + *got, &r);
    if (!s.ok()) return s;
    if (r == 0) break;
    *got += r;
  }
  return Status::OK();
}

/// ReadRange for a range inside the file's size: the bytes a scan judges
/// (and Open may truncate) must all have been read, so ending early is an
/// I/O error, not a torn tail.
Status ReadExtent(const File* file, const std::string& name, uint64_t from,
                  uint64_t n, char* dst) {
  uint64_t got = 0;
  Status s = ReadRange(file, from, n, dst, &got);
  if (s.ok() && got < n) {
    s = Status::IOError("WAL segment " + name + " read " +
                        std::to_string(got) + " of " + std::to_string(n) +
                        " bytes at offset " + std::to_string(from));
  }
  return s;
}

}  // namespace

Status LogFrames::Parse(size_t i, LogRecord* rec) const {
  const char* frame = bytes_.get() + (lsns_[i] - 1 - base_);
  Status s =
      LogRecord::Parse(Slice(frame + kFrameHeader, DecodeFixed32(frame)), rec);
  if (!s.ok()) {
    return Status::Corruption("WAL frame at lsn " + std::to_string(lsns_[i]) +
                              " matches its CRC but does not parse");
  }
  rec->lsn = lsns_[i];
  return Status::OK();
}

LogManager::LogManager(Env* env, std::string base_name, LogManagerOptions opts)
    : env_(env), base_(std::move(base_name)), opts_(opts) {}

std::string LogManager::SegmentFileName(const std::string& base,
                                        uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06llu",
                static_cast<unsigned long long>(seq));
  return base + "." + buf;
}

std::string LogManager::RecycleFileName(const std::string& base, uint64_t k) {
  return base + "-recycle." + std::to_string(k);
}

void LogManager::EncodeSegmentHeader(const SegmentHeader& h, char* out) {
  EncodeFixed32(out, kSegmentMagic);
  EncodeFixed32(out + 4, kSegmentVersion);
  EncodeFixed64(out + 8, h.seq);
  EncodeFixed64(out + 16, h.first_lsn);
  EncodeFixed64(out + 24, h.prev_first_lsn);
  EncodeFixed64(out + 32, h.sealed_size);
  EncodeFixed32(out + 40, crc32c::Mask(crc32c::Value(out, 40)));
  EncodeFixed32(out + 44, 0);  // reserved
}

bool LogManager::DecodeSegmentHeader(const char* in, SegmentHeader* h) {
  if (DecodeFixed32(in) != kSegmentMagic) return false;
  if (DecodeFixed32(in + 4) != kSegmentVersion) return false;
  if (crc32c::Unmask(DecodeFixed32(in + 40)) != crc32c::Value(in, 40)) {
    return false;
  }
  h->seq = DecodeFixed64(in + 8);
  h->first_lsn = DecodeFixed64(in + 16);
  h->prev_first_lsn = DecodeFixed64(in + 24);
  h->sealed_size = DecodeFixed64(in + 32);
  return true;
}

Status LogManager::WriteFreshHeader(File* file, const SegmentHeader& h) {
  char hdr[kSegmentHeaderSize];
  EncodeSegmentHeader(h, hdr);
  Status s = file->Truncate(0);
  if (s.ok()) s = file->Write(0, Slice(hdr, kSegmentHeaderSize));
  if (s.ok()) s = file->Sync();
  return s;
}

Status LogManager::Open() {
  std::lock_guard<std::mutex> g(mu_);
  {
    std::lock_guard<std::mutex> sg(seg_mu_);
    segments_.clear();
    recycle_pool_.clear();
  }
  open_dropped_bytes_ = 0;

  // Discover surviving segments (names are base + "." + digits).
  std::vector<std::string> names;
  Status s = env_->ListFiles(base_ + ".", &names);
  if (!s.ok()) return s;
  std::vector<std::pair<uint64_t, std::string>> found;
  for (const std::string& name : names) {
    std::string tail = name.substr(base_.size() + 1);
    if (tail.empty()) continue;
    bool digits = true;
    for (char c : tail) {
      if (!std::isdigit(static_cast<unsigned char>(c))) digits = false;
    }
    if (!digits) continue;
    found.emplace_back(std::strtoull(tail.c_str(), nullptr, 10), name);
  }
  std::sort(found.begin(), found.end());

  if (found.empty()) {
    // Virgin log: create segment 1.
    auto seg = std::make_shared<Segment>();
    seg->seq = 1;
    seg->first_lsn = 1;
    seg->prev_first_lsn = 0;
    seg->name = SegmentFileName(base_, 1);
    s = env_->NewFile(seg->name, &seg->file);
    if (!s.ok()) return s;
    SegmentHeader h{1, 1, 0, 0};
    s = WriteFreshHeader(seg->file.get(), h);
    if (s.ok()) s = env_->SyncDir(seg->name);
    if (!s.ok()) return s;
    std::lock_guard<std::mutex> sg(seg_mu_);
    segments_.push_back(std::move(seg));
    ++segments_created_;
  } else {
    // Seqs must be a contiguous range (truncation removes oldest-first, so
    // any crash leaves a contiguous suffix; a hole means lost segments).
    for (size_t i = 1; i < found.size(); ++i) {
      if (found[i].first != found[0].first + i) {
        return Status::Corruption("WAL segment seq gap: " +
                                  found[i - 1].second + " then " +
                                  found[i].second);
      }
    }
    std::deque<SegmentPtr> chain;
    for (size_t i = 0; i < found.size(); ++i) {
      const bool last = (i + 1 == found.size());
      auto seg = std::make_shared<Segment>();
      seg->seq = found[i].first;
      seg->name = found[i].second;
      s = env_->NewFile(seg->name, &seg->file);
      if (!s.ok()) return s;

      // Only a file too short to hold a header may lack one: a read that
      // fails or ends early is returned, so a readable segment is never
      // taken for an embryonic tail and reset.
      char raw[kSegmentHeaderSize];
      const uint64_t header_bytes =
          std::min<uint64_t>(kSegmentHeaderSize, seg->file->Size());
      s = ReadExtent(seg->file.get(), seg->name, 0, header_bytes, raw);
      if (!s.ok()) return s;
      SegmentHeader h;
      bool valid = header_bytes == kSegmentHeaderSize &&
                   DecodeSegmentHeader(raw, &h) && h.seq == seg->seq;

      if (!valid) {
        // Embryonic tail: rotation (or virgin creation) crashed before this
        // segment's header became durable — or a recycled file was renamed
        // into place but still holds its stale pre-recycle image. Legal only
        // for the newest segment, with a sealed predecessor (or none).
        if (!last) {
          return Status::Corruption("WAL segment " + seg->name +
                                    " has an invalid header below the tail");
        }
        if (!chain.empty() && !chain.back()->sealed.load()) {
          return Status::Corruption(
              "WAL tail segment " + seg->name +
              " has an invalid header but its predecessor is not sealed");
        }
        if (chain.empty() && seg->seq != 1) {
          return Status::Corruption("WAL sole segment " + seg->name +
                                    " has an invalid header");
        }
        seg->first_lsn = chain.empty() ? 1
                                       : chain.back()->first_lsn +
                                             chain.back()->data_size;
        seg->prev_first_lsn = chain.empty() ? 0 : chain.back()->first_lsn;
        SegmentHeader fresh{seg->seq, seg->first_lsn, seg->prev_first_lsn, 0};
        s = env_->DeleteFile(seg->name);
        if (!s.ok()) return s;
        s = env_->NewFile(seg->name, &seg->file);
        if (s.ok()) s = WriteFreshHeader(seg->file.get(), fresh);
        if (s.ok()) s = env_->SyncDir(seg->name);
        if (!s.ok()) return s;
        seg->data_size = 0;
        chain.push_back(std::move(seg));
        continue;
      }

      // Chain consistency against the predecessor.
      if (!chain.empty()) {
        const SegmentPtr& prev = chain.back();
        if (h.first_lsn != prev->first_lsn + prev->data_size ||
            h.prev_first_lsn != prev->first_lsn) {
          return Status::Corruption("WAL segment " + seg->name +
                                    " breaks the LSN chain");
        }
      }
      seg->first_lsn = h.first_lsn;
      seg->prev_first_lsn = h.prev_first_lsn;

      if (h.sealed_size > 0) {
        // Sealed: the seal was written only after the data was durable, so
        // a file shorter than the sealed extent is real corruption.
        if (seg->file->Size() < kSegmentHeaderSize + h.sealed_size) {
          return Status::Corruption("WAL sealed segment " + seg->name +
                                    " is shorter than its sealed size");
        }
        seg->data_size = h.sealed_size;
        seg->sealed.store(true, std::memory_order_release);
        chain.push_back(std::move(seg));
        continue;
      }

      // Unsealed: must be the tail; scan its frames for the valid prefix.
      if (!last) {
        return Status::Corruption("WAL segment " + seg->name +
                                  " is unsealed below the tail");
      }
      const uint64_t size = seg->file->Size();
      const uint64_t extent = size - kSegmentHeaderSize;
      std::unique_ptr<char[]> buf(new char[extent]);
      s = ReadExtent(seg->file.get(), seg->name, kSegmentHeaderSize, extent,
                     buf.get());
      if (!s.ok()) return s;
      const uint64_t prefix = WalkFrames(buf.get(), extent, [](uint64_t) {});
      if (prefix < extent) {
        // Before discarding the tail as torn, make sure it really is a
        // tail: probe the rest of THIS segment for a CRC-valid frame. A
        // valid frame beyond the damage means mid-segment corruption, and
        // truncating would silently destroy valid (possibly acknowledged)
        // records. The probe stops at the segment boundary — frames in the
        // next segment (there is none here: this is the tail) can never be
        // suppressed by a tear in this one.
        const uint64_t probe = FrameAfter(buf.get(), prefix, extent);
        if (probe < extent) {
          return Status::Corruption(
              "WAL has valid records beyond a corrupt frame at offset " +
              std::to_string(kSegmentHeaderSize + probe) + " of " +
              seg->name + " (mid-segment damage, not a torn tail)");
        }
        open_dropped_bytes_ += extent - prefix;
        seg->file->Truncate(kSegmentHeaderSize + prefix);
      }
      seg->data_size = prefix;
      chain.push_back(std::move(seg));
    }
    {
      std::lock_guard<std::mutex> sg(seg_mu_);
      segments_ = std::move(chain);
    }
    // A sealed tail means rotation crashed between the seal and the
    // successor's creation: finish the rotation now.
    if (TailSegment()->sealed.load()) {
      s = CreateSuccessor(TailSegment());
      if (!s.ok()) return s;
    }
  }

  // Adopt parked recycle files (cap the pool; extras are deleted).
  std::vector<std::string> parked;
  s = env_->ListFiles(base_ + "-recycle.", &parked);
  if (!s.ok()) return s;
  {
    std::lock_guard<std::mutex> sg(seg_mu_);
    for (const std::string& name : parked) {
      std::string tail = name.substr(base_.size() + std::string("-recycle.").size());
      uint64_t k = std::strtoull(tail.c_str(), nullptr, 10);
      if (k + 1 > recycle_seq_) recycle_seq_ = k + 1;
      if (recycle_pool_.size() < opts_.recycle_max) {
        recycle_pool_.push_back(name);
      } else {
        env_->DeleteFile(name);
      }
    }
  }

  SegmentPtr tail = TailSegment();
  next_lsn_ = tail->first_lsn + tail->data_size;
  flushed_lsn_.store(next_lsn_, std::memory_order_release);
  buffer_start_ = next_lsn_ - 1;
  buffer_.clear();
  return Status::OK();
}

LogManager::SegmentPtr LogManager::TailSegment() const {
  std::lock_guard<std::mutex> g(seg_mu_);
  return segments_.back();
}

std::vector<LogManager::SegmentPtr> LogManager::SnapshotSegments() const {
  std::lock_guard<std::mutex> g(seg_mu_);
  return std::vector<SegmentPtr>(segments_.begin(), segments_.end());
}

void LogManager::Append(LogRecord* rec) {
  bool over_limit;
  {
    std::lock_guard<std::mutex> g(mu_);
    std::string body;
    rec->AppendTo(&body);
    rec->lsn = next_lsn_;

    char hdr[kFrameHeader];
    EncodeFixed32(hdr, static_cast<uint32_t>(body.size()));
    EncodeFixed32(hdr + 4,
                  crc32c::Mask(crc32c::Value(body.data(), body.size())));
    buffer_.append(hdr, kFrameHeader);
    buffer_.append(body);

    next_lsn_ += kFrameHeader + body.size();
    bytes_appended_ += kFrameHeader + body.size();
    ++records_appended_;
    type_bytes_[static_cast<size_t>(rec->type) % type_bytes_.size()] +=
        kFrameHeader + body.size();
    over_limit = buffer_.size() > buffer_limit_;
  }
  // The capacity flush runs through the group-commit path with mu_
  // released, so serialization never waits on file I/O. Its error stays
  // with the buffered bytes for the next Flush/FlushTo to report.
  if (over_limit) Flush();
}

void LogManager::set_buffer_limit(size_t bytes) {
  std::lock_guard<std::mutex> g(mu_);
  buffer_limit_ = bytes;
}

Status LogManager::AppendAndFlush(LogRecord* rec) {
  Append(rec);
  return FlushTo(rec->lsn);
}

Status LogManager::Flush() {
  Lsn target;
  {
    std::lock_guard<std::mutex> g(mu_);
    target = next_lsn_ - 1;  // durable through the last appended byte
  }
  return FlushTo(target);
}

Status LogManager::SealSegment(const SegmentPtr& seg) {
  Status s = seg->file->Sync();  // data durable before the seal claims it
  if (!s.ok()) return s;
  SegmentHeader h{seg->seq, seg->first_lsn, seg->prev_first_lsn,
                  seg->data_size};
  char hdr[kSegmentHeaderSize];
  EncodeSegmentHeader(h, hdr);
  s = seg->file->Write(0, Slice(hdr, kSegmentHeaderSize));
  if (s.ok()) s = seg->file->Sync();
  if (!s.ok()) return s;
  seg->sealed.store(true, std::memory_order_release);
  return Status::OK();
}

Status LogManager::CreateSuccessor(const SegmentPtr& sealed_tail) {
  const uint64_t seq = sealed_tail->seq + 1;
  const std::string name = SegmentFileName(base_, seq);
  // Reuse a parked segment when one is available: rename it into place,
  // then overwrite its (durably empty) content with a fresh header. The
  // pool entry is consumed only after the rename succeeded, so a failed
  // rename is retryable without losing the parked file.
  std::string parked;
  {
    std::lock_guard<std::mutex> g(seg_mu_);
    if (!recycle_pool_.empty()) parked = recycle_pool_.front();
  }
  bool recycled = false;
  if (!parked.empty()) {
    Status s = env_->RenameFile(parked, name);
    if (!s.ok()) return s;
    {
      std::lock_guard<std::mutex> g(seg_mu_);
      if (!recycle_pool_.empty() && recycle_pool_.front() == parked) {
        recycle_pool_.pop_front();
      }
    }
    recycled = true;
  }
  auto seg = std::make_shared<Segment>();
  seg->seq = seq;
  seg->first_lsn = sealed_tail->first_lsn + sealed_tail->data_size;
  seg->prev_first_lsn = sealed_tail->first_lsn;
  seg->name = name;
  Status s = env_->NewFile(name, &seg->file);
  if (!s.ok()) return s;
  SegmentHeader h{seq, seg->first_lsn, seg->prev_first_lsn, 0};
  s = WriteFreshHeader(seg->file.get(), h);
  if (s.ok()) s = env_->SyncDir(name);
  if (!s.ok()) return s;
  {
    std::lock_guard<std::mutex> g(seg_mu_);
    segments_.push_back(std::move(seg));
    if (recycled) {
      ++segments_recycled_;
    } else {
      ++segments_created_;
    }
  }
  return Status::OK();
}

Status LogManager::WriteBatch(const std::string& batch, Lsn batch_off,
                              uint64_t* durable_done) {
  *durable_done = 0;
  uint64_t done = 0;  // batch bytes written (possibly still volatile)
  while (done < batch.size()) {
    SegmentPtr tail = TailSegment();
    if (tail->sealed.load(std::memory_order_acquire)) {
      // Resume an interrupted rotation: the tail was sealed but its
      // successor never materialized.
      Status s = CreateSuccessor(tail);
      if (!s.ok()) return s;
      continue;
    }
    // Take as many whole frames as fit in the tail. An oversized frame is
    // allowed alone in an otherwise empty segment (it must go somewhere).
    uint64_t take = 0;
    while (done + take + kFrameHeader <= batch.size()) {
      uint32_t len = DecodeFixed32(batch.data() + done + take);
      uint64_t frame = kFrameHeader + len;
      if (tail->data_size + take + frame > opts_.segment_bytes &&
          !(tail->data_size == 0 && take == 0)) {
        break;
      }
      take += frame;
    }
    if (take == 0) {
      // Nothing fits: seal the tail and rotate. Sealing syncs the data, so
      // everything written so far in this batch becomes durable.
      Status s = SealSegment(tail);
      if (!s.ok()) return s;
      *durable_done = done;
      s = CreateSuccessor(tail);
      if (!s.ok()) return s;
      continue;
    }
    uint64_t file_off =
        kSegmentHeaderSize + (batch_off + done - (tail->first_lsn - 1));
    Status s = tail->file->Write(file_off, Slice(batch.data() + done, take));
    if (!s.ok()) return s;
    done += take;
    // Derived from global offsets (not incremented) so a retried batch that
    // rewrites the same bytes cannot double-count.
    tail->data_size = (batch_off + done) - (tail->first_lsn - 1);
  }
  SegmentPtr tail = TailSegment();
  Status s = tail->file->Sync();
  if (!s.ok()) return s;
  *durable_done = batch.size();
  return Status::OK();
}

Status LogManager::FlushTo(Lsn lsn) {
  // Fast path: already durable. One atomic load — the buffer pool probes
  // this on every page write, so it must never touch a mutex or the file.
  if (lsn < flushed_lsn_.load(std::memory_order_acquire)) return Status::OK();

  std::unique_lock<std::mutex> cl(commit_mu_);
  while (true) {
    if (lsn < flushed_lsn_.load(std::memory_order_acquire)) {
      // A leader's batch covered us while we queued: group commit — we ride
      // its fsync and pay nothing.
      return Status::OK();
    }
    if (!flush_active_) break;
    commit_cv_.wait(cl);
  }
  flush_active_ = true;

  // Leader: steal the whole buffer. Appends continue behind the steal at
  // their already-assigned offsets.
  std::string batch;
  Lsn batch_off = 0;
  {
    std::lock_guard<std::mutex> g(mu_);
    batch.swap(buffer_);
    batch_off = buffer_start_;
    buffer_start_ += batch.size();
  }

  Status s = Status::OK();
  if (!batch.empty()) {
    cl.unlock();  // write+rotate+fsync with no LogManager mutex held
    uint64_t durable_done = 0;
    s = WriteBatch(batch, batch_off, &durable_done);
    cl.lock();
    if (s.ok()) {
      flushed_lsn_.store(batch_off + batch.size() + 1,
                         std::memory_order_release);
      sync_batches_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Splice the not-yet-durable suffix back so the failure is retryable;
      // bytes a mid-batch seal already made durable stay flushed (they sit
      // in finished segments and will never be rewritten), and records
      // appended behind the steal keep their offsets. durable_done is
      // always a frame boundary.
      if (durable_done > 0) {
        flushed_lsn_.store(batch_off + durable_done + 1,
                           std::memory_order_release);
        sync_batches_.fetch_add(1, std::memory_order_relaxed);
      }
      std::lock_guard<std::mutex> g(mu_);
      buffer_.insert(0, batch.substr(durable_done));
      buffer_start_ -= (batch.size() - durable_done);
    }
  }
  flush_active_ = false;
  commit_cv_.notify_all();
  return s;
}

Status LogManager::TruncateBelow(Lsn floor) {
  std::vector<SegmentPtr> victims;
  {
    std::lock_guard<std::mutex> g(seg_mu_);
    // Oldest-first, never the tail (also guards the rotation window where
    // the back segment is transiently sealed before its successor's push).
    while (segments_.size() > 1) {
      const SegmentPtr& s0 = segments_.front();
      if (!s0->sealed.load(std::memory_order_acquire)) break;
      if (s0->first_lsn + s0->data_size > floor) break;
      victims.push_back(s0);
      segments_.pop_front();
    }
  }
  Status s;
  for (const SegmentPtr& v : victims) {
    // v->file stays open: a concurrent ReadAll snapshot may still hold this
    // segment. Renaming/deleting under an open handle is safe in both Envs;
    // such a reader can only be scanning below the floor, which no caller
    // of a safe floor ever needs.
    bool park;
    {
      std::lock_guard<std::mutex> g(seg_mu_);
      park = recycle_pool_.size() < opts_.recycle_max;
    }
    if (park) {
      // Rename first (removing the name from the segment namespace keeps
      // the surviving seq range contiguous under any crash), then durably
      // empty the parked file so a later reuse can't resurrect stale
      // frames. A crash between the two leaves a stale recycle file, which
      // the reuse path (fresh header + sync) and Open's stale-tail check
      // both tolerate.
      std::string parked_name;
      {
        std::lock_guard<std::mutex> g(seg_mu_);
        parked_name = RecycleFileName(base_, recycle_seq_++);
      }
      s = env_->RenameFile(v->name, parked_name);
      if (!s.ok()) return s;
      std::unique_ptr<File> f;
      s = env_->NewFile(parked_name, &f);
      if (s.ok()) s = f->Truncate(0);
      if (s.ok()) s = f->Sync();
      if (!s.ok()) return s;
      std::lock_guard<std::mutex> g(seg_mu_);
      recycle_pool_.push_back(parked_name);
      ++segments_truncated_;
    } else {
      s = env_->DeleteFile(v->name);
      if (!s.ok()) return s;
      std::lock_guard<std::mutex> g(seg_mu_);
      ++segments_truncated_;
    }
  }
  if (!victims.empty()) s = env_->SyncDir(base_);
  return s;
}

Lsn LogManager::NextLsn() const {
  std::lock_guard<std::mutex> g(mu_);
  return next_lsn_;
}

Lsn LogManager::FlushedLsn() const {
  return flushed_lsn_.load(std::memory_order_acquire);
}

Lsn LogManager::LowestLsn() const {
  std::lock_guard<std::mutex> g(seg_mu_);
  return segments_.empty() ? kInvalidLsn : segments_.front()->first_lsn;
}

Status LogManager::Scan(Lsn start_lsn, LogFrames* out,
                        LogReadStats* stats) const {
  // The file range [from, limit) each segment from the start on
  // contributes. Segment data is contiguous in LSN space, so all of it
  // lands in one buffer, each frame at its LSN's distance from the start.
  struct Extent {
    const Segment* seg;
    bool last;
    uint64_t from, limit;
    uint64_t global_from;  // 0-based global data offset of file byte `from`
  };
  const std::vector<SegmentPtr> segs = SnapshotSegments();
  std::vector<Extent> extents;
  uint64_t total_end = 0;  // 0-based global data offset of the log's end
  for (size_t i = 0; i < segs.size(); ++i) {
    const Segment& seg = *segs[i];
    const uint64_t fsize = seg.file->Size();
    // Sealed extents are authoritative from the header; the tail's extent
    // is whatever has been written (a racing in-flight frame CRC-fails and
    // reads as a torn tail, same as the single-file log).
    const uint64_t extent =
        seg.sealed.load(std::memory_order_acquire)
            ? seg.data_size
            : (fsize > kSegmentHeaderSize ? fsize - kSegmentHeaderSize : 0);
    const uint64_t seg_begin = seg.first_lsn - 1;  // 0-based global
    total_end = seg_begin + extent;
    if (start_lsn != 0 && start_lsn - 1 >= seg_begin + extent) {
      continue;  // wholly below the requested start
    }
    const uint64_t skip =
        start_lsn != 0 && start_lsn - 1 > seg_begin ? start_lsn - 1 - seg_begin
                                                    : 0;
    // A sealed segment shorter than its extent reads as damage.
    extents.push_back({&seg, i + 1 == segs.size(), kSegmentHeaderSize + skip,
                       std::min(kSegmentHeaderSize + extent, fsize),
                       seg_begin + skip});
  }

  out->lsns_.clear();
  out->base_ = extents.empty() ? 0 : extents.front().global_from;
  uint64_t buffer_size = 0;
  for (const Extent& e : extents) {
    if (e.limit > e.from) {
      buffer_size = e.global_from + (e.limit - e.from) - out->base_;
    }
  }
  out->bytes_.reset(new char[buffer_size]);

  uint64_t segments_scanned = 0;
  uint64_t valid_end = 0;  // 0-based global data offset of the valid prefix end
  bool bad_frame = false;
  bool mid_log = false;
  for (const Extent& e : extents) {
    if (bad_frame) {
      // Damage was found in an earlier segment but this one still exists:
      // the log has (or had) content beyond the tear — that is mid-log
      // damage, not a torn tail.
      mid_log = true;
      continue;
    }
    ++segments_scanned;
    const uint64_t n = e.limit > e.from ? e.limit - e.from : 0;
    char* buf = out->bytes_.get() + (e.global_from - out->base_);
    Status s = ReadExtent(e.seg->file.get(), e.seg->name, e.from, n, buf);
    if (!s.ok()) return s;
    const uint64_t valid = WalkFrames(buf, n, [&](uint64_t off) {
      out->lsns_.push_back(e.global_from + off + 1);
    });
    valid_end = e.global_from + valid;
    if (valid < n) {
      bad_frame = true;
      // Probe the rest of THIS segment only: the probe never crosses the
      // segment boundary — frames starting the next segment are judged by
      // the segment chain itself (the branch above), so a torn tail here
      // can never suppress them. Damage inside a sealed segment is never a
      // tail: the seal promised the data was durable.
      if (FrameAfter(buf, valid, n) < n || !e.last ||
          e.seg->sealed.load(std::memory_order_acquire)) {
        mid_log = true;
      }
    }
  }

  if (stats != nullptr) {
    stats->records_read = out->size();
    stats->valid_bytes = bad_frame ? valid_end : total_end;
    stats->dropped_bytes = total_end > valid_end && bad_frame
                               ? total_end - valid_end
                               : 0;
    stats->segments_scanned = segments_scanned;
    stats->torn_tail = bad_frame;
    stats->mid_log_corruption = mid_log;
  }
  return Status::OK();
}

Status LogManager::ReadAll(std::vector<LogRecord>* out, Lsn start_lsn,
                           LogReadStats* stats) const {
  LogFrames frames;
  Status s = Scan(start_lsn, &frames, stats);
  if (!s.ok()) return s;
  out->reserve(out->size() + frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    LogRecord rec;
    s = frames.Parse(i, &rec);
    if (!s.ok()) return s;
    out->push_back(std::move(rec));
  }
  return Status::OK();
}

Status LogManager::ReadAt(Lsn lsn, LogRecord* rec) const {
  if (lsn == kInvalidLsn) return Status::NotFound("invalid lsn");
  std::vector<SegmentPtr> segs = SnapshotSegments();
  if (segs.empty()) return Status::NotFound("log not open");
  if (lsn < segs.front()->first_lsn) {
    return Status::NotFound("lsn below the truncated log start");
  }
  // Last segment whose first_lsn <= lsn holds the frame.
  const SegmentPtr* holder = &segs.front();
  for (const SegmentPtr& seg : segs) {
    if (seg->first_lsn <= lsn) holder = &seg;
  }
  const File* file = (*holder)->file.get();
  const uint64_t off = kSegmentHeaderSize + (lsn - (*holder)->first_lsn);
  // One read of a window that holds most frames whole; a longer frame
  // reads the rest in a second.
  std::string buf(4096, '\0');
  uint64_t got = 0;
  Status s = ReadRange(file, off, buf.size(), buf.data(), &got);
  if (!s.ok()) return s;
  if (got < kFrameHeader) return Status::NotFound("lsn past end of log");
  const uint64_t frame = kFrameHeader + DecodeFixed32(buf.data());
  if (frame > got) {
    // The length was read from the file: bound it by the file before it
    // sizes a buffer.
    if (off + frame > file->Size()) {
      return Status::Corruption("truncated record");
    }
    buf.resize(frame);
    uint64_t more = 0;
    s = ReadRange(file, off + got, frame - got, buf.data() + got, &more);
    if (!s.ok()) return s;
    got += more;
  }
  if (got < frame) return Status::Corruption("truncated record");
  if (!FrameAt(buf.data(), frame)) return Status::Corruption("crc mismatch");
  s = LogRecord::Parse(
      Slice(buf.data() + kFrameHeader, frame - kFrameHeader), rec);
  if (!s.ok()) return s;
  rec->lsn = lsn;
  return Status::OK();
}

uint64_t LogManager::bytes_appended() const {
  std::lock_guard<std::mutex> g(mu_);
  return bytes_appended_;
}

uint64_t LogManager::records_appended() const {
  std::lock_guard<std::mutex> g(mu_);
  return records_appended_;
}

uint64_t LogManager::bytes_for_type(LogType t) const {
  std::lock_guard<std::mutex> g(mu_);
  return type_bytes_[static_cast<size_t>(t) % type_bytes_.size()];
}

uint64_t LogManager::sync_batches() const {
  return sync_batches_.load(std::memory_order_relaxed);
}

uint64_t LogManager::open_dropped_bytes() const {
  std::lock_guard<std::mutex> g(mu_);
  return open_dropped_bytes_;
}

void LogManager::ResetStats() {
  std::lock_guard<std::mutex> g(mu_);
  bytes_appended_ = 0;
  records_appended_ = 0;
  type_bytes_.fill(0);
  sync_batches_.store(0, std::memory_order_relaxed);
}

size_t LogManager::segment_count() const {
  std::lock_guard<std::mutex> g(seg_mu_);
  return segments_.size();
}

uint64_t LogManager::tail_segment_seq() const {
  std::lock_guard<std::mutex> g(seg_mu_);
  return segments_.empty() ? 0 : segments_.back()->seq;
}

std::string LogManager::tail_segment_name() const {
  std::lock_guard<std::mutex> g(seg_mu_);
  return segments_.empty() ? std::string() : segments_.back()->name;
}

size_t LogManager::recycle_pool_size() const {
  std::lock_guard<std::mutex> g(seg_mu_);
  return recycle_pool_.size();
}

uint64_t LogManager::segments_created() const {
  std::lock_guard<std::mutex> g(seg_mu_);
  return segments_created_;
}

uint64_t LogManager::segments_recycled() const {
  std::lock_guard<std::mutex> g(seg_mu_);
  return segments_recycled_;
}

uint64_t LogManager::segments_truncated() const {
  std::lock_guard<std::mutex> g(seg_mu_);
  return segments_truncated_;
}

}  // namespace soreorg
