#include "perfbench/src/envs.h"

#include "perfbench/src/trace.h"

namespace perfbench {

using soreorg::File;
using soreorg::Slice;
using soreorg::Status;

namespace {

class DataDirFile : public File {
 public:
  DataDirFile(DataDirEnv* env, std::unique_ptr<File> base)
      : env_(env), base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, char* buf,
              size_t* out_n) const override {
    return base_->Read(offset, n, buf, out_n);
  }
  Status Write(uint64_t offset, const Slice& data) override {
    if (env_->crashed()) return Status::OK();
    return base_->Write(offset, data);
  }
  Status Append(const Slice& data) override {
    if (env_->crashed()) return Status::OK();
    return base_->Append(data);
  }
  Status Sync() override {
    env_->CountSync();
    return Status::OK();
  }
  uint64_t Size() const override { return base_->Size(); }
  Status Truncate(uint64_t size) override {
    if (env_->crashed()) return Status::OK();
    return base_->Truncate(size);
  }

 private:
  DataDirEnv* env_;
  std::unique_ptr<File> base_;
};

class TimingFile : public File {
 public:
  TimingFile(IoStats* stats, FileClass cls, std::unique_ptr<File> base)
      : stats_(stats), cls_(cls), base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, char* buf,
              size_t* out_n) const override {
    const uint64_t t0 = NowNs();
    Status s = base_->Read(offset, n, buf, out_n);
    Done(IoOp::kRead, s.ok() ? *out_n : 0, t0);
    return s;
  }
  Status Write(uint64_t offset, const Slice& data) override {
    const uint64_t t0 = NowNs();
    Status s = base_->Write(offset, data);
    Done(IoOp::kWrite, data.size(), t0);
    return s;
  }
  Status Append(const Slice& data) override {
    const uint64_t t0 = NowNs();
    Status s = base_->Append(data);
    Done(IoOp::kAppend, data.size(), t0);
    return s;
  }
  Status Sync() override {
    const uint64_t t0 = NowNs();
    Status s = base_->Sync();
    Done(IoOp::kSync, 0, t0);
    return s;
  }
  uint64_t Size() const override { return base_->Size(); }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }

 private:
  void Done(IoOp op, uint64_t bytes, uint64_t t0) const {
    const uint64_t t1 = NowNs();
    stats_->Record(cls_, op, bytes, t1 - t0);
    AddLeafSpan(IoSpanName(cls_, op), t0, t1);
  }

  IoStats* stats_;
  FileClass cls_;
  std::unique_ptr<File> base_;
};

}  // namespace

Status DataDirEnv::NewFile(const std::string& name,
                           std::unique_ptr<File>* file) {
  std::unique_ptr<File> base;
  Status s = base_->NewFile(name, &base);
  if (!s.ok()) return s;
  *file = std::make_unique<DataDirFile>(this, std::move(base));
  return Status::OK();
}

Status DataDirEnv::DeleteFile(const std::string& name) {
  if (crashed()) return Status::OK();
  return base_->DeleteFile(name);
}

Status DataDirEnv::RenameFile(const std::string& from, const std::string& to) {
  if (crashed()) return Status::OK();
  return base_->RenameFile(from, to);
}

FileClass ClassifyFile(const std::string& name) {
  if (name.size() >= 6 && name.compare(name.size() - 6, 6, ".pages") == 0) {
    return FileClass::kPages;
  }
  if (soreorg::WalAwareSuffixMatch(name, ".wal") ||
      name.find(".wal-recycle.") != std::string::npos) {
    return FileClass::kWal;
  }
  return FileClass::kOther;
}

const char* IoSpanName(FileClass c, IoOp op) {
  static const char* const kNames[kFileClasses][kIoOps] = {
      {"storage.read", "storage.write", "storage.append", "storage.sync"},
      {"wal.read", "wal.write", "wal.append", "wal.sync"},
      {"other.read", "other.write", "other.append", "other.sync"},
  };
  return kNames[static_cast<int>(c)][static_cast<int>(op)];
}

void IoStats::Record(FileClass c, IoOp op, uint64_t bytes, uint64_t ns) {
  std::lock_guard<std::mutex> g(mu_);
  Cell& cell = cur_.cells[static_cast<int>(c)][static_cast<int>(op)];
  ++cell.calls;
  cell.bytes += bytes;
  cell.ns += ns;
  cur_.latency[static_cast<int>(c) * kIoOps + static_cast<int>(op)].Record(ns);
}

IoStats::Snapshot IoStats::Take() {
  Snapshot fresh;
  fresh.latency.resize(kFileClasses * kIoOps);
  std::lock_guard<std::mutex> g(mu_);
  std::swap(fresh, cur_);
  return fresh;
}

Status TimingEnv::NewFile(const std::string& name,
                          std::unique_ptr<File>* file) {
  std::unique_ptr<File> base;
  Status s = base_->NewFile(name, &base);
  if (!s.ok()) return s;
  *file = std::make_unique<TimingFile>(stats_, ClassifyFile(name),
                                       std::move(base));
  return Status::OK();
}

Status TimingEnv::SyncDir(const std::string& hint) {
  const uint64_t t0 = NowNs();
  Status s = base_->SyncDir(hint);
  const uint64_t t1 = NowNs();
  stats_->Record(FileClass::kOther, IoOp::kSync, 0, t1 - t0);
  AddLeafSpan(IoSpanName(FileClass::kOther, IoOp::kSync), t0, t1);
  return s;
}

}  // namespace perfbench
