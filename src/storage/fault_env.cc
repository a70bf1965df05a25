#include "src/storage/fault_env.h"

#include <algorithm>
#include <string_view>
#include <utility>

namespace soreorg {

namespace {

class FaultFile : public File {
 public:
  FaultFile(FaultInjectionEnv* env, std::string name,
            std::unique_ptr<File> base)
      : env_(env), name_(std::move(name)), base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, char* buf,
              size_t* out_n) const override {
    bool fail = false;
    size_t cap = env_->OnRead(name_, n, &fail);
    if (fail) return Status::IOError("injected fault on read of " + name_);
    Status s = base_->Read(offset, n, buf, out_n);
    if (s.ok() && *out_n > cap) *out_n = cap;
    return s;
  }

  Status Write(uint64_t offset, const Slice& data) override {
    FaultInjectionEnv::WriteDecision d =
        env_->OnWriteLikeOp(name_, "write", data.size());
    switch (d.action) {
      case FaultInjectionEnv::WriteDecision::kProceed:
        return base_->Write(offset, data);
      case FaultInjectionEnv::WriteDecision::kFail:
        return Status::IOError("injected fault on write to " + name_);
      case FaultInjectionEnv::WriteDecision::kTear:
        return env_->PersistTornPrefix(name_, offset, data, d.keep_bytes);
    }
    return Status::IOError("unreachable");
  }

  Status Append(const Slice& data) override {
    FaultInjectionEnv::WriteDecision d =
        env_->OnWriteLikeOp(name_, "append", data.size());
    switch (d.action) {
      case FaultInjectionEnv::WriteDecision::kProceed:
        return base_->Append(data);
      case FaultInjectionEnv::WriteDecision::kFail:
        return Status::IOError("injected fault on append to " + name_);
      case FaultInjectionEnv::WriteDecision::kTear:
        return env_->PersistTornPrefix(name_, base_->Size(), data,
                                       d.keep_bytes);
    }
    return Status::IOError("unreachable");
  }

  Status Sync() override {
    FaultInjectionEnv::WriteDecision d = env_->OnWriteLikeOp(name_, "sync", 0);
    if (d.action != FaultInjectionEnv::WriteDecision::kProceed) {
      return Status::IOError("injected fault on sync of " + name_);
    }
    return base_->Sync();
  }

  uint64_t Size() const override { return base_->Size(); }

  Status Truncate(uint64_t size) override { return base_->Truncate(size); }

 private:
  FaultInjectionEnv* env_;
  std::string name_;
  std::unique_ptr<File> base_;
};

}  // namespace

Status FaultInjectionEnv::NewFile(const std::string& name,
                                  std::unique_ptr<File>* file) {
  std::unique_ptr<File> base_file;
  Status s = base_->NewFile(name, &base_file);
  if (!s.ok()) return s;
  *file = std::make_unique<FaultFile>(this, name, std::move(base_file));
  return Status::OK();
}

bool FaultInjectionEnv::FileExists(const std::string& name) const {
  return base_->FileExists(name);
}

Status FaultInjectionEnv::DeleteFile(const std::string& name) {
  WriteDecision d = OnWriteLikeOp(name, "delete", 0);
  if (d.action != WriteDecision::kProceed) {
    return Status::IOError("injected fault on delete of " + name);
  }
  return base_->DeleteFile(name);
}

Status FaultInjectionEnv::ListFiles(const std::string& prefix,
                                    std::vector<std::string>* out) const {
  return base_->ListFiles(prefix, out);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  WriteDecision d = OnWriteLikeOp(to, "rename", 0);
  if (d.action != WriteDecision::kProceed) {
    return Status::IOError("injected fault on rename to " + to);
  }
  return base_->RenameFile(from, to);
}

Status FaultInjectionEnv::SyncDir(const std::string& hint) {
  WriteDecision d = OnWriteLikeOp(hint, "dirsync", 0);
  if (d.action != WriteDecision::kProceed) {
    return Status::IOError("injected fault on dirsync of " + hint);
  }
  return base_->SyncDir(hint);
}

void FaultInjectionEnv::Arm(FaultSpec spec) {
  std::lock_guard<std::mutex> g(mu_);
  spec_ = std::move(spec);
  observed_ = 0;
  fired_ = false;
}

void FaultInjectionEnv::FailOpAfter(int n, const std::string& suffix,
                                    const std::string& op, bool transient) {
  FaultSpec spec;
  spec.kind = FaultKind::kFailOp;
  spec.file_suffix = suffix;
  spec.op = op;
  spec.countdown = n;
  spec.transient = transient;
  Arm(std::move(spec));
}

void FaultInjectionEnv::TearWriteAfter(int n, const std::string& suffix,
                                       size_t keep_bytes) {
  FaultSpec spec;
  spec.kind = FaultKind::kTornWrite;
  spec.file_suffix = suffix;
  spec.op = "write";
  spec.countdown = n;
  spec.keep_bytes = keep_bytes;
  Arm(std::move(spec));
}

void FaultInjectionEnv::ShortReadAfter(int n, const std::string& suffix,
                                       size_t keep_bytes) {
  FaultSpec spec;
  spec.kind = FaultKind::kShortRead;
  spec.file_suffix = suffix;
  spec.countdown = n;
  spec.keep_bytes = keep_bytes;
  Arm(std::move(spec));
}

void FaultInjectionEnv::FailReadAfter(int n, const std::string& suffix) {
  FaultSpec spec;
  spec.kind = FaultKind::kFailRead;
  spec.file_suffix = suffix;
  spec.countdown = n;
  Arm(std::move(spec));
}

void FaultInjectionEnv::ObserveOnly(const std::string& suffix,
                                    const std::string& op) {
  FaultSpec spec;
  spec.kind = FaultKind::kNone;
  spec.file_suffix = suffix;
  spec.op = op;
  Arm(std::move(spec));
}

void FaultInjectionEnv::Disarm() {
  std::lock_guard<std::mutex> g(mu_);
  spec_ = FaultSpec();
}

void FaultInjectionEnv::Crash() {
  base_->Crash();
  std::lock_guard<std::mutex> g(mu_);
  down_ = false;
  spec_ = FaultSpec();
}

bool FaultInjectionEnv::fault_fired() const {
  std::lock_guard<std::mutex> g(mu_);
  return fired_;
}

uint64_t FaultInjectionEnv::ops_observed() const {
  std::lock_guard<std::mutex> g(mu_);
  return observed_;
}

bool FaultInjectionEnv::down() const {
  std::lock_guard<std::mutex> g(mu_);
  return down_;
}

bool FaultInjectionEnv::Matches(const std::string& name,
                                const char* op) const {
  if (!WalAwareSuffixMatch(name, spec_.file_suffix)) return false;
  if (spec_.op.empty()) return true;
  // "write" covers both positional writes and appends: each puts bytes on
  // the platter and can tear (the WAL only ever appends).
  if (spec_.op == "write") {
    return std::string_view(op) == "write" || std::string_view(op) == "append";
  }
  return spec_.op == op;
}

FaultInjectionEnv::WriteDecision FaultInjectionEnv::OnWriteLikeOp(
    const std::string& name, const char* op, size_t n) {
  (void)n;
  WriteDecision d;
  std::lock_guard<std::mutex> g(mu_);
  if (down_) {
    d.action = WriteDecision::kFail;
    return d;
  }
  if (spec_.kind == FaultKind::kShortRead ||
      spec_.kind == FaultKind::kFailRead || !Matches(name, op)) {
    return d;
  }
  ++observed_;
  if (spec_.kind == FaultKind::kNone || spec_.countdown < 0 ||
      observed_ != static_cast<uint64_t>(spec_.countdown)) {
    return d;
  }
  fired_ = true;
  if (spec_.kind == FaultKind::kTornWrite) {
    d.action = WriteDecision::kTear;
    d.keep_bytes = spec_.keep_bytes;
    down_ = true;  // power is lost mid-write; later ops fail until Crash()
  } else {
    d.action = WriteDecision::kFail;
    if (spec_.transient) {
      spec_ = FaultSpec();  // one-shot: auto-disarm so the retry proceeds
    } else {
      down_ = true;
    }
  }
  return d;
}

size_t FaultInjectionEnv::OnRead(const std::string& name, size_t n,
                                 bool* fail) {
  std::lock_guard<std::mutex> g(mu_);
  if ((spec_.kind != FaultKind::kShortRead &&
       spec_.kind != FaultKind::kFailRead) ||
      !WalAwareSuffixMatch(name, spec_.file_suffix)) {
    return SIZE_MAX;
  }
  ++observed_;
  if (spec_.countdown < 0 ||
      observed_ != static_cast<uint64_t>(spec_.countdown)) {
    return SIZE_MAX;
  }
  fired_ = true;
  if (spec_.kind == FaultKind::kFailRead) {
    *fail = true;
    return 0;
  }
  size_t cap = spec_.keep_bytes;
  if (spec_.transient) spec_ = FaultSpec();
  return cap < n ? cap : n;
}

Status FaultInjectionEnv::PersistTornPrefix(const std::string& name,
                                            uint64_t offset, const Slice& data,
                                            size_t keep_bytes) {
  size_t keep = std::min(keep_bytes, data.size());
  // Land the prefix in the volatile image, then promote exactly those bytes
  // to the durable image: the platter finished part of the sector before the
  // power cut, so the prefix must survive the Crash() that follows.
  std::unique_ptr<File> f;
  Status s = base_->NewFile(name, &f);
  if (s.ok() && keep > 0) s = f->Write(offset, Slice(data.data(), keep));
  if (s.ok() && keep > 0) s = base_->SyncRange(name, offset, keep);
  if (!s.ok()) return s;
  return Status::IOError("injected torn write to " + name + " (kept " +
                         std::to_string(keep) + " of " +
                         std::to_string(data.size()) + " bytes)");
}

}  // namespace soreorg
