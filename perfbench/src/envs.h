// The benchmark's Env decorators over soreorg::PosixEnv.
//
// DataDirEnv is used by every run. The benchmark may write only inside its
// own checkout, which sits on whatever file system the host gives it; a
// device fsync there costs (and varies) far more than the engine does, so
// Sync and SyncDir are counted but not sent to the device — what tmpfs,
// where fsync is a no-op, would give. Every Write/Append still reaches the
// file, so a crash has process-kill semantics: Crash() drops every mutation
// from then on, which lets a Database be destroyed without its closing flush
// reaching the files, exactly as if the process had been killed.
//
// TimingEnv is used only by the traced run. It passes every call through
// unchanged, timing reads, writes, appends and syncs, with their bytes,
// separately for the page file and the WAL segments, and attaches each call
// as a child span of the calling thread's current span (see trace.h).

#ifndef PERFBENCH_ENVS_H_
#define PERFBENCH_ENVS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/src/histogram.h"
#include "src/storage/env.h"

namespace perfbench {

class DataDirEnv : public soreorg::Env {
 public:
  explicit DataDirEnv(soreorg::Env* base) : base_(base) {}

  soreorg::Status NewFile(const std::string& name,
                          std::unique_ptr<soreorg::File>* file) override;
  bool FileExists(const std::string& name) const override {
    return base_->FileExists(name);
  }
  soreorg::Status DeleteFile(const std::string& name) override;
  soreorg::Status ListFiles(const std::string& prefix,
                            std::vector<std::string>* out) const override {
    return base_->ListFiles(prefix, out);
  }
  soreorg::Status RenameFile(const std::string& from,
                             const std::string& to) override;
  soreorg::Status SyncDir(const std::string&) override {
    syncs_.fetch_add(1, std::memory_order_relaxed);
    return soreorg::Status::OK();
  }

  /// From now on every write, append, truncate, rename and delete is
  /// dropped (reported OK): the files keep what was written before.
  void Crash() { crashed_.store(true); }
  /// Let mutations through again (before reopening after a Crash).
  void Revive() { crashed_.store(false); }
  bool crashed() const { return crashed_.load(std::memory_order_relaxed); }

  /// Sync + SyncDir calls received (none reach the device).
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }
  void CountSync() { syncs_.fetch_add(1, std::memory_order_relaxed); }

 private:
  soreorg::Env* base_;
  std::atomic<bool> crashed_{false};
  std::atomic<uint64_t> syncs_{0};
};

/// Which file an I/O call went to.
enum class FileClass { kPages = 0, kWal = 1, kOther = 2 };
enum class IoOp { kRead = 0, kWrite = 1, kAppend = 2, kSync = 3 };
constexpr int kFileClasses = 3;
constexpr int kIoOps = 4;

FileClass ClassifyFile(const std::string& name);
const char* IoSpanName(FileClass c, IoOp op);

/// Counts, bytes and time per (file class, op) since the last Take().
/// Thread-safe.
class IoStats {
 public:
  struct Cell {
    uint64_t calls = 0;
    uint64_t bytes = 0;
    uint64_t ns = 0;
  };
  struct Snapshot {
    Cell cells[kFileClasses][kIoOps];
    std::vector<Histogram> latency;  // [class * kIoOps + op]
    const Cell& at(FileClass c, IoOp op) const {
      return cells[static_cast<int>(c)][static_cast<int>(op)];
    }
    const Histogram& lat(FileClass c, IoOp op) const {
      return latency[static_cast<int>(c) * kIoOps + static_cast<int>(op)];
    }
  };

  IoStats() { cur_.latency.resize(kFileClasses * kIoOps); }
  void Record(FileClass c, IoOp op, uint64_t bytes, uint64_t ns);
  /// Everything recorded since the previous Take(); starts a new interval.
  Snapshot Take();

 private:
  std::mutex mu_;
  Snapshot cur_;
};

class TimingEnv : public soreorg::Env {
 public:
  TimingEnv(soreorg::Env* base, IoStats* stats) : base_(base), stats_(stats) {}

  soreorg::Status NewFile(const std::string& name,
                          std::unique_ptr<soreorg::File>* file) override;
  bool FileExists(const std::string& name) const override {
    return base_->FileExists(name);
  }
  soreorg::Status DeleteFile(const std::string& name) override {
    return base_->DeleteFile(name);
  }
  soreorg::Status ListFiles(const std::string& prefix,
                            std::vector<std::string>* out) const override {
    return base_->ListFiles(prefix, out);
  }
  soreorg::Status RenameFile(const std::string& from,
                             const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  soreorg::Status SyncDir(const std::string& hint) override;

 private:
  soreorg::Env* base_;
  IoStats* stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ENVS_H_
