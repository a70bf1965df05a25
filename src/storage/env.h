// Env: the file-system abstraction under the DiskManager and LogManager.
//
// Two implementations:
//  - PosixEnv: real files, for durable databases on disk.
//  - MemEnv:   in-memory files with *crash semantics*: writes land in a
//    volatile image; Sync() promotes the file to a durable image; Crash()
//    rolls every file back to its durable image. This is how the test suite
//    and the forward-recovery benchmarks simulate "system failure" while
//    exercising the exact WAL / careful-writing code paths a real disk would.
//    FaultInjectionEnv (fault_env.h) wraps a MemEnv to fail or tear the N-th
//    write, append, sync, rename, directory sync or delete.

#ifndef SOREORG_STORAGE_ENV_H_
#define SOREORG_STORAGE_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/slice.h"
#include "src/util/status.h"

namespace soreorg {

class File {
 public:
  virtual ~File() = default;

  /// Read up to n bytes at offset into buf; *out_n gets the count actually
  /// read (short reads at EOF are not errors).
  virtual Status Read(uint64_t offset, size_t n, char* buf,
                      size_t* out_n) const = 0;

  /// Write data at offset, extending the file if needed.
  virtual Status Write(uint64_t offset, const Slice& data) = 0;

  /// Append data at the current end of file.
  virtual Status Append(const Slice& data) = 0;

  /// Make all previous writes durable.
  virtual Status Sync() = 0;

  virtual uint64_t Size() const = 0;

  /// Shrink the file to `size` bytes.
  virtual Status Truncate(uint64_t size) = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  /// Open (creating if absent) a read-write file.
  virtual Status NewFile(const std::string& name,
                         std::unique_ptr<File>* file) = 0;
  virtual bool FileExists(const std::string& name) const = 0;
  virtual Status DeleteFile(const std::string& name) = 0;

  /// Names of all existing files starting with `prefix`, sorted. The
  /// segmented WAL uses this to discover surviving segments on Open.
  virtual Status ListFiles(const std::string& prefix,
                           std::vector<std::string>* out) const = 0;

  /// Atomically rename `from` to `to`, replacing `to` if it exists. The
  /// caller is responsible for the SyncDir that makes the rename durable.
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;

  /// Make directory-level metadata (creates, deletes, renames) durable for
  /// the directory containing `hint` (a file path; the directory component
  /// is fsynced). The segment rotation protocol calls this after every
  /// create/recycle so a crash never observes a seq gap.
  virtual Status SyncDir(const std::string& hint) = 0;
};

/// Suffix match that also recognizes numbered WAL segments: `name` matches
/// `suffix` if it ends with `suffix` (legacy single-file logs, page files)
/// or with `suffix` + "." + <digits> (segment files like "db.wal.000017").
/// Recycle-pool files ("db.wal-recycle.0") deliberately do NOT match — they
/// hold no live log. Empty suffix matches everything.
bool WalAwareSuffixMatch(const std::string& name, const std::string& suffix);

/// In-memory Env with crash simulation. Thread-safe.
class MemEnv : public Env {
 public:
  MemEnv() = default;

  Status NewFile(const std::string& name,
                 std::unique_ptr<File>* file) override;
  bool FileExists(const std::string& name) const override;
  Status DeleteFile(const std::string& name) override;
  Status ListFiles(const std::string& prefix,
                   std::vector<std::string>* out) const override;
  /// Modeled as durable-immediately (the rotation protocol always SyncDirs
  /// right after, and the crash-just-before case is covered by
  /// FaultInjectionEnv failing the rename op itself).
  Status RenameFile(const std::string& from, const std::string& to) override;
  /// No-op — MemEnv metadata is always durable.
  Status SyncDir(const std::string& hint) override;

  /// Simulate a system failure: discard all un-synced writes. Open File
  /// handles remain usable and see durable state.
  void Crash();

  /// Promote bytes [offset, offset+n) of `name`'s volatile image into the
  /// durable image, extending it if needed, without a full Sync(). This is
  /// the torn-write primitive: FaultInjectionEnv uses it to model a power
  /// cut that persisted only a prefix of a page write — the prefix must
  /// survive the subsequent Crash() or the tear would be invisible.
  Status SyncRange(const std::string& name, uint64_t offset, size_t n);

  /// Total bytes synced across all files (for I/O accounting in benches).
  uint64_t bytes_synced() const;

  /// Number of Sync() calls across all files — the "fsync count" oracle for
  /// the group-commit tests (N concurrent commits should cost ~1 sync).
  uint64_t sync_count() const;

  // Implementation details, public for the MemFile helper in env.cc.
  struct FileState {
    std::string durable;
    std::string volatile_image;
    bool exists = true;
  };

  uint64_t bytes_synced_ = 0;
  uint64_t sync_count_ = 0;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<FileState>> files_;
};

/// Real files via POSIX pread/pwrite/fsync.
class PosixEnv : public Env {
 public:
  Status NewFile(const std::string& name,
                 std::unique_ptr<File>* file) override;
  bool FileExists(const std::string& name) const override;
  Status DeleteFile(const std::string& name) override;
  Status ListFiles(const std::string& prefix,
                   std::vector<std::string>* out) const override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status SyncDir(const std::string& hint) override;
};

}  // namespace soreorg

#endif  // SOREORG_STORAGE_ENV_H_
