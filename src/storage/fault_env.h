// FaultInjectionEnv: an Env decorator that injects deterministic I/O faults
// for the crash-torture harness and the recovery tests.
//
// Faults are armed by (file-suffix, op) filter plus a 1-based countdown over
// the matching operations, so a test can say "fail the 3rd sync of the WAL"
// or "tear the 7th page write after 1000 bytes" and replay the exact same
// fault on every run. Supported faults:
//
//  - FailOpAfter:   the Nth matching write/append/sync fails. Sticky by
//    default (the env goes "down": every later write-like op fails until
//    Crash(), like a machine that lost power), or transient (that one op
//    fails, later ops proceed — models a retryable fsync error, which the
//    WAL group-commit failure path must survive).
//  - TearWriteAfter: the Nth matching write persists only a keep_bytes
//    prefix — the prefix is promoted into MemEnv's durable image (a power
//    cut mid-sector leaves the sector half-written on the platter) — and
//    the env goes down.
//  - ShortReadAfter: the Nth matching read returns at most keep_bytes.
//  - FailReadAfter: the Nth matching read fails; later reads proceed.
//
// Crash() drops all un-synced writes (delegating to the wrapped MemEnv) and
// brings the env back up, so a test can crash, reopen, and recover.
//
// ops_observed() counts the operations matching the current filter; a
// counting pass with ObserveOnly() sizes a crash-point sweep ("how many I/O
// points does one reorganization have?") before the faulting passes replay
// it point by point.

#ifndef SOREORG_STORAGE_FAULT_ENV_H_
#define SOREORG_STORAGE_FAULT_ENV_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "src/storage/env.h"

namespace soreorg {

class FaultInjectionEnv : public Env {
 public:
  enum class FaultKind {
    kNone,       // observe/count only, never fire
    kFailOp,     // fail the Nth matching write/append/sync
    kTornWrite,  // persist a keep_bytes prefix of the Nth matching write
    kShortRead,  // return at most keep_bytes from the Nth matching read
    kFailRead,   // fail the Nth matching read
  };

  struct FaultSpec {
    FaultKind kind = FaultKind::kNone;
    std::string file_suffix;  // "" matches every file; ".wal" also matches
                              // numbered segments (see WalAwareSuffixMatch)
    std::string op;           // "write" (covers append) | "append" | "sync" |
                              // "rename" | "dirsync" | "delete"; "" = any
    int countdown = -1;       // fires on the countdown-th matching op; <0 never
    size_t keep_bytes = 0;    // torn-write prefix / short-read cap
    bool transient = false;   // fail one op vs. take the env down
  };

  /// The base env must be a MemEnv: torn-write persistence and Crash() need
  /// its durable/volatile image split.
  explicit FaultInjectionEnv(MemEnv* base) : base_(base) {}

  Status NewFile(const std::string& name,
                 std::unique_ptr<File>* file) override;
  bool FileExists(const std::string& name) const override;
  /// Deletes, renames, and directory syncs are write-like crash points too:
  /// segment truncation/recycling must survive a crash at any of them.
  Status DeleteFile(const std::string& name) override;
  Status ListFiles(const std::string& prefix,
                   std::vector<std::string>* out) const override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status SyncDir(const std::string& hint) override;

  void Arm(FaultSpec spec);
  void FailOpAfter(int n, const std::string& suffix, const std::string& op,
                   bool transient = false);
  void TearWriteAfter(int n, const std::string& suffix, size_t keep_bytes);
  void ShortReadAfter(int n, const std::string& suffix, size_t keep_bytes);
  void FailReadAfter(int n, const std::string& suffix);
  /// Count matching ops without ever firing (for sizing crash-point sweeps).
  void ObserveOnly(const std::string& suffix = "", const std::string& op = "");
  void Disarm();

  /// Power loss: un-synced writes vanish, the env comes back up, the armed
  /// fault (if any) is cleared.
  void Crash();

  bool fault_fired() const;
  /// Matching ops seen since the last Arm/ObserveOnly.
  uint64_t ops_observed() const;
  /// True after a non-transient fault fired: all write-like ops fail.
  bool down() const;

  MemEnv* base() { return base_; }

  // --- hooks for the FaultFile wrapper (public for env.cc-style helpers) ---
  struct WriteDecision {
    enum Action { kProceed, kFail, kTear } action = kProceed;
    size_t keep_bytes = 0;
  };
  WriteDecision OnWriteLikeOp(const std::string& name, const char* op,
                              size_t n);
  /// Returns the byte cap for this read (SIZE_MAX = unfaulted); sets *fail
  /// when the read is to fail instead.
  size_t OnRead(const std::string& name, size_t n, bool* fail);
  Status PersistTornPrefix(const std::string& name, uint64_t offset,
                           const Slice& data, size_t keep_bytes);

 private:
  bool Matches(const std::string& name, const char* op) const;  // under mu_

  MemEnv* base_;
  mutable std::mutex mu_;
  FaultSpec spec_;
  uint64_t observed_ = 0;
  bool fired_ = false;
  bool down_ = false;
};

}  // namespace soreorg

#endif  // SOREORG_STORAGE_FAULT_ENV_H_
