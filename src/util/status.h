// Status: the library-wide error-reporting type.
//
// soreorg does not throw exceptions across public API boundaries. Every
// fallible operation returns a Status (or a value + Status out-param). The
// code set is tailored to the needs of the reorganization protocols: in
// particular kBackoff models the paper's RX-conflict rule (the requester must
// release its parent lock and wait via an instant-duration RS lock rather
// than queue), and kDeadlock carries the reorganizer-is-victim policy.

#ifndef SOREORG_UTIL_STATUS_H_
#define SOREORG_UTIL_STATUS_H_

#include <string>
#include <utility>

namespace soreorg {

class Status {
 public:
  enum class Code : unsigned char {
    kOk = 0,
    kNotFound = 1,
    kCorruption = 2,
    kIOError = 3,
    kInvalidArgument = 4,
    kBusy = 5,
    // A lock request hit an RX-held page: the caller must back off per the
    // paper's protocol (release parent lock, take an instant-duration RS lock
    // on the parent, retry the traversal).
    kBackoff = 6,
    kDeadlock = 7,
    kAborted = 8,
    kTimedOut = 9,
    kNotSupported = 10,
  };

  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status IOError(std::string msg = "") {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status Busy(std::string msg = "") {
    return Status(Code::kBusy, std::move(msg));
  }
  static Status Backoff(std::string msg = "") {
    return Status(Code::kBackoff, std::move(msg));
  }
  static Status Deadlock(std::string msg = "") {
    return Status(Code::kDeadlock, std::move(msg));
  }
  static Status Aborted(std::string msg = "") {
    return Status(Code::kAborted, std::move(msg));
  }
  static Status TimedOut(std::string msg = "") {
    return Status(Code::kTimedOut, std::move(msg));
  }
  static Status NotSupported(std::string msg = "") {
    return Status(Code::kNotSupported, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsBackoff() const { return code_ == Code::kBackoff; }
  bool IsDeadlock() const { return code_ == Code::kDeadlock; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsTimedOut() const { return code_ == Code::kTimedOut; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }

  Code code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// Human-readable "CODE: message" string for logs and test failures.
  std::string ToString() const;

 private:
  Status(Code code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  Code code_;
  std::string msg_;
};

}  // namespace soreorg

#endif  // SOREORG_UTIL_STATUS_H_
