#include "src/util/status.h"

namespace soreorg {

namespace {
const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kNotFound:
      return "NotFound";
    case Status::Code::kCorruption:
      return "Corruption";
    case Status::Code::kIOError:
      return "IOError";
    case Status::Code::kInvalidArgument:
      return "InvalidArgument";
    case Status::Code::kBusy:
      return "Busy";
    case Status::Code::kBackoff:
      return "Backoff";
    case Status::Code::kDeadlock:
      return "Deadlock";
    case Status::Code::kAborted:
      return "Aborted";
    case Status::Code::kTimedOut:
      return "TimedOut";
    case Status::Code::kNotSupported:
      return "NotSupported";
  }
  return "Unknown";
}
}  // namespace

std::string Status::ToString() const {
  std::string out = CodeName(code_);
  if (!msg_.empty()) {
    out += ": ";
    out += msg_;
  }
  return out;
}

}  // namespace soreorg
