#include "src/storage/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

namespace soreorg {

bool WalAwareSuffixMatch(const std::string& name, const std::string& suffix) {
  if (suffix.empty()) return true;
  if (name.size() >= suffix.size() &&
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return true;
  }
  // "db.wal.000017" matches suffix ".wal": find suffix + "." and require the
  // remainder to be all digits.
  size_t pos = name.rfind(suffix + ".");
  if (pos == std::string::npos) return false;
  size_t digits = pos + suffix.size() + 1;
  if (digits >= name.size()) return false;
  for (size_t i = digits; i < name.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// MemEnv
// ---------------------------------------------------------------------------

namespace {

class MemFile : public File {
 public:
  MemFile(MemEnv* env, std::shared_ptr<MemEnv::FileState> state,
          std::mutex* mu)
      : env_(env), state_(std::move(state)), mu_(mu) {}

  Status Read(uint64_t offset, size_t n, char* buf,
              size_t* out_n) const override {
    std::lock_guard<std::mutex> g(*mu_);
    const std::string& img = state_->volatile_image;
    if (offset >= img.size()) {
      *out_n = 0;
      return Status::OK();
    }
    size_t avail = img.size() - offset;
    size_t take = n < avail ? n : avail;
    memcpy(buf, img.data() + offset, take);
    *out_n = take;
    return Status::OK();
  }

  Status Write(uint64_t offset, const Slice& data) override {
    std::lock_guard<std::mutex> g(*mu_);
    std::string& img = state_->volatile_image;
    if (img.size() < offset + data.size()) img.resize(offset + data.size());
    memcpy(img.data() + offset, data.data(), data.size());
    return Status::OK();
  }

  Status Append(const Slice& data) override {
    std::lock_guard<std::mutex> g(*mu_);
    state_->volatile_image.append(data.data(), data.size());
    return Status::OK();
  }

  Status Sync() override {
    std::lock_guard<std::mutex> g(*mu_);
    env_->bytes_synced_ +=
        state_->volatile_image.size() > state_->durable.size()
            ? state_->volatile_image.size() - state_->durable.size()
            : 0;
    env_->sync_count_ += 1;
    state_->durable = state_->volatile_image;
    return Status::OK();
  }

  uint64_t Size() const override {
    std::lock_guard<std::mutex> g(*mu_);
    return state_->volatile_image.size();
  }

  Status Truncate(uint64_t size) override {
    std::lock_guard<std::mutex> g(*mu_);
    if (size < state_->volatile_image.size()) {
      state_->volatile_image.resize(size);
    }
    return Status::OK();
  }

 private:
  MemEnv* env_;
  std::shared_ptr<MemEnv::FileState> state_;
  std::mutex* mu_;
};

}  // namespace

Status MemEnv::NewFile(const std::string& name, std::unique_ptr<File>* file) {
  std::shared_ptr<FileState> state;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = files_.find(name);
    if (it == files_.end() || !it->second->exists) {
      state = std::make_shared<FileState>();
      files_[name] = state;
    } else {
      state = it->second;
    }
  }
  *file = std::make_unique<MemFile>(this, std::move(state), &mu_);
  return Status::OK();
}

bool MemEnv::FileExists(const std::string& name) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = files_.find(name);
  return it != files_.end() && it->second->exists;
}

Status MemEnv::DeleteFile(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = files_.find(name);
  if (it == files_.end() || !it->second->exists) {
    return Status::NotFound(name);
  }
  it->second->exists = false;
  it->second->durable.clear();
  it->second->volatile_image.clear();
  return Status::OK();
}

Status MemEnv::ListFiles(const std::string& prefix,
                         std::vector<std::string>* out) const {
  std::lock_guard<std::mutex> g(mu_);
  out->clear();
  for (const auto& [name, state] : files_) {
    if (state->exists && name.compare(0, prefix.size(), prefix) == 0) {
      out->push_back(name);
    }
  }
  return Status::OK();  // map iteration is already sorted
}

Status MemEnv::RenameFile(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = files_.find(from);
  if (it == files_.end() || !it->second->exists) {
    return Status::NotFound(from);
  }
  // Atomic metadata move; durable immediately (see header). Open handles on
  // `from` keep their FileState — like POSIX fds surviving a rename.
  files_[to] = it->second;
  files_.erase(it);
  return Status::OK();
}

Status MemEnv::SyncDir(const std::string&) { return Status::OK(); }

void MemEnv::Crash() {
  std::lock_guard<std::mutex> g(mu_);
  for (auto& [name, state] : files_) {
    state->volatile_image = state->durable;
  }
}

Status MemEnv::SyncRange(const std::string& name, uint64_t offset, size_t n) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = files_.find(name);
  if (it == files_.end() || !it->second->exists) {
    return Status::NotFound(name);
  }
  FileState& st = *it->second;
  if (offset > st.volatile_image.size()) return Status::OK();
  size_t avail = st.volatile_image.size() - offset;
  size_t take = n < avail ? n : avail;
  if (st.durable.size() < offset + take) st.durable.resize(offset + take);
  memcpy(st.durable.data() + offset, st.volatile_image.data() + offset, take);
  return Status::OK();
}

uint64_t MemEnv::bytes_synced() const {
  std::lock_guard<std::mutex> g(mu_);
  return bytes_synced_;
}

uint64_t MemEnv::sync_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return sync_count_;
}

// ---------------------------------------------------------------------------
// PosixEnv
// ---------------------------------------------------------------------------

namespace {

class PosixFile : public File {
 public:
  explicit PosixFile(int fd) : fd_(fd) {}
  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t n, char* buf,
              size_t* out_n) const override {
    ssize_t r = ::pread(fd_, buf, n, static_cast<off_t>(offset));
    if (r < 0) return Status::IOError(strerror(errno));
    *out_n = static_cast<size_t>(r);
    return Status::OK();
  }

  Status Write(uint64_t offset, const Slice& data) override {
    ssize_t r =
        ::pwrite(fd_, data.data(), data.size(), static_cast<off_t>(offset));
    if (r < 0 || static_cast<size_t>(r) != data.size()) {
      return Status::IOError(strerror(errno));
    }
    return Status::OK();
  }

  Status Append(const Slice& data) override {
    off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0) return Status::IOError(strerror(errno));
    return Write(static_cast<uint64_t>(end), data);
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return Status::IOError(strerror(errno));
    return Status::OK();
  }

  uint64_t Size() const override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) return 0;
    return static_cast<uint64_t>(st.st_size);
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return Status::IOError(strerror(errno));
    }
    return Status::OK();
  }

 private:
  int fd_;
};

}  // namespace

Status PosixEnv::NewFile(const std::string& name,
                         std::unique_ptr<File>* file) {
  int fd = ::open(name.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return Status::IOError(name + ": " + strerror(errno));
  *file = std::make_unique<PosixFile>(fd);
  return Status::OK();
}

bool PosixEnv::FileExists(const std::string& name) const {
  return ::access(name.c_str(), F_OK) == 0;
}

Status PosixEnv::DeleteFile(const std::string& name) {
  if (::unlink(name.c_str()) != 0) {
    return Status::IOError(name + ": " + strerror(errno));
  }
  return Status::OK();
}

Status PosixEnv::ListFiles(const std::string& prefix,
                           std::vector<std::string>* out) const {
  out->clear();
  size_t slash = prefix.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : prefix.substr(0, slash);
  std::string stem =
      slash == std::string::npos ? prefix : prefix.substr(slash + 1);
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Status::IOError(dir + ": " + strerror(errno));
  while (struct dirent* e = ::readdir(d)) {
    std::string base(e->d_name);
    if (base.compare(0, stem.size(), stem) != 0) continue;
    out->push_back(slash == std::string::npos ? base : dir + "/" + base);
  }
  ::closedir(d);
  std::sort(out->begin(), out->end());
  return Status::OK();
}

Status PosixEnv::RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IOError(from + " -> " + to + ": " + strerror(errno));
  }
  return Status::OK();
}

Status PosixEnv::SyncDir(const std::string& hint) {
  size_t slash = hint.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : hint.substr(0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IOError(dir + ": " + strerror(errno));
  Status s;
  if (::fsync(fd) != 0) s = Status::IOError(dir + ": " + strerror(errno));
  ::close(fd);
  return s;
}

}  // namespace soreorg
