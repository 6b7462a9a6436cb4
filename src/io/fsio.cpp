#include "io/fsio.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <stdexcept>

#include "util/rng.hpp"

namespace adaparse::io {
namespace {

std::atomic<std::uint64_t> fsync_count{0};

/// fsync with EINTR retry; counts every successful sync for the test hook.
bool fsync_fd(int fd) {
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  if (rc == 0) fsync_count.fetch_add(1, std::memory_order_relaxed);
  return rc == 0;
}

bool write_fully(int fd, std::string_view bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// Syncs the directory holding `path`, making the rename itself durable.
void fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;  // not fatal: the data itself is already synced
  fsync_fd(fd);
  ::close(fd);
}

}  // namespace

std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  // One read into a buffer sized by fstat. The spare byte lets the read
  // that meets EOF return 0 without growing the buffer; a file whose fstat
  // size is 0 (/proc, FIFOs) or that grows meanwhile doubles it instead.
  std::string bytes;
  struct stat st {};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    bytes.resize(static_cast<std::size_t>(st.st_size) + 1);
  }
  std::size_t got = 0;
  for (;;) {
    if (got == bytes.size()) bytes.resize(std::max<std::size_t>(4096, 2 * got));
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      ::close(fd);
      return std::nullopt;
    }
  }
  ::close(fd);
  bytes.resize(got);
  return bytes;
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  // Unique per-call temp name: two threads atomically writing the same
  // path (e.g. a primary attempt and its hedge both re-staging one corrupt
  // shard) must not race on a shared temp file — whoever renames last
  // wins, and with deterministic content both outcomes are identical.
  static std::atomic<unsigned long> sequence{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(sequence.fetch_add(1) + 1);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    throw std::runtime_error("write_file_atomic: cannot open " + tmp);
  }
  // The ordering that makes rename a true commit point: data must be on
  // disk *before* the new name appears (fsync the temp file), and the name
  // swap itself must survive a crash (fsync the parent directory after the
  // rename). Skipping either step lets a power cut leave the final path
  // referring to an empty or half-written file.
  if (!write_fully(fd, bytes) || !fsync_fd(fd)) {
    ::close(fd);
    std::remove(tmp.c_str());
    throw std::runtime_error("write_file_atomic: write failed " + tmp);
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_file_atomic: rename failed " + path);
  }
  fsync_parent_dir(path);
}

std::uint64_t fsync_count_for_testing() {
  return fsync_count.load(std::memory_order_relaxed);
}

std::uint64_t fnv1a(std::string_view bytes) { return util::hash64(bytes); }

}  // namespace adaparse::io
