// Unidirectional byte pipes for coordinator <-> worker messaging.
//
// A proc::Pipe wraps one pipe(2) pair. The campaign coordinator gives each
// forked worker two of them (tasks down, heartbeats/results up), closes the
// ends it does not own after the fork, and polls the read ends
// nonblockingly. The free functions implement the two I/O idioms the
// protocol needs: EINTR-safe full writes of small framed messages, and
// drain-everything-available reads feeding an incremental frame decoder.
#pragma once

#include <string>
#include <string_view>
#include <utility>

namespace adaparse::proc {

/// One pipe(2) pair. Ends are closed eagerly (close_read/close_write) after
/// a fork so EOF propagates as soon as the peer exits; the destructor
/// closes whatever is still open.
class Pipe {
 public:
  /// Creates the pair (close-on-exec). Throws std::runtime_error on failure.
  Pipe();
  ~Pipe();

  Pipe(Pipe&& other) noexcept;
  Pipe& operator=(Pipe&& other) noexcept;
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  int read_fd() const { return read_fd_; }
  int write_fd() const { return write_fd_; }

  void close_read();
  void close_write();

  /// Hands one end to a new owner, who must close it; the pipe forgets it
  /// (an in-process worker thread takes its ends this way).
  int release_read() { return std::exchange(read_fd_, -1); }
  int release_write() { return std::exchange(write_fd_, -1); }

  /// Marks `fd` O_NONBLOCK (the coordinator's read ends, so one slow or
  /// dead worker can never block the supervision loop).
  static void set_nonblocking(int fd);

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
};

/// Writes all of `bytes`, retrying on EINTR. Returns false when the peer is
/// gone (EPIPE) or the write fails — the caller treats the peer as dead;
/// never throws, because it runs on both sides of a fork.
bool write_all(int fd, std::string_view bytes);

/// Appends every byte currently readable from a nonblocking `fd` to `out`.
/// Returns false on EOF (peer closed its write end) or a hard error; true
/// when the pipe is merely drained (EAGAIN).
bool read_available(int fd, std::string& out);

}  // namespace adaparse::proc
