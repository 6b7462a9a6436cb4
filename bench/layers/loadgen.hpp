// A single-threaded HTTP/1.1 load generator for the /v1 front end.
//
// One poll() loop drives at most `max_connections` keep-alive connections.
// In an open loop each request is sent at its precomputed due time (or, if
// every connection is busy, as soon as one frees up, so the wait shows as
// lateness and in the latency, which is timed from the due time). In a
// closed loop every connection sends its next request as soon as the
// previous response ends. Responses are decoded incrementally: the chunked
// framing is undone as bytes arrive, so the time of the first response
// byte and the arrival time of every JSONL record line are known. Record
// lines are folded into an FNV-1a hash instead of being kept, so a run of
// thousands of 600 KB responses stays small in memory.
#pragma once

#include <poll.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "doc/document.hpp"
#include "net/socket.hpp"
#include "serve/job_spec.hpp"
#include "util/rng.hpp"

namespace adaparse::bench_layers {

/// The wire form of one pre-generated document: its groundtruth pages as
/// the inline text. The seed is masked to 32 bits because JobSpec::to_json
/// writes the 64-bit seed as a JSON number and JobSpec::from_json rejects
/// integers above 9e15, so an unmasked seed would turn every request into
/// a 400.
inline serve::InlineDocument to_inline(const doc::Document& document) {
  return {document.id, document.groundtruth_pages,
          document.seed & 0xFFFFFFFFULL};
}

/// Head of a POST /v1/parse request carrying `body_bytes` of JSON.
inline std::string post_parse_head(std::size_t body_bytes) {
  return "POST /v1/parse HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body_bytes) + "\r\n\r\n";
}

/// FNV-1a over `bytes`, continuing from `h`.
inline std::uint64_t fnv1a_extend(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) h = util::fnv1a_step(h, static_cast<unsigned char>(c));
  return h;
}

struct HttpRequest {
  double due_s = 0.0;  ///< offset from the start of run(); closed loops ignore it
  std::string head;    ///< request line and headers, through the blank line
  const std::string* body = nullptr;  ///< not owned; must outlive run()
};

/// Every time is in seconds since the start of run().
struct HttpResult {
  bool complete = false;  ///< a whole response arrived
  int status = 0;
  std::uint64_t job_id = 0;  ///< X-Adaparse-Job-Id, when present
  double due_s = 0.0;
  double sent_s = 0.0;  ///< first byte written
  double first_byte_s = 0.0;
  double first_record_s = 0.0;
  double done_s = 0.0;
  std::vector<double> record_s;  ///< arrival of each record line
  /// FNV-1a over every record line ({"index":...}) including its newline.
  std::uint64_t record_hash = util::kFnvOffsetBasis;
  std::string done_line;  ///< the stream's final {"done":...} line
  std::string body;       ///< Content-Length responses only
  std::size_t bytes_sent = 0;
  std::size_t bytes_received = 0;
};

class LoadGen {
 public:
  LoadGen(std::string host, std::uint16_t port, std::size_t max_connections)
      : host_(std::move(host)), port_(port), max_connections_(max_connections) {}

  /// Sends every request and returns one result per request, in order.
  /// Open-loop requests must be sorted by due_s. A response that has not
  /// finished after `stall_seconds` without any progress is left
  /// incomplete, so a wedged server fails the run instead of hanging it.
  std::vector<HttpResult> run(const std::vector<HttpRequest>& requests,
                              bool closed_loop, double stall_seconds = 60.0);

  /// Most connections that were open at once, over every run().
  std::size_t connections_max() const { return connections_max_; }

 private:
  enum class Phase { kHead, kChunkSize, kChunkData, kChunkEnd, kTrailer, kBody };
  enum class Line { kStart, kRecord, kOther };

  struct Conn {
    net::Fd fd;
    bool busy = false;
    bool dead = false;
    std::size_t request = 0;
    std::string_view head, body;  ///< unsent remainder of the request
    Phase phase = Phase::kHead;
    std::string buf;  ///< response head, chunk-size line or trailer line
    std::size_t remaining = 0;
    bool chunked = false;
    bool close_after = false;
    Line line = Line::kStart;
    std::string pending;  ///< a non-record stream line, or a line's prefix
  };

  using Clock = std::chrono::steady_clock;

  double since_start() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  Conn* idle_connection();
  void start_request(Conn& c, std::size_t index, const HttpRequest& request,
                     HttpResult& result);
  bool write_pending(Conn& c, HttpResult& result);
  void on_readable(Conn& c, HttpResult& result);
  /// Feeds response bytes; returns true once the response is complete.
  bool feed(Conn& c, HttpResult& result, std::string_view data, double now);
  void parse_head(Conn& c, HttpResult& result);
  void on_stream_bytes(Conn& c, HttpResult& result, std::string_view data,
                       double now);
  void finish(Conn& c, HttpResult& result, double now);

  std::string host_;
  std::uint16_t port_;
  std::size_t max_connections_;
  std::size_t connections_max_ = 0;
  std::vector<std::unique_ptr<Conn>> conns_;
  Clock::time_point start_;
};

// ---------------------------------------------------------------- impl --

inline LoadGen::Conn* LoadGen::idle_connection() {
  for (auto& c : conns_) {
    if (!c->busy && !c->dead) return c.get();
  }
  if (conns_.size() >= max_connections_) return nullptr;
  auto conn = std::make_unique<Conn>();
  conn->fd = net::connect_blocking(host_, port_);
  net::set_nonblocking(conn->fd.get());
  net::set_tcp_nodelay(conn->fd.get());
  conns_.push_back(std::move(conn));
  connections_max_ = std::max(connections_max_, conns_.size());
  return conns_.back().get();
}

inline void LoadGen::start_request(Conn& c, std::size_t index,
                                   const HttpRequest& request,
                                   HttpResult& result) {
  c.busy = true;
  c.request = index;
  c.head = request.head;
  c.body = request.body != nullptr ? std::string_view(*request.body)
                                   : std::string_view();
  c.phase = Phase::kHead;
  c.buf.clear();
  c.remaining = 0;
  c.chunked = false;
  c.close_after = false;
  c.line = Line::kStart;
  c.pending.clear();
  result.sent_s = since_start();
  write_pending(c, result);
}

inline bool LoadGen::write_pending(Conn& c, HttpResult& result) {
  for (std::string_view* part : {&c.head, &c.body}) {
    while (!part->empty()) {
      const net::IoResult r = net::write_some(c.fd.get(), *part);
      if (r.status == net::IoStatus::kWouldBlock) return true;
      if (r.status != net::IoStatus::kOk) {
        c.dead = true;
        return false;
      }
      part->remove_prefix(r.bytes);
      result.bytes_sent += r.bytes;
    }
  }
  return true;
}

inline void LoadGen::on_readable(Conn& c, HttpResult& result) {
  char buf[65536];
  for (;;) {
    const net::IoResult r = net::read_some(c.fd.get(), buf, sizeof(buf));
    if (r.status == net::IoStatus::kWouldBlock) return;
    if (r.status != net::IoStatus::kOk) {
      c.dead = true;  // EOF or reset before the response ended
      return;
    }
    const double now = since_start();
    if (result.bytes_received == 0) result.first_byte_s = now;
    result.bytes_received += r.bytes;
    if (feed(c, result, std::string_view(buf, r.bytes), now)) return;
  }
}

inline void LoadGen::parse_head(Conn& c, HttpResult& result) {
  // "HTTP/1.1 200 OK"
  result.status = c.buf.size() > 12 ? std::atoi(c.buf.c_str() + 9) : 0;
  bool have_length = false;
  std::size_t pos = c.buf.find("\r\n");
  while (pos != std::string::npos && pos + 2 < c.buf.size()) {
    const std::size_t eol = c.buf.find("\r\n", pos + 2);
    const std::string_view line(c.buf.data() + pos + 2,
                                (eol == std::string::npos ? c.buf.size() : eol) -
                                    pos - 2);
    pos = eol;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string name(line.substr(0, colon));
    for (char& ch : name) ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    if (name == "transfer-encoding" && value.find("chunked") != std::string_view::npos) {
      c.chunked = true;
    } else if (name == "content-length") {
      have_length = true;
      c.remaining = static_cast<std::size_t>(std::strtoull(std::string(value).c_str(), nullptr, 10));
    } else if (name == "connection" && value.find("close") != std::string_view::npos) {
      c.close_after = true;
    } else if (name == "x-adaparse-job-id") {
      result.job_id = std::strtoull(std::string(value).c_str(), nullptr, 10);
    }
  }
  c.buf.clear();
  if (c.chunked) {
    c.phase = Phase::kChunkSize;
  } else {
    c.phase = Phase::kBody;
    if (!have_length) c.close_after = true;  // body runs to EOF; not used by /v1
  }
}

inline bool LoadGen::feed(Conn& c, HttpResult& result, std::string_view data,
                          double now) {
  while (true) {
    switch (c.phase) {
      case Phase::kHead: {
        const std::size_t old = c.buf.size();
        c.buf.append(data);
        const std::size_t end = c.buf.find("\r\n\r\n", old >= 3 ? old - 3 : 0);
        if (end == std::string::npos) return false;
        const std::size_t used = end + 4 - old;
        data.remove_prefix(used);
        c.buf.resize(end + 2);  // keep the last header's CRLF
        parse_head(c, result);
        if (c.phase == Phase::kBody && c.remaining == 0 && !c.close_after) {
          finish(c, result, now);
          return true;
        }
        break;
      }
      case Phase::kChunkSize:
      case Phase::kTrailer: {
        const std::size_t nl = data.find('\n');
        if (nl == std::string_view::npos) {
          c.buf.append(data);
          return false;
        }
        c.buf.append(data.substr(0, nl + 1));
        data.remove_prefix(nl + 1);
        if (c.phase == Phase::kTrailer) {
          const bool blank = c.buf == "\r\n" || c.buf == "\n";
          c.buf.clear();
          if (blank) {
            finish(c, result, now);
            return true;
          }
          break;
        }
        const std::size_t size = std::strtoull(c.buf.c_str(), nullptr, 16);
        c.buf.clear();
        if (size == 0) {
          c.phase = Phase::kTrailer;
        } else {
          c.remaining = size;
          c.phase = Phase::kChunkData;
        }
        break;
      }
      case Phase::kChunkData: {
        const std::size_t take = std::min(c.remaining, data.size());
        on_stream_bytes(c, result, data.substr(0, take), now);
        data.remove_prefix(take);
        c.remaining -= take;
        if (c.remaining > 0) return false;
        c.phase = Phase::kChunkEnd;
        c.remaining = 2;  // the CRLF after the chunk data
        break;
      }
      case Phase::kChunkEnd: {
        const std::size_t take = std::min(c.remaining, data.size());
        data.remove_prefix(take);
        c.remaining -= take;
        if (c.remaining > 0) return false;
        c.phase = Phase::kChunkSize;
        break;
      }
      case Phase::kBody: {
        const std::size_t take = std::min(c.remaining, data.size());
        result.body.append(data.substr(0, take));
        data.remove_prefix(take);
        c.remaining -= take;
        if (c.remaining > 0) return false;
        finish(c, result, now);
        return true;
      }
    }
    if (data.empty() && c.phase != Phase::kHead) return false;
  }
}

inline void LoadGen::on_stream_bytes(Conn& c, HttpResult& result,
                                     std::string_view data, double now) {
  static constexpr std::string_view kRecordPrefix = "{\"index\":";
  while (!data.empty()) {
    if (c.line == Line::kRecord) {
      const std::size_t nl = data.find('\n');
      const std::size_t take = nl == std::string_view::npos ? data.size() : nl + 1;
      result.record_hash = fnv1a_extend(result.record_hash, data.substr(0, take));
      data.remove_prefix(take);
      if (nl != std::string_view::npos) {
        if (result.record_s.empty()) result.first_record_s = now;
        result.record_s.push_back(now);
        c.line = Line::kStart;
      }
      continue;
    }
    const std::size_t nl = data.find('\n');
    if (c.line == Line::kStart) {
      // Buffer just enough of the line to tell a record line apart.
      const std::size_t line_end = nl == std::string_view::npos ? data.size() : nl;
      const std::size_t take =
          std::min(line_end, kRecordPrefix.size() - c.pending.size());
      c.pending.append(data.substr(0, take));
      data.remove_prefix(take);
      if (c.pending.size() == kRecordPrefix.size()) {
        if (c.pending == kRecordPrefix) {
          result.record_hash = fnv1a_extend(result.record_hash, c.pending);
          c.pending.clear();
          c.line = Line::kRecord;
        } else {
          c.line = Line::kOther;
        }
      } else if (!data.empty()) {
        c.line = Line::kOther;  // a line shorter than the prefix
      }
      continue;
    }
    if (nl == std::string_view::npos) {
      c.pending.append(data);
      return;
    }
    c.pending.append(data.substr(0, nl));
    data.remove_prefix(nl + 1);
    if (c.pending.rfind("{\"done\":", 0) == 0) result.done_line = c.pending;
    c.pending.clear();
    c.line = Line::kStart;
  }
}

inline void LoadGen::finish(Conn& c, HttpResult& result, double now) {
  result.complete = true;
  result.done_s = now;
  c.busy = false;
  if (c.close_after) c.dead = true;
}

inline std::vector<HttpResult> LoadGen::run(
    const std::vector<HttpRequest>& requests, bool closed_loop,
    double stall_seconds) {
  std::vector<HttpResult> results(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    results[i].due_s = closed_loop ? 0.0 : requests[i].due_s;
  }
  start_ = Clock::now();
  std::size_t next = 0;
  std::size_t outstanding = 0;
  double last_progress = 0.0;
  std::vector<pollfd> fds;
  std::vector<Conn*> polled;

  while (next < requests.size() || outstanding > 0) {
    // Retire connections the server closed or that broke; a request still
    // on one is left incomplete.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->dead) {
        if ((*it)->busy) --outstanding;
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    double now = since_start();
    while (next < requests.size() &&
           (closed_loop || requests[next].due_s <= now)) {
      Conn* c = idle_connection();
      if (c == nullptr) break;
      if (closed_loop) results[next].due_s = now;
      start_request(*c, next, requests[next], results[next]);
      ++next;
      ++outstanding;
      last_progress = now;
    }

    fds.clear();
    polled.clear();
    for (auto& c : conns_) {
      if (!c->busy || c->dead) continue;
      short events = POLLIN;
      if (!c->head.empty() || !c->body.empty()) events |= POLLOUT;
      fds.push_back({c->fd.get(), events, 0});
      polled.push_back(c.get());
    }
    double wait = 0.1;
    if (!closed_loop && next < requests.size()) {
      const bool can_send = conns_.size() < max_connections_ ||
                            std::any_of(conns_.begin(), conns_.end(),
                                        [](const auto& c) { return !c->busy; });
      if (can_send) wait = std::max(0.0, requests[next].due_s - now);
    }
    const timespec timeout{static_cast<time_t>(wait),
                           static_cast<long>((wait - static_cast<double>(static_cast<time_t>(wait))) * 1e9)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) break;
    now = since_start();
    for (std::size_t i = 0; ready > 0 && i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Conn& c = *polled[i];
      HttpResult& result = results[c.request];
      last_progress = now;
      if ((fds[i].revents & POLLOUT) != 0) write_pending(c, result);
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        on_readable(c, result);
      }
      if (!c.busy) --outstanding;
    }
    if (outstanding > 0 && now - last_progress > stall_seconds) {
      // No byte moved for too long: give up on this run. Requests in
      // flight and those not yet sent stay incomplete.
      for (auto& c : conns_) {
        if (c->busy) c->dead = true;
      }
      next = requests.size();
    }
  }
  return results;
}

}  // namespace adaparse::bench_layers
