// Shard archives: many small documents packed into few large files.
//
// Paper §6.1: "we aggregate and chunk input files into a set of compressed
// ZIP archives and transfer them to node-local RAM storage" to avoid
// hammering Lustre with small-file I/O. This module implements that
// pattern: a simple length-prefixed archive, plus an in-memory variant the
// cluster simulator uses to model staging costs.
// (No actual compression codec is shipped offline, so entries are stored
// with a run-length pre-pass that stands in for DEFLATE; the I/O pattern —
// one large sequential file per shard — is what matters for the system.)
//
// The stand-in does not compress: text rarely repeats a byte, so most
// bytes become a (1, byte) pair, and on the benchmark corpus the document
// JSON comes out 1.97x larger. It is kept because its bytes are the format:
// staged .shard files are durable campaign inputs, and `shard_file` jobs
// read the same archives. The codec runs at memory speed instead (runs are
// found on the SIMD equality mask, each entry encodes straight into the
// blob), so staging and every attempt's read pay little for it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace adaparse::io {

/// One archived entry.
struct ShardEntry {
  std::string name;
  std::string payload;
};

/// Builds a shard in memory and serializes it to a single contiguous blob.
class ShardWriter {
 public:
  void add(std::string name, std::string payload);
  std::size_t count() const { return entries_.size(); }
  /// Total payload bytes added (pre-encoding).
  std::size_t payload_bytes() const { return payload_bytes_; }

  /// Serializes: [magic][n][entries: name_len,name,data_len,data...], all
  /// lengths u32; data is the RLE-encoded payload.
  std::string finish() const;

 private:
  std::vector<ShardEntry> entries_;
  std::size_t payload_bytes_ = 0;
};

/// Reads a serialized shard; validates magic and lengths. Every entry is
/// decoded in the constructor, so the blob is not referenced afterwards.
class ShardReader {
 public:
  /// Throws std::runtime_error on malformed input.
  explicit ShardReader(std::string_view blob);

  std::size_t count() const { return entries_.size(); }
  const std::vector<ShardEntry>& entries() const { return entries_; }
  /// Looks an entry up by name.
  std::optional<std::string_view> find(std::string_view name) const;

 private:
  std::vector<ShardEntry> entries_;
};

/// Run-length encoding used as the stand-in "compression" codec.
std::string rle_encode(std::string_view s);
std::string rle_decode(std::string_view s);

/// Splits `names` into shards of at most `shard_bytes` payload each, greedy
/// in order; returns shard boundaries as index ranges [begin, end).
std::vector<std::pair<std::size_t, std::size_t>> plan_shards(
    const std::vector<std::size_t>& payload_sizes, std::size_t shard_bytes);

}  // namespace adaparse::io
