#include "io/shard.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "simd/bits.hpp"
#include "simd/classify.hpp"

namespace adaparse::io {
namespace {

constexpr std::uint32_t kMagic = 0xADA90001;

/// Writes `v` at `out` and advances it past the four bytes.
void put_u32(char*& out, std::uint32_t v) {
  std::memcpy(out, &v, 4);
  out += 4;
}

std::uint32_t get_u32(std::string_view s, std::size_t& pos) {
  if (pos + 4 > s.size()) {
    throw std::runtime_error("shard: truncated (u32)");
  }
  std::uint32_t v = 0;
  std::memcpy(&v, s.data() + pos, 4);
  pos += 4;
  return v;
}

std::string_view get_bytes(std::string_view s, std::size_t& pos,
                           std::size_t n) {
  if (pos + n > s.size()) {
    throw std::runtime_error("shard: truncated (bytes)");
  }
  const auto out = s.substr(pos, n);
  pos += n;
  return out;
}

/// RLE-encodes `s` into `out`, which has room for 2 * s.size() bytes (the
/// all-singletons worst case); returns the bytes written. Format: pairs of
/// (count byte 1..255, char). Runs are found on the equality mask (bit i
/// set when s[i] == s[i-1]): the bytes before the next set bit are
/// singletons, written in a tight loop, and a set bit marks the second
/// byte of a run, which ends at the next clear bit.
std::size_t rle_encode_to(std::string_view s, char* out) {
  const std::size_t n = s.size();
  if (n == 0) return 0;
  std::vector<std::uint64_t> eq(simd::mask_words(n));
  simd::build_eq_mask(s.data(), n, eq.data());
  const char* const in = s.data();
  char* o = out;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t repeat = simd::next_set_bit(eq.data(), i + 1, n);
    const std::size_t singles = (repeat == n ? n : repeat - 1) - i;
    for (std::size_t k = 0; k < singles; ++k) {
      o[2 * k] = 1;
      o[2 * k + 1] = in[i + k];
    }
    o += 2 * singles;
    i += singles;
    if (i == n) break;
    const std::size_t end = simd::next_zero_bit(eq.data(), repeat, n);
    for (std::size_t left = end - i; left > 0;) {
      const std::size_t count = std::min<std::size_t>(left, 255);
      *o++ = static_cast<char>(count);
      *o++ = in[i];
      left -= count;
    }
    i = end;
  }
  return static_cast<std::size_t>(o - out);
}

}  // namespace

std::string rle_encode(std::string_view s) {
  std::string out(2 * s.size(), '\0');
  out.resize(rle_encode_to(s, out.data()));
  return out;
}

std::string rle_decode(std::string_view s) {
  if (s.size() % 2 != 0) {
    throw std::runtime_error("rle: odd-length input");
  }
  const auto* const in = reinterpret_cast<const unsigned char*>(s.data());
  std::size_t total = 0;
  bool zero_run = false;
  for (std::size_t i = 0; i < s.size(); i += 2) {
    total += in[i];
    zero_run |= in[i] == 0;
  }
  if (zero_run) throw std::runtime_error("rle: zero run length");
  std::string out(total, '\0');
  char* o = out.data();
  for (std::size_t i = 0; i < s.size(); i += 2) {
    const std::size_t run = in[i];
    if (run == 1) {
      *o = static_cast<char>(in[i + 1]);
    } else {
      std::memset(o, in[i + 1], run);
    }
    o += run;
  }
  return out;
}

void ShardWriter::add(std::string name, std::string payload) {
  payload_bytes_ += payload.size();
  entries_.push_back({std::move(name), std::move(payload)});
}

std::string ShardWriter::finish() const {
  // Sized for the worst case (every payload byte a singleton pair) and
  // trimmed once: each entry encodes straight into the blob.
  std::size_t bound = 8;
  for (const auto& entry : entries_) {
    bound += 8 + entry.name.size() + 2 * entry.payload.size();
  }
  std::string out(bound, '\0');
  char* o = out.data();
  put_u32(o, kMagic);
  put_u32(o, static_cast<std::uint32_t>(entries_.size()));
  for (const auto& entry : entries_) {
    put_u32(o, static_cast<std::uint32_t>(entry.name.size()));
    std::memcpy(o, entry.name.data(), entry.name.size());
    o += entry.name.size();
    char* length_at = o;
    o += 4;
    const std::size_t encoded = rle_encode_to(entry.payload, o);
    put_u32(length_at, static_cast<std::uint32_t>(encoded));
    o += encoded;
  }
  out.resize(static_cast<std::size_t>(o - out.data()));
  return out;
}

ShardReader::ShardReader(std::string_view blob) {
  std::size_t pos = 0;
  if (get_u32(blob, pos) != kMagic) {
    throw std::runtime_error("shard: bad magic");
  }
  const std::uint32_t n = get_u32(blob, pos);
  // Each entry takes at least its two length words: a damaged count fails
  // here instead of reserving for billions of entries.
  if (n > (blob.size() - pos) / 8) {
    throw std::runtime_error("shard: truncated (entry count)");
  }
  entries_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t name_len = get_u32(blob, pos);
    const auto name = get_bytes(blob, pos, name_len);
    const std::uint32_t data_len = get_u32(blob, pos);
    const auto encoded = get_bytes(blob, pos, data_len);
    entries_.push_back({std::string(name), rle_decode(encoded)});
  }
  if (pos != blob.size()) {
    throw std::runtime_error("shard: trailing bytes");
  }
}

std::optional<std::string_view> ShardReader::find(std::string_view name) const {
  for (const auto& entry : entries_) {
    if (entry.name == name) return std::string_view(entry.payload);
  }
  return std::nullopt;
}

std::vector<std::pair<std::size_t, std::size_t>> plan_shards(
    const std::vector<std::size_t>& payload_sizes, std::size_t shard_bytes) {
  std::vector<std::pair<std::size_t, std::size_t>> shards;
  std::size_t begin = 0, acc = 0;
  for (std::size_t i = 0; i < payload_sizes.size(); ++i) {
    if (acc > 0 && acc + payload_sizes[i] > shard_bytes) {
      shards.emplace_back(begin, i);
      begin = i;
      acc = 0;
    }
    acc += payload_sizes[i];
  }
  if (begin < payload_sizes.size()) {
    shards.emplace_back(begin, payload_sizes.size());
  }
  return shards;
}

}  // namespace adaparse::io
