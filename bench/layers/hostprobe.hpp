// The host-speed probe: how fast this machine runs right now, relative to
// the machine the reference numbers were recorded on.
//
// On a shared virtual machine the speed of every core drifts by 10-20%
// over tens of seconds, in CPU time as well as in wall time, so two runs
// of the same code a minute apart can differ by a fifth. The benchmark
// samples this probe between its timed units, all through a run, and
// scales the run's end-to-end times by the median speed it saw, which
// cancels most of the drift between runs.
//
// The probe is a fixed kernel that uses none of the engine's code, so no
// change to the engine moves it: hash the words of a fixed text, count
// them in an open-addressing table, fold them into a feature vector and
// sort the vocabulary, the kind of string and hash-table work the engine
// does. Its memory is allocated once, so a sample neither allocates nor
// page-faults. Each of `threads` threads runs it at the same time, timed
// in its own CPU time, so threads the engine leaves running do not slow
// the probe down.
#pragma once

#include <time.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace adaparse::bench_layers {

class HostProbe {
 public:
  /// Median per-thread CPU seconds of one sample on the reference machine
  /// (a 4-vCPU Intel Xeon virtual machine, GCC 12 -O2).
  static constexpr double kReferenceSeconds = 0.022;

  explicit HostProbe(std::size_t threads)
      : threads_(threads), text_(make_text()), scratch_(threads) {}

  /// Takes one sample: runs the kernel on every thread at the same time
  /// and records the median over threads of kReferenceSeconds ÷ CPU
  /// seconds, which is 1.0 on the reference machine and 0.8 on one 20%
  /// slower. Takes about 25 ms.
  void sample() {
    std::vector<double> cpu_s(threads_);
    std::vector<std::uint64_t> checksums(threads_);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads_; ++t) {
      workers.emplace_back([&, t] {
        const double start = thread_cpu_seconds();
        for (int r = 0; r < kRepeats; ++r) checksums[t] += kernel(scratch_[t]);
        cpu_s[t] = thread_cpu_seconds() - start;
      });
    }
    for (auto& w : workers) w.join();
    for (const std::uint64_t c : checksums) checksum_ += c;
    speeds_.push_back(kReferenceSeconds / median(std::move(cpu_s)));
  }

  /// The median speed of every sample taken so far; 1.0 before the first.
  double speed() const { return speeds_.empty() ? 1.0 : median(speeds_); }

 private:
  static constexpr std::size_t kWords = 60000;
  static constexpr int kRepeats = 4;  ///< kernel runs per sample
  static constexpr std::size_t kBuckets = 1 << 14;
  static constexpr std::size_t kSlots = 1 << 17;  ///< > 2 × kWords

  /// One thread's working memory, allocated and touched once.
  struct Scratch {
    std::vector<std::uint64_t> table = std::vector<std::uint64_t>(kSlots, 0);
    std::vector<std::uint32_t> counts = std::vector<std::uint32_t>(kSlots, 0);
    std::vector<float> features = std::vector<float>(kBuckets, 0.0f);
    std::vector<std::uint64_t> vocabulary = std::vector<std::uint64_t>(kSlots, 0);
  };

  static double median(std::vector<double> xs) {
    const auto mid = xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2);
    std::nth_element(xs.begin(), mid, xs.end());
    return *mid;
  }

  static double thread_cpu_seconds() {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  /// kWords pseudo-random lower-case words of 2 to 10 letters from a
  /// 20-letter alphabet, separated by spaces.
  static std::string make_text() {
    std::string text;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::size_t i = 0; i < kWords; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const std::size_t letters = 2 + x % 9;
      for (std::size_t k = 0; k < letters; ++k) {
        text.push_back(static_cast<char>('a' + (x >> (8 + 3 * k)) % 20));
      }
      text.push_back(' ');
    }
    return text;
  }

  /// One run of the kernel; returns a checksum so it cannot be elided.
  std::uint64_t kernel(Scratch& s) const {
    std::fill(s.table.begin(), s.table.end(), 0);
    std::fill(s.counts.begin(), s.counts.end(), 0);
    std::fill(s.features.begin(), s.features.end(), 0.0f);
    std::size_t distinct = 0;
    std::size_t pos = 0;
    while (pos < text_.size()) {
      const std::size_t end = text_.find(' ', pos);
      std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a of the word
      for (std::size_t i = pos; i < end; ++i) {
        h = (h ^ static_cast<unsigned char>(text_[i])) * 0x100000001B3ULL;
      }
      h |= 1;  // 0 marks an empty slot
      s.features[h % kBuckets] += (h >> 63) != 0 ? 1.0f : -1.0f;
      std::size_t slot = (h >> 17) & (kSlots - 1);  // linear probing
      while (s.table[slot] != 0 && s.table[slot] != h) slot = (slot + 1) & (kSlots - 1);
      if (s.table[slot] == 0) {
        s.table[slot] = h;
        s.vocabulary[distinct++] = h;
      }
      ++s.counts[slot];
      pos = end + 1;
    }
    std::sort(s.vocabulary.begin(), s.vocabulary.begin() + static_cast<std::ptrdiff_t>(distinct));
    std::uint64_t checksum = distinct + s.vocabulary[distinct / 2];
    for (std::size_t b = 0; b < kBuckets; b += 97) {
      checksum += static_cast<std::uint64_t>(s.features[b] + 1000.0f);
    }
    return checksum;
  }

  std::size_t threads_;
  std::string text_;
  std::vector<Scratch> scratch_;
  std::vector<double> speeds_;
  std::uint64_t checksum_ = 0;  ///< keeps the kernel's results observable
};

}  // namespace adaparse::bench_layers
