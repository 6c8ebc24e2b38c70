#include "common.hpp"

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <optional>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::optional<marioh::obs::MemorySample> sample =
      marioh::obs::SampleProcessMemory();
  if (!sample.has_value()) return 0.0;
  return static_cast<double>(sample->peak_rss_bytes) / (1024.0 * 1024.0);
}

bool ResetPeakRss(const std::string& pid) {
  // Writing 5 to clear_refs sets VmHWM back to VmRSS (Linux >= 4.0).
  std::ofstream clear_refs("/proc/" + pid + "/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

void ReleaseFreeMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

int Nproc() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t ContentHash(const marioh::Hypergraph& h) {
  std::vector<std::pair<marioh::NodeSet, uint32_t>> edges(h.edges().begin(),
                                                          h.edges().end());
  std::sort(edges.begin(), edges.end());
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  mix(h.num_nodes());
  for (const auto& [edge, multiplicity] : edges) {
    mix(edge.size());
    for (marioh::NodeId node : edge) mix(node);
    mix(multiplicity);
  }
  return hash;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 of (seed, stream): nearby seeds give unrelated sub-seeds.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) % 1'000'000'007ULL + 1;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench
