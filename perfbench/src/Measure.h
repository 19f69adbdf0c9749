//===- perfbench/src/Measure.h - Clocks, memory, summaries ------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small measurement helpers shared by the driver's passes: a nanosecond
/// steady clock, resident memory, nearest-rank percentiles, and a metric
/// table that renders as the JSON the driver prints.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Resident set size of this process in bytes (0 when unavailable).
std::size_t residentBytes();

/// Nearest-rank percentile of \p V (sorted in place); 0 when empty.
template <typename T> double percentile(std::vector<T> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  auto Rank = static_cast<std::size_t>(P * static_cast<double>(V.size() - 1) +
                                       0.5);
  return static_cast<double>(V[std::min(Rank, V.size() - 1)]);
}

template <typename T> double median(std::vector<T> V) {
  return percentile(V, 0.5);
}

template <typename T> double mean(const std::vector<T> &V) {
  if (V.empty())
    return 0;
  double Sum = 0;
  for (const T &X : V)
    Sum += static_cast<double>(X);
  return Sum / static_cast<double>(V.size());
}

/// Named metrics in insertion order, each with its unit and, for
/// distributions, the sample count behind it.
class MetricTable {
public:
  void add(const std::string &Name, double Value, const std::string &Unit,
           std::size_t Samples = 0) {
    Rows.push_back({Name, Value, Unit, Samples});
  }

  /// {"name": {"value": v, "unit": u}, ...}; with \p WithSamples the
  /// sample count rides along where one was recorded.
  std::string json(bool WithSamples) const;

private:
  struct Row {
    std::string Name;
    double Value;
    std::string Unit;
    std::size_t Samples;
  };
  std::vector<Row> Rows;
};

/// Escapes \p S as a JSON string literal (quotes included).
std::string jsonString(const std::string &S);

/// Renders \p V with every significant digit (JSON has no NaN/inf: those
/// render as null).
std::string jsonNumber(double V);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
