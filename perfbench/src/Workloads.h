//===- perfbench/src/Workloads.h - Benchmark input generators ---*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's three workloads, generated from a seed as service wire
/// text plus the generator's ground truth for every event:
///
///   * fleet: many KV objects, each running rounds of 4 concurrent
///     operations that take effect in invocation order (the SMR log's
///     shape), objects interleaved round-robin.
///   * overlap: few KV objects whose rounds take effect and respond in a
///     shuffled order, with one straggler per object held open past 64
///     completions at a fixed cadence.
///   * speculative: one consensus slot of the Quorum->Paxos stack per
///     object, simulated under contention and rendered untimed.
///
/// Every workload corrupts one response in one object of every 64 (at
/// least one object). The corrupted output is one no execution of the
/// object produces, so the ground truth is Yes on a clean object and No on
/// a corrupted one from the corrupted response onward.
///
/// A stream is three consecutive segments — warm-up, closed loop, open
/// loop — that the driver feeds in order to one fresh service per episode.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "service/Wire.h"
#include "trace/Action.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload : std::uint8_t { Fleet, Overlap, Speculative };

std::optional<Workload> parseWorkload(std::string_view Name);
const char *workloadName(Workload W);

/// Segment sizes. KV workloads count rounds per object; speculative counts
/// slots (one object each).
struct Sizes {
  std::size_t WarmUnits = 0;
  std::size_t ClosedUnits = 0;
  std::size_t OpenUnits = 0;
};

/// The sizes the benchmark runs each workload at.
Sizes defaultSizes(Workload W);

/// The open loop's fixed offered rate for a workload, in events/s.
double offeredRate(Workload W);

/// Independent streams (each from its own sub-seed) one untraced run feeds.
std::size_t streamCount(Workload W);

/// One generated event: the object it belongs to, the action as sent on
/// the wire (global client id), and the ground truth after it.
struct Event {
  slin::ObjectId Object = 0;
  slin::Action A;
  bool TruthNo = false; ///< Object's trace is not linearizable from here.
};

/// A generated workload: events in wire order and segment boundaries.
struct Generated {
  std::vector<Event> Events;
  std::size_t WarmEvents = 0;
  std::size_t ClosedEvents = 0;
  std::size_t OpenEvents = 0;
  std::size_t Objects = 0;
  std::vector<slin::ObjectId> Corrupted; ///< Objects with a bad response.
};

Generated generate(Workload W, std::uint64_t Seed, const Sizes &S);

/// Shape of a KV workload (fleet and overlap).
struct KvShape {
  std::size_t Objects = 0;
  bool Shuffle = false;           ///< Shuffled effect and response order.
  std::size_t StragglerEvery = 0; ///< Rounds between stragglers; 0 = none.
  std::size_t StragglerHold = 0;  ///< Completions a straggler waits out.
  std::size_t StragglerFrom = 0;  ///< First round a straggler may start.
};

/// The shape generate() uses for a KV workload.
KvShape kvShape(Workload W);

/// Generates a KV workload of any shape (the self-test scales stragglers
/// down to fit the classical checker).
Generated generateKv(const KvShape &Shape, std::uint64_t Seed,
                     const Sizes &S);

/// The wire rendering of a generated workload, with per-event ground truth
/// kept beside the text so the driver never re-parses to check verdicts.
struct WireStream {
  std::string Text;
  std::vector<std::uint32_t> LineStart; ///< Events + 1 offsets into Text.
  std::vector<slin::ObjectId> Object;
  std::vector<std::uint8_t> TruthNo;
  std::size_t WarmEvents = 0;
  std::size_t ClosedEvents = 0;
  std::size_t OpenEvents = 0;
  std::size_t Objects = 0;

  /// Line \p I without its newline.
  std::string_view line(std::size_t I) const {
    return std::string_view(Text).substr(LineStart[I],
                                         LineStart[I + 1] - LineStart[I] - 1);
  }
};

WireStream render(const Generated &G);

/// Maps global wire client ids to dense local ids in first-seen order, as
/// each service shard does.
class ClientRemap {
public:
  std::uint32_t local(std::uint32_t Global) {
    for (std::uint32_t L = 0; L != Clients.size(); ++L)
      if (Clients[L] == Global)
        return L;
    Clients.push_back(Global);
    return static_cast<std::uint32_t>(Clients.size() - 1);
  }

private:
  std::vector<std::uint32_t> Clients;
};

/// The per-object traces a shard sees (clients remapped to local ids), in
/// object id order.
std::vector<slin::Trace> objectTraces(const Generated &G);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
