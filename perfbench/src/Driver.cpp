//===- perfbench/src/Driver.cpp - Wire-to-verdict benchmark driver --------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// Feeds one generated workload (Workloads.h) as wire text to MonitorService,
// single process, single thread, ServiceConfig defaults with only Mode set,
// and checks every verdict against the generator's ground truth.
//
// Untraced run (--trace 0): every stream of the workload is fed to a fresh
// service per episode, and episodes cycle through the streams until
// --seconds have passed (at least MinRepeats per stream):
//   * setup: construct the service and feed the warm-up segment (creates
//     the shards and saturates their tables);                  -> setup_s
//   * closed loop over the closed segment: one line in (ingestLine + poll),
//     composed and shard verdict read, then the next line;   -> events_per_s,
//                                                                failed_share
//   * open loop over the open segment at the fixed offered rate: every
//     line due is ingested, then one poll; latency runs from each event's
//     due time to the return of the poll covering it; -> verdict_p50/p99_us
//   * in each stream's first episode, resident memory at the episode's end
//     minus just before its service was built.                    -> mem_mb
// Chunk times and event latencies take their median over the repeats of a
// stream (see summarize()). Freed pages stay in the heap between episodes
// (keepFreedPages()), so only the first episodes fault memory in.
//
// Traced run (--trace 1), on the workload's first stream: a fresh episode
// and MinRepeats more untraced ones (the baseline for the tracing overhead
// and the open-loop lag), then
//   * pass A: a fresh service fed warm-up + closed segment, with spans
//     around parseServiceLine, MonitorService::ingest and poll;
//   * pass B: the same events replayed through benchmark-owned sessions
//     configured like a shard and a ComposedVerdictTracker, with spans
//     around append, verdict and the tracker update; the verdict path of
//     each event is classified from SessionStats deltas. Every pass-B
//     verdict must equal the service's shard verdict for that event.
// Spans of the closed segment are written to --spans at the end.
//
// The last stdout line is the result object {correct, attempted, failed,
// metrics}; the line before it carries every metric with its sample count,
// the run details and the host fingerprint.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "Workloads.h"

#include "adt/Consensus.h"
#include "adt/KvStore.h"
#include "service/Service.h"
#include "slin/InitRelation.h"

#include <malloc.h>

#include <climits>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace slin;
using namespace perfbench;

#ifndef PERFBENCH_CXX_ID
#define PERFBENCH_CXX_ID "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

struct Options {
  Workload W = Workload::Fleet;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string GitSha = "unknown";
  std::string SourceDigest = "unknown";
  std::string SpansPath;
};

/// Sub-seeds of one run's streams lie this far apart, so runs with nearby
/// seeds share no stream.
constexpr std::uint64_t SubSeedStride = 1000003;

/// The checked object type and, in Slin mode, its signature and relation.
struct Target {
  KvStoreAdt Kv;
  ConsensusAdt Cons;
  ConsensusInitRelation Rel;
  PhaseSignature Sig{1, 3};
  bool Slin = false;

  explicit Target(Workload W) : Slin(W == Workload::Speculative) {}

  std::unique_ptr<MonitorService> makeService() const {
    ServiceConfig Config;
    Config.Mode = Slin ? ServiceMode::Slin : ServiceMode::Lin;
    if (Slin)
      return std::make_unique<MonitorService>(Cons, Sig, Rel, Config);
    return std::make_unique<MonitorService>(Kv, Config);
  }
};

/// Verdicts compared with ground truth. A mismatch is a wrong or missing
/// answer; an unsound one claims the opposite of the truth (No on a clean
/// object, Yes after a corruption).
struct Tally {
  std::uint64_t Checked = 0;
  std::uint64_t Mismatched = 0;
  std::uint64_t Unsound = 0;
  std::uint64_t ComposedNotYes = 0;

  void check(bool TruthNo, Verdict Shard) {
    ++Checked;
    if (TruthNo ? Shard != Verdict::No : Shard != Verdict::Yes)
      ++Mismatched;
    if (TruthNo ? Shard == Verdict::Yes : Shard == Verdict::No)
      ++Unsound;
  }

  bool operator==(const Tally &) const = default;
};

struct EpisodeResult {
  double SetupS = 0;
  std::vector<double> ChunkNs; ///< Closed loop, per ChunkEvents events.
  std::size_t ClosedEvents = 0;
  Tally Warm, Closed;
  std::uint64_t OpenUnsound = 0;
  std::vector<float> LatencyUs;
  std::vector<float> LagUs;
  std::size_t BacklogMax = 0;
  double MemBytes = 0; ///< Fresh episodes only (see runEpisode).
  std::uint64_t BadLines = 0;
  ServiceStats Stats;
};

/// The closed loop is timed in chunks of this many events.
constexpr std::size_t ChunkEvents = 4096;

/// Final shard verdict of every object against its final truth.
std::uint64_t finalUnsound(const MonitorService &S, const WireStream &W,
                           std::size_t End) {
  std::vector<std::uint8_t> Truth(W.Objects, 0);
  for (std::size_t I = 0; I != End; ++I)
    Truth[W.Object[I]] |= W.TruthNo[I];
  std::uint64_t Unsound = 0;
  for (std::size_t Obj = 0; Obj != W.Objects; ++Obj) {
    Verdict V = S.shardVerdict(static_cast<ObjectId>(Obj));
    if (Truth[Obj] ? V == Verdict::Yes : V == Verdict::No)
      ++Unsound;
  }
  return Unsound;
}

/// Closed loop over events [B, E): one line in, composed and shard verdict
/// out, then the next line.
void closedLoop(MonitorService &S, const WireStream &W, std::size_t B,
                std::size_t E, Tally &T, std::uint64_t &BadLines) {
  for (std::size_t I = B; I != E; ++I) {
    if (!S.ingestLine(W.line(I)))
      ++BadLines;
    S.poll();
    if (S.composedVerdict() != Verdict::Yes)
      ++T.ComposedNotYes;
    T.check(W.TruthNo[I], S.shardVerdict(W.Object[I]));
  }
}

/// Builds a service and feeds it the warm-up segment; \p Seconds is the
/// set-up time.
std::unique_ptr<MonitorService> setUp(const Target &Tg, const WireStream &W,
                                      Tally &T, std::uint64_t &BadLines,
                                      double &Seconds) {
  std::uint64_t T0 = nowNs();
  std::unique_ptr<MonitorService> S = Tg.makeService();
  closedLoop(*S, W, 0, W.WarmEvents, T, BadLines);
  Seconds = static_cast<double>(nowNs() - T0) * 1e-9;
  return S;
}

/// Keeps the pages of freed blocks in the heap, so an episode reuses what
/// the previous one freed instead of faulting fresh pages in again. Page
/// faults cost kernel time that varies with the host's memory pressure (a
/// third of speculative's run time went to them when every episode trimmed
/// the heap), and they are a cost of the first episode, not of the service
/// in its steady state.
void keepFreedPages() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20); // Glibc's ceiling on 64-bit hosts.
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
}

/// Runs one episode. A \p Fresh episode first returns the heap's free
/// pages to the system and measures the resident memory its service adds;
/// the others reuse the pages earlier episodes freed (see keepFreedPages).
EpisodeResult runEpisode(const Target &Tg, const WireStream &W, double Rate,
                         bool Fresh) {
  EpisodeResult R;
  const std::size_t WarmEnd = W.WarmEvents;
  const std::size_t ClosedEnd = WarmEnd + W.ClosedEvents;
  const std::size_t OpenEnd = ClosedEnd + W.OpenEvents;
  R.ChunkNs.reserve((W.ClosedEvents + ChunkEvents - 1) / ChunkEvents);
  R.LatencyUs.resize(W.OpenEvents);
  R.LagUs.resize(W.OpenEvents);
  // The baseline follows the trim and this episode's own result buffers,
  // so mem_mb counts the service alone.
  if (Fresh)
    malloc_trim(0);
  const std::size_t BaselineRss = Fresh ? residentBytes() : 0;

  std::unique_ptr<MonitorService> S =
      setUp(Tg, W, R.Warm, R.BadLines, R.SetupS);
  for (std::size_t B = WarmEnd; B < ClosedEnd; B += ChunkEvents) {
    std::uint64_t C0 = nowNs();
    closedLoop(*S, W, B, std::min(B + ChunkEvents, ClosedEnd), R.Closed,
               R.BadLines);
    R.ChunkNs.push_back(static_cast<double>(nowNs() - C0));
  }
  R.ClosedEvents = ClosedEnd - WarmEnd;

  // Open loop: event K of the segment falls due at Start + K * Period.
  const double PeriodNs = 1e9 / Rate;
  std::uint64_t Start = nowNs();
  std::size_t Next = 0;
  const std::size_t N = W.OpenEvents;
  while (Next != N) {
    std::uint64_t Now = nowNs();
    auto Due = static_cast<std::size_t>(
        static_cast<double>(Now - Start) / PeriodNs + 1);
    Due = std::min(Due, N);
    if (Due <= Next)
      continue; // Spin until the next event falls due.
    R.BacklogMax = std::max(R.BacklogMax, Due - Next);
    for (std::size_t K = Next; K != Due; ++K) {
      double DueAt = static_cast<double>(Start) +
                     static_cast<double>(K) * PeriodNs;
      R.LagUs[K] = static_cast<float>((static_cast<double>(Now) - DueAt) *
                                      1e-3);
      if (!S->ingestLine(W.line(ClosedEnd + K)))
        ++R.BadLines;
    }
    S->poll();
    std::uint64_t Done = nowNs();
    for (std::size_t K = Next; K != Due; ++K) {
      double DueAt = static_cast<double>(Start) +
                     static_cast<double>(K) * PeriodNs;
      R.LatencyUs[K] = static_cast<float>(
          (static_cast<double>(Done) - DueAt) * 1e-3);
    }
    Next = Due;
  }
  R.OpenUnsound = finalUnsound(*S, W, OpenEnd);

  if (Fresh)
    R.MemBytes = static_cast<double>(residentBytes()) -
                 static_cast<double>(BaselineRss);
  R.Stats = S->stats();
  S.reset();
  return R;
}

//===----------------------------------------------------------------------===//
// Traced passes.
//===----------------------------------------------------------------------===//

/// The verdict path an event took, classified from outside by the session
/// counters that moved across its append + verdict.
enum class Path : std::uint8_t {
  Invoke,   ///< An invocation: no obligation, no search.
  Fast,     ///< In-session fast path onto the retained frontier.
  Resume,   ///< Engine run resumed from the retained frontier.
  Search,   ///< Full root search.
  Fold,     ///< The append folded a quiescent prefix into the retired one.
  Drain,    ///< Verdict entered with the window past 64 (drain attempt).
  Fallback, ///< Drain left it pinned; graded BoundedYes fallback served.
  Cached,   ///< Anything else: absorbed No or a standing structural state.
};
constexpr std::size_t NumPaths = 8;
const char *const PathNames[NumPaths] = {"invoke", "fast",  "resume",
                                         "search", "fold",  "drain",
                                         "fallback", "cached"};

Path classify(const SessionStats &Before, const SessionStats &After,
              bool Invocation, bool Overflowed) {
  if (Overflowed)
    return After.BoundedYesVerdicts > Before.BoundedYesVerdicts
               ? Path::Fallback
               : Path::Drain;
  if (After.RetiredObligations > Before.RetiredObligations)
    return Path::Fold;
  if (After.FastPathVerdicts > Before.FastPathVerdicts)
    return Path::Fast;
  if (After.FrontierResumes > Before.FrontierResumes)
    return Path::Resume;
  if (After.Search.Nodes > Before.Search.Nodes)
    return Path::Search;
  return Invocation ? Path::Invoke : Path::Cached;
}

/// Per closed-segment event spans, in nanoseconds.
struct EventSpans {
  std::uint64_t StartNs = 0; ///< Pass-A start of the event.
  std::uint32_t Parse = 0, Ingest = 0, Poll = 0;
  std::uint32_t Append = 0, VerdictNs = 0, Compose = 0;
  std::uint32_t Nodes = 0;
  Path P = Path::Cached;
  bool Response = false;
};

/// Duration of a span, less \p Bias: the cost of the clock read that a
/// span between two reads includes.
std::uint32_t span(std::uint64_t A, std::uint64_t B, std::uint64_t Bias) {
  std::uint64_t D = B - A > Bias ? B - A - Bias : 0;
  return D > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(D);
}

/// Median cost of one nowNs() read, from back-to-back reads.
std::uint64_t clockReadNs() {
  std::vector<std::uint64_t> D(1001);
  for (std::uint64_t &X : D) {
    std::uint64_t A = nowNs();
    X = nowNs() - A;
  }
  return static_cast<std::uint64_t>(median(D));
}

struct PassA {
  std::vector<std::uint8_t> ShardVerdict; ///< Per event, all segments fed.
  Tally Closed;
  double LoopNs = 0; ///< Closed-segment wall time of the traced loop.
  double ShardCreateNs = 0;
  std::size_t ShardCreates = 0;
  std::uint64_t BadLines = 0;
  std::size_t Lines = 0;
  ServiceStats Stats;
  std::size_t Shards = 0;
  double ShardBytesAvg = 0, ShardBytesMax = 0;
};

PassA runPassA(const Target &Tg, const WireStream &W,
               std::vector<EventSpans> &Spans, std::uint64_t Bias) {
  PassA A;
  const std::size_t WarmEnd = W.WarmEvents;
  const std::size_t End = WarmEnd + W.ClosedEvents;
  A.ShardVerdict.resize(End);
  std::unique_ptr<MonitorService> S = Tg.makeService();
  std::string Error;
  double CreateNs = 0;
  std::uint64_t LoopStart = 0;
  for (std::size_t I = 0; I != End; ++I) {
    if (I == WarmEnd)
      LoopStart = nowNs();
    std::size_t ShardsBefore = S->shardCount();
    ServiceRecord Rec;
    std::uint64_t T0 = nowNs();
    LineKind K = parseServiceLine(W.line(I), Rec, Error);
    std::uint64_t T1 = nowNs();
    if (K == LineKind::Record)
      S->ingest(Rec.Object, Rec.A);
    std::uint64_t T2 = nowNs();
    S->poll();
    std::uint64_t T3 = nowNs();
    Verdict V = S->shardVerdict(W.Object[I]);
    A.ShardVerdict[I] = static_cast<std::uint8_t>(V);
    if (K == LineKind::Bad)
      ++A.BadLines;
    if (S->shardCount() != ShardsBefore) {
      CreateNs += static_cast<double>(T2 - T1);
      ++A.ShardCreates;
    }
    if (I < WarmEnd)
      continue;
    ++A.Lines;
    if (S->composedVerdict() != Verdict::Yes)
      ++A.Closed.ComposedNotYes;
    A.Closed.check(W.TruthNo[I], V);
    EventSpans &E = Spans[I - WarmEnd];
    E.StartNs = T0;
    E.Parse = span(T0, T1, Bias);
    E.Ingest = span(T1, T2, Bias);
    E.Poll = span(T2, T3, Bias);
  }
  A.LoopNs = static_cast<double>(nowNs() - LoopStart);
  A.ShardCreateNs = A.ShardCreates ? CreateNs / A.ShardCreates : 0;
  A.Stats = S->stats();
  A.Shards = S->shardCount();
  A.ShardBytesAvg = A.Shards ? static_cast<double>(S->memoryFootprintBytes()) /
                                   static_cast<double>(A.Shards)
                             : 0;
  A.ShardBytesMax = static_cast<double>(S->maxShardMemoryBytes());
  return A;
}

/// One object's benchmark-owned mirror of a service shard.
struct MirrorShard {
  std::unique_ptr<IncrementalLinSession> Lin;
  std::unique_ptr<IncrementalSlinSession> Slin;
  ClientRemap Remap;
  std::uint32_t Index = 0;
  bool Doomed = false;
  std::string LastReason;

  const SessionStats &stats() const {
    return Lin ? Lin->stats() : Slin->stats();
  }
  bool overflowed() const {
    return Lin ? Lin->overflowed() : Slin->overflowed();
  }
};

struct PassB {
  std::uint64_t MirrorMismatches = 0;
  std::uint64_t UnknownVerdicts = 0;
  std::uint64_t FastVerdicts = 0;
  std::uint64_t Responses = 0;
  std::uint64_t Nodes = 0;
  std::uint64_t Retired = 0;
  std::uint64_t WindowOverflows = 0;
  std::uint64_t LiveWindowHw = 0;
  double FrontiersAvg = 0;
};

PassB runPassB(const Target &Tg, const WireStream &W, const PassA &A,
               std::vector<EventSpans> &Spans, std::uint64_t Bias) {
  PassB B;
  const ServiceConfig Defaults;
  IncrementalOptions Opts;
  Opts.TranspositionCapacity = Defaults.TranspositionCapacity;
  Opts.RetainTrace = false;
  Opts.RetainRetiredWitness = false;
  Opts.InterferenceBound = Defaults.InterferenceBound;
  Opts.Order = Defaults.Order;
  LinCheckOptions LinOpts;
  LinOpts.NodeBudget = Defaults.NodeBudget;
  LinOpts.WantWitness = false;
  SlinCheckOptions SlinOpts;
  SlinOpts.Search.NodeBudget = Defaults.NodeBudget;
  SlinOpts.Search.WantWitness = false;
  SlinOpts.WantWitness = false;
  const std::string Empty;

  std::vector<std::unique_ptr<MirrorShard>> Shards(W.Objects);
  std::uint32_t NextIndex = 0;
  ComposedVerdictTracker Tracker;
  std::string Error;
  SessionStats Before;
  const std::size_t WarmEnd = W.WarmEvents;
  const std::size_t End = WarmEnd + W.ClosedEvents;
  for (std::size_t I = 0; I != End; ++I) {
    ServiceRecord Rec;
    if (parseServiceLine(W.line(I), Rec, Error) != LineKind::Record)
      continue;
    std::unique_ptr<MirrorShard> &M = Shards[Rec.Object];
    if (!M) {
      M = std::make_unique<MirrorShard>();
      M->Index = NextIndex++;
      if (Tg.Slin)
        M->Slin = std::make_unique<IncrementalSlinSession>(Tg.Cons, Tg.Sig,
                                                           Tg.Rel, Opts);
      else
        M->Lin = std::make_unique<IncrementalLinSession>(Tg.Kv, Opts);
    }
    Action L = Rec.A;
    L.Client = M->Remap.local(Rec.A.Client);
    Before = M->stats();

    std::uint64_t T0 = nowNs();
    if (!M->Doomed) {
      WellFormedness WF = M->Lin ? M->Lin->append(L) : M->Slin->append(L);
      if (!WF.Ok)
        M->Doomed = true;
    }
    std::uint64_t T1 = nowNs();
    bool Overflowed = M->overflowed();
    Verdict V;
    VerdictGrade G;
    const std::string *Reason;
    LinCheckResult LR;
    SlinVerdict SR;
    std::uint64_t T2 = nowNs();
    if (M->Lin) {
      LR = M->Lin->verdict(LinOpts);
      V = LR.Outcome;
      G = LR.Grade;
      Reason = &LR.Reason;
    } else {
      SR = M->Slin->verdict(SlinOpts);
      V = SR.Outcome;
      G = SR.Grade;
      Reason = &SR.Reason;
    }
    std::uint64_t T3 = nowNs();
    if (V != Verdict::Yes && M->LastReason != *Reason)
      M->LastReason = *Reason;
    std::uint64_t T4 = nowNs();
    Tracker.update(M->Index, V, G,
                   G == VerdictGrade::Yes ? Empty : M->LastReason);
    std::uint64_t T5 = nowNs();

    if (V != static_cast<Verdict>(A.ShardVerdict[I]))
      ++B.MirrorMismatches;
    if (I < WarmEnd)
      continue;
    const SessionStats &After = M->stats();
    EventSpans &E = Spans[I - WarmEnd];
    E.Append = span(T0, T1, Bias);
    E.VerdictNs = span(T2, T3, Bias);
    E.Compose = span(T4, T5, Bias);
    E.Response = isRespond(L);
    E.P = classify(Before, After, isInvoke(L), Overflowed);
    std::uint64_t Nodes = After.Search.Nodes - Before.Search.Nodes;
    E.Nodes = Nodes > UINT32_MAX ? UINT32_MAX
                                 : static_cast<std::uint32_t>(Nodes);
    B.Nodes += Nodes;
    B.Retired += After.RetiredObligations - Before.RetiredObligations;
    B.FastVerdicts += After.FastPathVerdicts - Before.FastPathVerdicts;
    B.Responses += E.Response;
    B.UnknownVerdicts += V == Verdict::Unknown;
  }
  std::size_t Live = 0;
  double Frontiers = 0;
  for (const auto &M : Shards) {
    if (!M)
      continue;
    ++Live;
    const SessionStats &S = M->stats();
    B.WindowOverflows += S.WindowOverflows;
    B.LiveWindowHw = std::max(B.LiveWindowHw, S.LiveWindowHighWater);
    Frontiers += M->Slin ? static_cast<double>(M->Slin->retainedFrontiers())
                         : (M->Lin->frontierState().Valid ? 1.0 : 0.0);
  }
  B.FrontiersAvg = Live ? Frontiers / static_cast<double>(Live) : 0;
  return B;
}

void writeSpans(const std::string &Path, const std::vector<EventSpans> &Spans,
                std::size_t FirstEvent) {
  if (Path.empty())
    return;
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    throw std::runtime_error("cannot write spans to " + Path);
  // Header: magic, record count, index of the first event. Each record:
  // event index (u64), pass-A start (u64 ns), then u32 ns durations of
  // service.wire.parse, service.ingest, service.poll, engine.append,
  // engine.verdict, slin.compose, the u32 search nodes, and the u8 path.
  const char Magic[8] = {'S', 'L', 'S', 'P', 'A', 'N', '1', '\n'};
  Out.write(Magic, sizeof(Magic));
  std::uint64_t Count = Spans.size(), First = FirstEvent;
  Out.write(reinterpret_cast<const char *>(&Count), sizeof(Count));
  Out.write(reinterpret_cast<const char *>(&First), sizeof(First));
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const EventSpans &E = Spans[I];
    std::uint64_t Event = FirstEvent + I;
    std::uint32_t D[7] = {E.Parse,     E.Ingest,  E.Poll, E.Append,
                          E.VerdictNs, E.Compose, E.Nodes};
    auto P = static_cast<std::uint8_t>(E.P);
    Out.write(reinterpret_cast<const char *>(&Event), sizeof(Event));
    Out.write(reinterpret_cast<const char *>(&E.StartNs), sizeof(E.StartNs));
    Out.write(reinterpret_cast<const char *>(D), sizeof(D));
    Out.write(reinterpret_cast<const char *>(&P), sizeof(P));
  }
}

//===----------------------------------------------------------------------===//
// Reporting.
//===----------------------------------------------------------------------===//

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      auto Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(' ', Colon + 1));
    }
  return "unknown";
}

std::string hostJson(const Options &O) {
  return "{\"cpu\": " + jsonString(cpuModel()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + jsonString(PERFBENCH_CXX_ID) +
         ", \"flags\": " + jsonString(PERFBENCH_CXX_FLAGS) +
         ", \"git_sha\": " + jsonString(O.GitSha) +
         ", \"source_digest\": " + jsonString(O.SourceDigest) + "}";
}

void emit(const Options &O, const MetricTable &M, const std::string &Extra,
          bool Correct, std::uint64_t Attempted, std::uint64_t Failed) {
  std::printf("{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"host\": %s, \"metrics\": %s, \"detail\": "
              "%s}}\n",
              workloadName(O.W), static_cast<unsigned long long>(O.Seed),
              O.Trace ? 1 : 0, hostJson(O).c_str(), M.json(true).c_str(),
              Extra.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              M.json(false).c_str());
  std::fflush(stdout);
}

std::string kv(const char *Key, double V) {
  return std::string("\"") + Key + "\": " + jsonNumber(V);
}

std::string kv(const char *Key, const std::vector<double> &V) {
  std::string Out = std::string("\"") + Key + "\": [";
  for (std::size_t I = 0; I != V.size(); ++I)
    Out += (I ? ", " : "") + jsonNumber(V[I]);
  return Out + "]";
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <fleet|overlap|"
               "speculative> --seed <n> --seconds <s> --trace <0|1> "
               "[--git-sha <sha>] [--source-digest <hex>] "
               "[--spans <file>]\n");
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload") {
      auto W = parseWorkload(V);
      if (!W)
        return false;
      O.W = *W;
    } else if (K == "--seed") {
      O.Seed = std::stoull(V);
    } else if (K == "--seconds") {
      O.Seconds = std::stod(V);
    } else if (K == "--trace") {
      if (V != "0" && V != "1")
        return false;
      O.Trace = V == "1";
    } else if (K == "--git-sha") {
      O.GitSha = V;
    } else if (K == "--source-digest") {
      O.SourceDigest = V;
    } else if (K == "--spans") {
      O.SpansPath = V;
    } else {
      return false;
    }
  }
  return Argc % 2 == 1 && O.Seconds > 0;
}

/// Fewest repeats of every stream in an untraced run; the per-event and
/// per-chunk medians need at least this many.
constexpr std::size_t MinRepeats = 3;

/// Set-up samples behind the setup_s median.
constexpr std::size_t MinSetupSamples = 9;

/// Share of checked events whose verdict missed the ground truth, as the
/// add-one estimate (mismatched + 1) / (checked + 1): a run without a
/// single miss reads a small positive share that shrinks with the sample,
/// so the metric is never 0 and a first miss stands out against it.
double failedShare(const Tally &T) {
  return static_cast<double>(T.Mismatched + 1) /
         static_cast<double>(T.Checked + 1);
}

/// One stream's episodes, summarized.
struct StreamSummary {
  double ClosedNs = 0; ///< Sum over chunks of the median chunk time.
  std::vector<float> Profile; ///< Per open event: median latency, us.
  Tally Closed;
  double MemMb = 0;
  bool Deterministic = true;
};

/// Every episode of a stream replays it on the same schedule, so a slow
/// event of the program costs the same chunk time and delays the same
/// events in every episode, while a pause of the host hits different ones
/// in each. Each chunk time and each event latency is therefore taken as
/// its median over the episodes.
StreamSummary summarize(const std::vector<EpisodeResult> &Episodes) {
  StreamSummary S;
  S.Closed = Episodes.front().Closed;
  S.MemMb = Episodes.front().MemBytes * 1e-6;
  for (const EpisodeResult &E : Episodes)
    S.Deterministic &= E.Closed == S.Closed;
  for (std::size_t C = 0; C != Episodes.front().ChunkNs.size(); ++C) {
    std::vector<double> Times;
    for (const EpisodeResult &E : Episodes)
      Times.push_back(E.ChunkNs[C]);
    S.ClosedNs += median(Times);
  }
  std::size_t Open = Episodes.front().LatencyUs.size();
  S.Profile.resize(Open);
  std::vector<float> PerEpisode;
  for (std::size_t K = 0; K != Open; ++K) {
    PerEpisode.clear();
    for (const EpisodeResult &E : Episodes)
      PerEpisode.push_back(E.LatencyUs[K]);
    S.Profile[K] = static_cast<float>(median(PerEpisode));
  }
  return S;
}

/// The untraced run: end-to-end metrics over every stream, each fed to
/// fresh services in repeated episodes (streams interleaved).
int runUntraced(const Options &O, const Target &Tg,
                const std::vector<WireStream> &Streams, double GenS) {
  const std::size_t NS = Streams.size();
  const double Rate = offeredRate(O.W);
  const std::uint64_t Start = nowNs();
  std::vector<std::vector<EpisodeResult>> Runs(NS);
  std::vector<double> Setup;
  std::vector<float> Lag;
  std::size_t BacklogMax = 0;
  std::uint64_t Unsound = 0, Bad = 0, Stalls = 0, Overflows = 0,
                Attempted = 0;
  // Episodes cycle through the streams until --seconds have passed and
  // every stream has had at least MinRepeats of them. Each stream's first
  // episode is the fresh one that measures memory.
  std::size_t Episodes = 0;
  for (; Episodes < MinRepeats * NS ||
         static_cast<double>(nowNs() - Start) * 1e-9 < O.Seconds;
       ++Episodes) {
    const std::size_t I = Episodes % NS;
    EpisodeResult R = runEpisode(Tg, Streams[I], Rate, Episodes < NS);
    Setup.push_back(R.SetupS);
    Lag.insert(Lag.end(), R.LagUs.begin(), R.LagUs.end());
    R.LagUs = {};
    BacklogMax = std::max(BacklogMax, R.BacklogMax);
    Unsound += R.Warm.Unsound + R.Closed.Unsound + R.OpenUnsound;
    Bad += R.BadLines;
    Stalls += R.Stats.BackpressureStalls;
    Overflows += R.Stats.RingOverflows + R.Stats.Rejected;
    Attempted += R.ClosedEvents + Streams[I].OpenEvents;
    Runs[I].push_back(std::move(R));
  }
  // Set-up is short next to an episode: repeat it alone until the median
  // rests on MinSetupSamples.
  for (std::size_t I = 0; Setup.size() < MinSetupSamples; I = (I + 1) % NS) {
    Tally Warm;
    double Seconds = 0;
    setUp(Tg, Streams[I], Warm, Bad, Seconds).reset();
    Setup.push_back(Seconds);
    Unsound += Warm.Unsound;
  }

  double ClosedNs = 0, ClosedEvents = 0, Mem = 0;
  std::size_t ClosedSamples = 0, LatencyRawSamples = 0;
  std::vector<float> Profile;
  Tally Closed;
  bool Deterministic = true;
  for (std::size_t I = 0; I != NS; ++I) {
    StreamSummary S = summarize(Runs[I]);
    ClosedNs += S.ClosedNs;
    ClosedEvents += static_cast<double>(Streams[I].ClosedEvents);
    ClosedSamples += Streams[I].ClosedEvents * Runs[I].size();
    LatencyRawSamples += Streams[I].OpenEvents * Runs[I].size();
    Profile.insert(Profile.end(), S.Profile.begin(), S.Profile.end());
    Closed.Checked += S.Closed.Checked;
    Closed.Mismatched += S.Closed.Mismatched;
    Closed.ComposedNotYes += S.Closed.ComposedNotYes;
    Mem += S.MemMb / static_cast<double>(NS);
    Deterministic &= S.Deterministic;
  }
  // Each percentile is taken over one per-event median per open event.
  const std::size_t LatencySamples = Profile.size();

  MetricTable M;
  M.add("events_per_s", ClosedEvents * 1e9 / ClosedNs, "1/s",
        ClosedSamples);
  M.add("verdict_p50_us", percentile(Profile, 0.50), "us", LatencySamples);
  M.add("verdict_p99_us", percentile(Profile, 0.99), "us", LatencySamples);
  M.add("failed_share", failedShare(Closed), "share", Closed.Checked);
  M.add("mem_mb", Mem, "MB", NS);
  M.add("setup_s", median(Setup), "s", Setup.size());

  const WireStream &W = Streams.front();
  std::string Extra =
      "{" + kv("streams", static_cast<double>(NS)) + ", " +
      kv("episodes", static_cast<double>(Episodes)) + ", " +
      kv("events_warm", static_cast<double>(W.WarmEvents)) + ", " +
      kv("events_closed", static_cast<double>(W.ClosedEvents)) + ", " +
      kv("events_open", static_cast<double>(W.OpenEvents)) + ", " +
      kv("objects", static_cast<double>(W.Objects)) + ", " +
      kv("offered_rate_per_s", Rate) + ", " +
      kv("latency_raw_samples", static_cast<double>(LatencyRawSamples)) +
      ", " + kv("generate_s", GenS) +
      ", " + kv("mismatched_events", static_cast<double>(Closed.Mismatched)) +
      ", " +
      kv("composed_not_yes_share",
         static_cast<double>(Closed.ComposedNotYes) /
             static_cast<double>(Closed.Checked)) +
      ", " + kv("unsound_verdicts", static_cast<double>(Unsound)) + ", " +
      kv("lag_p99_us", percentile(Lag, 0.99)) + ", " +
      kv("backlog_max", static_cast<double>(BacklogMax)) + ", " +
      kv("backpressure_stalls", static_cast<double>(Stalls)) + ", " +
      kv("deterministic", Deterministic ? 1 : 0) + ", " +
      kv("setup_s_samples", Setup) + "}";
  bool Correct = Unsound == 0 && Deterministic && Bad == 0 && Overflows == 0;
  if (Unsound)
    std::fprintf(stderr, "perfbench: %llu unsound verdicts\n",
                 static_cast<unsigned long long>(Unsound));
  if (!Deterministic)
    std::fprintf(stderr, "perfbench: verdicts differ between episodes\n");
  emit(O, M, Extra, Correct, Attempted, Bad + Overflows);
  return Correct ? 0 : 1;
}

/// The traced run: per-layer metrics.
int runTraced(const Options &O, const Target &Tg, const WireStream &W) {
  // Untraced baseline: MinRepeats episodes, summarized like the untraced
  // run's.
  std::vector<EpisodeResult> Bases;
  EpisodeResult Base; // Counters and lags of every baseline episode.
  for (std::size_t Rep = 0; Rep != MinRepeats + 1; ++Rep) {
    Bases.push_back(runEpisode(Tg, W, offeredRate(O.W), Rep == 0));
    const EpisodeResult &E = Bases.back();
    Base.Warm.Unsound += E.Warm.Unsound;
    Base.Closed.Unsound += E.Closed.Unsound;
    Base.Closed.Mismatched = E.Closed.Mismatched;
    Base.OpenUnsound += E.OpenUnsound;
    Base.BadLines += E.BadLines;
    Base.Stats.BackpressureStalls += E.Stats.BackpressureStalls;
    Base.Stats.RingOverflows += E.Stats.RingOverflows;
    Base.BacklogMax = std::max(Base.BacklogMax, E.BacklogMax);
    Base.LagUs.insert(Base.LagUs.end(), E.LagUs.begin(), E.LagUs.end());
  }
  // The fresh episode faults its pages in; the baseline is the others, in
  // the same heap state as the passes below.
  Bases.erase(Bases.begin());
  double BaseNsPerEvent =
      summarize(Bases).ClosedNs / static_cast<double>(W.ClosedEvents);
  Bases.clear();

  const std::uint64_t Bias = clockReadNs();
  std::vector<EventSpans> Spans(W.ClosedEvents);
  PassA A = runPassA(Tg, W, Spans, Bias);
  PassB B = runPassB(Tg, W, A, Spans, Bias);

  // Layer times over the closed segment.
  const double N = static_cast<double>(W.ClosedEvents);
  std::vector<std::uint32_t> Poll, Verdicts;
  Poll.reserve(Spans.size());
  Verdicts.reserve(Spans.size());
  double Parse = 0, Ingest = 0, PollSum = 0, Append = 0, VerdictSum = 0,
         Compose = 0;
  std::vector<std::vector<std::uint32_t>> PathNs(NumPaths);
  for (const EventSpans &E : Spans) {
    Parse += E.Parse;
    Ingest += E.Ingest;
    PollSum += E.Poll;
    Append += E.Append;
    VerdictSum += E.VerdictNs;
    Compose += E.Compose;
    Poll.push_back(E.Poll);
    Verdicts.push_back(E.VerdictNs);
    PathNs[static_cast<std::size_t>(E.P)].push_back(E.Append + E.VerdictNs);
  }
  double SpanSum = Parse + Ingest + PollSum;
  double Engine = Append + VerdictSum + Compose;
  double LagP99 = percentile(Base.LagUs, 0.99);

  MetricTable M;
  M.add("service.wire.parse_ns", Parse / N, "ns", Spans.size());
  M.add("service.wire.lines", static_cast<double>(A.Lines), "count");
  M.add("service.wire.bad_lines", static_cast<double>(A.BadLines), "count");
  M.add("service.ingest_ns", Ingest / N, "ns", Spans.size());
  M.add("service.poll_ns", PollSum / N, "ns", Spans.size());
  M.add("service.poll_p99_ns", percentile(Poll, 0.99), "ns", Poll.size());
  M.add("service.self_ns", (PollSum - Engine) / N, "ns", Spans.size());
  M.add("service.shard_create_ns", A.ShardCreateNs, "ns", A.ShardCreates);
  M.add("service.shards", static_cast<double>(A.Shards), "count");
  M.add("service.backpressure_stalls",
        static_cast<double>(A.Stats.BackpressureStalls +
                            Base.Stats.BackpressureStalls),
        "count");
  M.add("service.ring_overflows",
        static_cast<double>(A.Stats.RingOverflows + Base.Stats.RingOverflows),
        "count");
  M.add("slin.compose_ns", Compose / N, "ns", Spans.size());
  M.add("slin.frontiers_avg", B.FrontiersAvg, "count");
  M.add("engine.append_ns", Append / N, "ns", Spans.size());
  M.add("engine.verdict_ns", VerdictSum / N, "ns", Spans.size());
  M.add("engine.verdict_p99_ns", percentile(Verdicts, 0.99), "ns",
        Verdicts.size());
  M.add("engine.nodes_per_event", static_cast<double>(B.Nodes) / N, "count");
  M.add("engine.fast_path_ratio",
        B.Responses ? static_cast<double>(B.FastVerdicts) /
                          static_cast<double>(B.Responses)
                    : 0,
        "share", B.Responses);
  for (std::size_t P = 0; P != NumPaths; ++P) {
    std::vector<std::uint32_t> &Ns = PathNs[P];
    std::string Name = std::string("engine.path.") + PathNames[P];
    M.add(Name + ".share", static_cast<double>(Ns.size()) / N, "share",
          Spans.size());
    M.add(Name + ".ns", mean(Ns), "ns", Ns.size());
    M.add(Name + ".p50_ns", percentile(Ns, 0.50), "ns", Ns.size());
    M.add(Name + ".p99_ns", percentile(Ns, 0.99), "ns", Ns.size());
  }
  M.add("engine.unknown_verdicts", static_cast<double>(B.UnknownVerdicts),
        "count");
  M.add("engine.live_window_hw", static_cast<double>(B.LiveWindowHw),
        "count");
  M.add("engine.window_overflows", static_cast<double>(B.WindowOverflows),
        "count");
  M.add("engine.retired_per_event", static_cast<double>(B.Retired) / N,
        "count");
  M.add("engine.shard_bytes_avg", A.ShardBytesAvg, "B");
  M.add("engine.shard_bytes_max", A.ShardBytesMax, "B");
  M.add("bench.lag_p99_us", LagP99, "us", Base.LagUs.size());
  M.add("bench.backlog_max", static_cast<double>(Base.BacklogMax), "count");
  M.add("bench.trace_overhead_share",
        (A.LoopNs / N - BaseNsPerEvent) / BaseNsPerEvent, "share");
  M.add("bench.unexplained_share", (A.LoopNs - SpanSum) / A.LoopNs, "share");
  M.add("bench.failed_share", failedShare(A.Closed), "share",
        A.Closed.Checked);
  M.add("bench.mismatched_events", static_cast<double>(A.Closed.Mismatched),
        "count");
  M.add("bench.mirror_mismatches", static_cast<double>(B.MirrorMismatches),
        "count");

  writeSpans(O.SpansPath, Spans, W.WarmEvents);

  std::uint64_t Unsound =
      Base.Warm.Unsound + Base.Closed.Unsound + Base.OpenUnsound +
      A.Closed.Unsound;
  bool SameVerdicts = A.Closed.Mismatched == Base.Closed.Mismatched &&
                      A.Closed.Unsound == Base.Closed.Unsound;
  bool Correct = Unsound == 0 && B.MirrorMismatches == 0 && SameVerdicts &&
                 A.BadLines == 0 && Base.BadLines == 0;
  if (B.MirrorMismatches)
    std::fprintf(stderr,
                 "perfbench: %llu pass-B verdicts differ from the service\n",
                 static_cast<unsigned long long>(B.MirrorMismatches));
  if (Unsound)
    std::fprintf(stderr, "perfbench: %llu unsound verdicts\n",
                 static_cast<unsigned long long>(Unsound));
  std::string Extra =
      "{" + kv("untraced_ns_per_event", BaseNsPerEvent) + ", " +
      kv("clock_read_ns", static_cast<double>(Bias)) + ", " +
      kv("traced_ns_per_event", A.LoopNs / N) + ", " +
      kv("span_sum_ns_per_event", SpanSum / N) + "}";
  std::uint64_t Failed = A.BadLines + A.Stats.RingOverflows +
                         A.Stats.Rejected;
  emit(O, M, Extra, Correct, W.ClosedEvents, Failed);
  return Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  try {
    if (!parseArgs(Argc, Argv, O)) {
      usage();
      return 2;
    }
    keepFreedPages();
    Target Tg(O.W);
    std::uint64_t G0 = nowNs();
    // One stream per sub-seed; the first is the seed itself. The traced
    // run uses the first stream only.
    std::vector<WireStream> Streams;
    for (std::size_t I = 0; I != (O.Trace ? 1 : streamCount(O.W)); ++I)
      Streams.push_back(
          render(generate(O.W, O.Seed + I * SubSeedStride, defaultSizes(O.W))));
    malloc_trim(0);
    double GenS = static_cast<double>(nowNs() - G0) * 1e-9;
    return O.Trace ? runTraced(O, Tg, Streams.front())
                   : runUntraced(O, Tg, Streams, GenS);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 2;
  }
}
