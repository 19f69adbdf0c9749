//===- perfbench/src/SelfTest.cpp - Ground truth of the generators --------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// Validates the benchmark's generators, not the engine: every verdict the
// driver compares against is the generator's ground truth, so that truth is
// checked here with checkers that share no code with the incremental
// sessions under test.
//
//   * KV workloads (fleet and overlap shapes, overlap's stragglers scaled
//     down) generated short enough for checkLinearizableClassical — 64
//     operations or fewer per object: every clean object is Yes, every
//     corrupted object is Yes just before its corrupted response and No
//     from it on.
//   * Full-size overlap streams keep their shuffled rounds and stragglers
//     held open past 64 completions in every object.
//   * Every speculative slot of the full-size stream matches batch
//     checkSlin: Yes when clean; Yes before and No from the corrupted
//     decision when corrupted.
//
// Usage: perfbench_selftest   (seeds 1-3; exit 0 iff every check passes)
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "adt/Consensus.h"
#include "adt/KvStore.h"
#include "lin/Classical.h"
#include "slin/InitRelation.h"
#include "slin/SlinChecker.h"

#include <cstdio>
#include <string>

using namespace slin;
using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const std::string &What) {
  if (!Ok) {
    ++Failures;
    std::fprintf(stderr, "FAIL: %s\n", What.c_str());
  }
}

std::size_t operations(const Trace &T) {
  std::size_t N = 0;
  for (const Action &A : T)
    N += isInvoke(A);
  return N;
}

/// Index of the first event in \p T whose truth is No, or T.size().
std::size_t firstBad(const Generated &G, ObjectId Obj) {
  std::size_t K = 0;
  for (const Event &E : G.Events) {
    if (E.Object != Obj)
      continue;
    if (E.TruthNo)
      return K;
    ++K;
  }
  return K;
}

/// Checks one generated KV stream object by object with the classical
/// checker, prefix and full trace around each corruption.
void checkKvTruth(const Generated &G, const std::string &Label) {
  KvStoreAdt Kv;
  std::vector<Trace> Traces = objectTraces(G);
  std::size_t Corrupt = 0;
  for (std::size_t Obj = 0; Obj != Traces.size(); ++Obj) {
    const Trace &T = Traces[Obj];
    std::string Where = Label + " object " + std::to_string(Obj);
    expect(operations(T) <= 64, Where + ": over 64 operations");
    std::size_t Bad = firstBad(G, static_cast<ObjectId>(Obj));
    if (Bad == T.size()) {
      expect(checkLinearizableClassical(T, Kv).Outcome == Verdict::Yes,
             Where + ": clean trace not linearizable");
      continue;
    }
    ++Corrupt;
    Trace Before(T.begin(), T.begin() + static_cast<std::ptrdiff_t>(Bad));
    Trace Upto(T.begin(), T.begin() + static_cast<std::ptrdiff_t>(Bad) + 1);
    expect(isRespond(T[Bad]), Where + ": corruption is not a response");
    expect(checkLinearizableClassical(Before, Kv).Outcome == Verdict::Yes,
           Where + ": prefix before the corruption not linearizable");
    expect(checkLinearizableClassical(Upto, Kv).Outcome == Verdict::No,
           Where + ": corrupted prefix linearizable");
    expect(checkLinearizableClassical(T, Kv).Outcome == Verdict::No,
           Where + ": corrupted trace linearizable");
  }
  expect(Corrupt == G.Corrupted.size() && Corrupt >= 1,
         Label + ": corrupted objects missing");
}

/// Operations whose response came after more than \p Past completions of
/// other operations of the same object.
std::size_t stragglers(const Trace &T, std::size_t Past) {
  std::size_t N = 0;
  std::vector<std::size_t> OpenAt(8, 0);
  std::size_t Completions = 0;
  for (const Action &A : T) {
    if (A.Client >= OpenAt.size())
      OpenAt.resize(A.Client + 1, 0);
    if (isInvoke(A)) {
      OpenAt[A.Client] = Completions;
    } else if (isRespond(A)) {
      if (Completions - OpenAt[A.Client] > Past)
        ++N;
      ++Completions;
    }
  }
  return N;
}

/// True when some round's responses arrive out of invocation order.
bool shuffledResponses(const Trace &T) {
  std::vector<ClientId> Invoked, Responded;
  for (const Action &A : T) {
    if (isInvoke(A))
      Invoked.push_back(A.Client);
    else if (isRespond(A))
      Responded.push_back(A.Client);
  }
  return Invoked != Responded;
}

void checkKv(std::uint64_t Seed) {
  std::string S = " seed " + std::to_string(Seed);
  // 14 rounds of 4 operations: 56 per object, corruption in rounds 8-11.
  Sizes Short{8, 4, 2};
  checkKvTruth(generate(Workload::Fleet, Seed, Short), "fleet" + S);

  KvShape Overlap = kvShape(Workload::Overlap);
  Overlap.StragglerEvery = 6;
  Overlap.StragglerHold = 8;
  Overlap.StragglerFrom = 1;
  Generated G = generateKv(Overlap, Seed, Short);
  checkKvTruth(G, "overlap (scaled stragglers)" + S);
  std::size_t Held = 0;
  for (const Trace &T : objectTraces(G))
    Held += stragglers(T, Overlap.StragglerHold - 1);
  expect(Held >= G.Objects, "overlap (scaled stragglers)" + S +
                                ": stragglers missing");

  // The full-size overlap shape keeps its stragglers and shuffle.
  Generated Full = generate(Workload::Overlap, Seed,
                            defaultSizes(Workload::Overlap));
  std::vector<Trace> Traces = objectTraces(Full);
  for (std::size_t Obj = 0; Obj != Traces.size(); ++Obj) {
    std::string Where = "overlap object " + std::to_string(Obj) + S;
    expect(stragglers(Traces[Obj], 64) >= 2, Where + ": no stragglers");
    expect(shuffledResponses(Traces[Obj]), Where + ": rounds not shuffled");
  }
}

void checkSpeculative(std::uint64_t Seed) {
  ConsensusAdt Cons;
  ConsensusInitRelation Rel;
  PhaseSignature Sig(1, 3);
  Generated G = generate(Workload::Speculative, Seed,
                         defaultSizes(Workload::Speculative));
  std::vector<Trace> Traces = objectTraces(G);
  std::size_t Corrupt = 0, Switches = 0;
  for (std::size_t Slot = 0; Slot != Traces.size(); ++Slot) {
    const Trace &T = Traces[Slot];
    std::string Where =
        "speculative slot " + std::to_string(Slot) + " seed " +
        std::to_string(Seed);
    for (const Action &A : T)
      Switches += isSwitch(A);
    std::size_t Bad = firstBad(G, static_cast<ObjectId>(Slot));
    if (Bad == T.size()) {
      expect(checkSlin(T, Sig, Cons, Rel).Outcome == Verdict::Yes,
             Where + ": clean slot not speculatively linearizable");
      continue;
    }
    ++Corrupt;
    Trace Before(T.begin(), T.begin() + static_cast<std::ptrdiff_t>(Bad));
    expect(checkSlin(Before, Sig, Cons, Rel).Outcome == Verdict::Yes,
           Where + ": prefix before the corruption rejected");
    expect(checkSlin(T, Sig, Cons, Rel).Outcome == Verdict::No,
           Where + ": corrupted slot accepted");
  }
  expect(Corrupt == G.Corrupted.size() && Corrupt >= 1,
         "speculative: corrupted slots missing");
  expect(Switches > 0, "speculative: no switch actions under contention");
}

} // namespace

/// Seeds 1..Seeds are checked.
constexpr std::uint64_t Seeds = 3;

int main() {
  for (std::uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    checkKv(Seed);
    checkSpeculative(Seed);
  }
  std::printf("perfbench_selftest: %s (%llu seeds, %d failures)\n",
              Failures ? "FAIL" : "ok",
              static_cast<unsigned long long>(Seeds), Failures);
  return Failures ? 1 : 0;
}
